import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdia import freqs
from kdia.errors import ConfigError, ParameterError


def simulate_history(seed, n_clients, k_per_round, n_rounds, sizes=None):
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = rng.integers(1, 200, size=n_clients)
    ledger = freqs.ClientLedger(sizes)
    selected = None
    for t in range(n_rounds):
        selected = rng.choice(n_clients, size=k_per_round, replace=False)
        ledger.record_round(selected, t)
    return ledger, sorted(selected), n_rounds - 1


class TestRecordRound:
    def test_first_round_bookkeeping(self):
        ledger = freqs.ClientLedger([10, 10, 10, 10])
        ledger.record_round([0, 1], 0)
        assert ledger.last_round.tolist() == [0, 0, -1, -1]
        assert ledger.part_counts.tolist() == [1, 1, 0, 0]

    def test_keeps_last_round_and_its_sorted_ids(self):
        ledger = freqs.ClientLedger([10, 10, 10, 10])
        ledger.record_round([3, 1], 0)
        ledger.record_round([2, 0], 1)
        assert ledger.round == 1
        assert ledger.selected.tolist() == [0, 2]

    def test_repeat_selection_accumulates(self):
        ledger = freqs.ClientLedger([5, 5])
        ledger.record_round([0], 0)
        ledger.record_round([0], 1)
        assert ledger.last_round[0] == 1
        assert ledger.part_counts[0] == 2

    def test_counts_conserved_over_rounds(self):
        ledger, _, _ = simulate_history(3, 10, 4, 10)
        assert ledger.part_counts.sum() == 40

    def test_duplicates_rejected(self):
        ledger = freqs.ClientLedger([5, 5, 5])
        with pytest.raises(ConfigError):
            ledger.record_round([1, 1], 0)

    def test_out_of_range_rejected(self):
        ledger = freqs.ClientLedger([5, 5])
        with pytest.raises(ConfigError):
            ledger.record_round([2], 0)

    @pytest.mark.parametrize("counts", [[1.7, 2.9], [10, math.nan], [True, True]])
    def test_non_integer_sample_counts_rejected(self, counts):
        with pytest.raises(ConfigError, match="sample_counts must be integers"):
            freqs.ClientLedger(counts)


class TestIntervalFreqs:
    def test_hand_evaluated_first_round(self):
        # direct evaluation: exp(0) twice, exp(-1) twice
        e1 = math.exp(-1.0)
        total = 2.0 + 2.0 * e1
        expect_sel = 1.0 / total
        expect_unsel = e1 / total
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        f = freqs.round_weights(ledger).interval
        np.testing.assert_allclose(f, [expect_sel, expect_sel, expect_unsel, expect_unsel], rtol=1e-15)
        assert f[0] == pytest.approx(0.36552928931500245, abs=1e-12)
        assert f[2] == pytest.approx(0.13447071068499755, abs=1e-12)
        assert f[0] < 0.5  # strictly below 1/K for K=2

    def test_all_selected_uniform(self):
        ledger = freqs.ClientLedger([7] * 5)
        ledger.record_round(range(5), 3)
        f = freqs.round_weights(ledger).interval
        np.testing.assert_allclose(f, 0.2, rtol=1e-15)

    def test_long_absence_tiny_but_positive(self):
        ledger = freqs.ClientLedger([10] * 10)
        ledger.record_round(range(10), 0)
        for t in range(1, 51):
            ledger.record_round(range(9), t)  # client 9 never again
        f = freqs.round_weights(ledger).interval
        assert 0.0 < f[9] < 1e-20

    def test_negative_round_rejected(self):
        ledger = freqs.ClientLedger([5, 5])
        ledger.record_round([0], 0)
        with pytest.raises(ParameterError, match="round must be >= 0"):
            ledger.record_round([0], -1)
        assert ledger.last_round.tolist() == [0, -1]
        assert ledger.part_counts.tolist() == [1, 0]


class TestParticipationFreqs:
    def test_half_half(self):
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        w = freqs.round_weights(ledger)
        np.testing.assert_allclose(w.participation, [0.5, 0.5, 0, 0])

    def test_equal_counts_uniform(self):
        ledger = freqs.ClientLedger([10] * 4)
        for t in range(4):
            ledger.record_round(range(4), t)
        np.testing.assert_allclose(freqs.round_weights(ledger).participation, 0.25)

    def test_before_any_round_rejected(self):
        # also in the modes whose teacher does not read participation
        ledger = freqs.ClientLedger([10] * 4)
        for mode in freqs.WEIGHT_MODES:
            with pytest.raises(ParameterError, match="before the first round"):
                freqs.round_weights(ledger, mode)

    def test_variance_decays_under_uniform_sampling(self):
        # matched pair of snapshots from one simulated sampling history
        rng = np.random.default_rng(99)
        ledger = freqs.ClientLedger(np.full(100, 50))
        var_at = {}
        for t in range(200):
            selected = rng.choice(100, size=10, replace=False)
            ledger.record_round(selected, t)
            if t + 1 in (10, 200):
                var_at[t + 1] = freqs.round_weights(ledger).participation.var()
        assert var_at[200] < var_at[10]


class TestVolumeFreqs:
    def test_equal_sizes(self):
        ledger = freqs.ClientLedger([100] * 4)
        ledger.record_round([1], 0)
        np.testing.assert_allclose(freqs.round_weights(ledger).volume, 0.25)

    def test_proportional(self):
        ledger = freqs.ClientLedger([10, 20, 30, 40])
        ledger.record_round([1], 0)
        w = freqs.round_weights(ledger)
        np.testing.assert_allclose(w.volume, [0.1, 0.2, 0.3, 0.4])

    def test_constant_across_rounds(self):
        ledger, _, _ = simulate_history(5, 8, 3, 150)
        before = freqs.round_weights(ledger).volume
        ledger.record_round([0], 150)
        assert np.array_equal(freqs.round_weights(ledger).volume, before)


class TestCombine:
    def setup_round_zero(self):
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        return ledger

    def test_tri_gm_round_zero_splits_between_participants(self):
        ledger = self.setup_round_zero()
        teacher = freqs.round_weights(ledger, "tri-gm").teacher
        np.testing.assert_allclose(teacher, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        # unequal volumes: the participants split by the cube root of the
        # frequency product (an arithmetic mean or a plain product would not)
        ledger = freqs.ClientLedger([10, 30, 10, 10])
        ledger.record_round([0, 1], 0)
        w = freqs.round_weights(ledger, "tri-gm")
        tri = [(w.interval[0] * 0.5 * n) ** (1.0 / 3.0) for n in (1 / 6, 3 / 6)]
        np.testing.assert_allclose(
            w.teacher, [tri[0] / sum(tri), tri[1] / sum(tri), 0.0, 0.0], rtol=1e-14
        )

    def test_uniform_inputs_uniform_output_all_modes(self):
        # everyone every round with equal data: all three frequencies uniform
        ledger = freqs.ClientLedger([10] * 6)
        for t in range(3):
            ledger.record_round(range(6), t)
        u = np.full(6, 1.0 / 6.0)
        for mode in freqs.WEIGHT_MODES:
            teacher = freqs.round_weights(ledger, mode).teacher
            np.testing.assert_allclose(teacher, u, rtol=1e-14)

    def test_num_mode_pass_through(self):
        # interval and participation frequencies differ across clients here
        ledger = freqs.ClientLedger([10, 20, 30, 40])
        ledger.record_round(range(4), 0)
        ledger.record_round([0], 1)
        teacher = freqs.round_weights(ledger, "num").teacher
        np.testing.assert_allclose(teacher, [0.1, 0.2, 0.3, 0.4], rtol=1e-15)

    def test_part_floor_lifts_zeros(self):
        ledger = self.setup_round_zero()
        teacher = freqs.round_weights(ledger, "tri-gm", part_floor=1e-3).teacher
        assert teacher[2] > 0.0

    @pytest.mark.parametrize("mode", freqs.WEIGHT_MODES)
    def test_list_inputs_match_arrays(self, mode):
        # sample counts and selected ids as lists, unsorted, or arrays
        a, b = freqs.ClientLedger([3, 5, 7]), freqs.ClientLedger(np.array([3, 5, 7]))
        for ledger in (a, b):
            ledger.record_round(np.array([1]), 0)
        a.record_round([2, 0], 1)
        b.record_round(np.array([0, 2]), 1)
        wa = freqs.round_weights(a, mode, part_floor=1e-3)
        wb = freqs.round_weights(b, mode, part_floor=1e-3)
        for field in dataclasses.fields(freqs.FreqWeights):
            assert np.array_equal(getattr(wa, field.name), getattr(wb, field.name))

    def test_unknown_mode_rejected(self):
        ledger = self.setup_round_zero()
        with pytest.raises(ConfigError, match="harmonic"):
            freqs.round_weights(ledger, "harmonic")

    def test_part_mode_honours_part_floor(self):
        # the floor lifts clients 2 and 3 in `part` as in the tri modes:
        # max(0.5, 0.1) twice and max(0, 0.1) twice, normalized
        ledger = self.setup_round_zero()
        w = freqs.round_weights(ledger, "part", part_floor=0.1)
        np.testing.assert_allclose(w.teacher, [5 / 12, 5 / 12, 1 / 12, 1 / 12], rtol=1e-15)
        assert w.participation.tolist() == [0.5, 0.5, 0.0, 0.0]  # reported unfloored


class TestStudentWeights:
    def test_proportional(self):
        ledger = freqs.ClientLedger([30, 70])
        ledger.record_round([0, 1], 0)
        np.testing.assert_allclose(freqs.round_weights(ledger).student, [0.3, 0.7])

    def test_single_client(self):
        ledger = freqs.ClientLedger([10, 20, 30])
        ledger.record_round([2], 0)
        np.testing.assert_allclose(freqs.round_weights(ledger).student, [1.0])

    def test_equal_sizes_uniform(self):
        ledger = freqs.ClientLedger([9, 9, 9, 9, 9])
        ledger.record_round([1, 3, 4], 0)
        np.testing.assert_allclose(freqs.round_weights(ledger).student, 1.0 / 3.0)

    @pytest.mark.parametrize(
        "selected,named",
        [
            ([-1], "outside"), ([1, 1], "duplicate"), ([4], "outside"), ([], "nonempty"),
            ([0.5, 1.2], "integers"), ([True], "integers"),
        ],
    )
    def test_bad_selected_rejected(self, selected, named):
        ledger = freqs.ClientLedger([10, 20, 30, 40])
        ledger.record_round([0, 1], 0)
        with pytest.raises(ConfigError, match=named):
            ledger.record_round(selected, 1)


def scalar_oracle(ledger, selected, t, mode, part_floor):
    """Every weight vector of ``round_weights``, one client at a time, from
    the paper's formulas: exp(-(t - t_k)), c_k / sum c and n_k / sum n."""
    last, counts, sizes = (v.tolist() for v in (ledger.last_round, ledger.part_counts, ledger.sample_counts))
    intv = [math.exp(-(t - t_k)) for t_k in last]
    intv = [v / sum(intv) for v in intv]
    part = [c / sum(counts) for c in counts]
    num = [n / sum(sizes) for n in sizes]
    floored = [max(p, part_floor) for p in part]
    if mode == "tri-gm":
        tri = [(i * p * n) ** (1.0 / 3.0) for i, p, n in zip(intv, floored, num)]
    elif mode == "tri-am":
        tri = [(i + p + n) / 3.0 for i, p, n in zip(intv, floored, num)]
    else:
        tri = {"intv": intv, "part": floored, "num": num}[mode]
    teacher = [v / sum(tri) for v in tri]
    student = [sizes[k] / sum(sizes[j] for j in selected) for k in sorted(selected)]
    return intv, part, num, teacher, student


class TestRoundWeightsOracle:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 30),
        st.integers(1, 40),
        st.sampled_from(freqs.WEIGHT_MODES),
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_oracle(self, seed, n_clients, n_rounds, mode, part_floor):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n_clients + 1))
        ledger, selected, t = simulate_history(seed, n_clients, k, n_rounds)
        w = freqs.round_weights(ledger, mode, part_floor)
        expect = scalar_oracle(ledger, [int(c) for c in selected], t, mode, part_floor)
        for got, want in zip((w.interval, w.participation, w.volume, w.teacher, w.student), expect):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestRoundWeightsProperties:
    @given(
        st.integers(0, 10_000),
        st.integers(4, 40),
        st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_over_random_histories(self, seed, n_clients, n_rounds):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n_clients + 1))
        ledger, selected, t = simulate_history(seed, n_clients, k, n_rounds)
        w = freqs.round_weights(ledger)
        for vec in (w.interval, w.volume, w.teacher, w.student):
            assert abs(vec.sum() - 1.0) < 1e-9
        assert abs(w.participation.sum() - 1.0) < 1e-9
        # interval bound: strict below 1/K whenever some client sat out
        assert (w.interval > 0).all()
        if k < n_clients:
            assert (w.interval < 1.0 / k).all()
        else:
            np.testing.assert_allclose(w.interval, 1.0 / k, rtol=1e-12)
        # literal geometric mean: never-participated clients get exactly zero
        never = ledger.part_counts == 0
        assert (w.teacher[never] == 0.0).all()

    def test_full_participation_equal_data_reverts_to_fedavg(self):
        # with everyone selected every round and equal volumes, teacher
        # weights coincide with the all-client FedAvg weights
        ledger = freqs.ClientLedger([25] * 4)
        for t in range(5):
            ledger.record_round(range(4), t)
        w = freqs.round_weights(ledger)
        np.testing.assert_allclose(w.teacher, w.volume, rtol=1e-12)
        np.testing.assert_allclose(w.teacher, w.student, rtol=1e-12)

    def test_full_participation_unequal_data_follows_cbrt_volume(self):
        # interval and participation freqs go uniform, so the geometric mean
        # leaves teacher weights proportional to the cube root of volume
        sizes = np.array([10.0, 25.0, 40.0, 25.0])
        ledger = freqs.ClientLedger(sizes.astype(int))
        for t in range(5):
            ledger.record_round(range(4), t)
        w = freqs.round_weights(ledger)
        expect = np.cbrt(sizes / sizes.sum())
        np.testing.assert_allclose(w.teacher, expect / expect.sum(), rtol=1e-12)

    def test_scale_invariance_of_volume(self):
        ledger_a = freqs.ClientLedger([3, 6, 9])
        ledger_b = freqs.ClientLedger([300, 600, 900])
        for ledger in (ledger_a, ledger_b):
            ledger.record_round([0, 2], 0)
        wa = freqs.round_weights(ledger_a)
        wb = freqs.round_weights(ledger_b)
        assert np.abs(wa.volume - wb.volume).max() < 1e-12
        assert np.abs(wa.teacher - wb.teacher).max() < 1e-12
        assert np.abs(wa.student - wb.student).max() < 1e-12

    def test_weights_before_first_round_rejected(self):
        ledger = freqs.ClientLedger([10] * 4)
        with pytest.raises(ParameterError):
            freqs.round_weights(ledger)
