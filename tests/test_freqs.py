import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdia import freqs
from kdia.errors import ConfigError, ParameterError, ProtocolError


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


class TestIntervalFreqs:
    def test_hand_evaluated_first_round(self):
        # direct evaluation: exp(0) twice, exp(-1) twice
        e1 = math.exp(-1.0)
        total = 2.0 + 2.0 * e1
        expect_sel = 1.0 / total
        expect_unsel = e1 / total
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        f = ledger.interval_freqs(0)
        np.testing.assert_allclose(f, [expect_sel, expect_sel, expect_unsel, expect_unsel], rtol=1e-15)
        assert f[0] == pytest.approx(0.36552928931500245, abs=1e-12)
        assert f[2] == pytest.approx(0.13447071068499755, abs=1e-12)
        assert f[0] < 0.5  # strictly below 1/K for K=2

    def test_all_selected_uniform(self):
        ledger = freqs.ClientLedger([7] * 5)
        ledger.record_round(range(5), 3)
        np.testing.assert_allclose(ledger.interval_freqs(3), 0.2, rtol=1e-15)

    def test_long_absence_tiny_but_positive(self):
        ledger = freqs.ClientLedger([10] * 10)
        ledger.record_round(range(10), 0)
        for t in range(1, 51):
            ledger.record_round(range(9), t)  # client 9 never again
        f = ledger.interval_freqs(50)
        assert 0.0 < f[9] < 1e-20

    def test_negative_round_rejected(self):
        ledger = freqs.ClientLedger([5, 5])
        with pytest.raises(ParameterError):
            ledger.interval_freqs(-1)


class TestParticipationFreqs:
    def test_half_half(self):
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        np.testing.assert_allclose(ledger.participation_freqs(), [0.5, 0.5, 0, 0])

    def test_equal_counts_uniform(self):
        ledger = freqs.ClientLedger([10] * 4)
        for t in range(4):
            ledger.record_round(range(4), t)
        np.testing.assert_allclose(ledger.participation_freqs(), 0.25)

    def test_before_any_round_rejected(self):
        ledger = freqs.ClientLedger([10] * 4)
        with pytest.raises(ParameterError):
            ledger.participation_freqs()

    def test_variance_decays_under_uniform_sampling(self):
        # matched pair of snapshots from one simulated sampling history
        rng = np.random.default_rng(99)
        ledger = freqs.ClientLedger(np.full(100, 50))
        var_at = {}
        for t in range(200):
            ledger.record_round(rng.choice(100, size=10, replace=False), t)
            if t + 1 in (10, 200):
                var_at[t + 1] = ledger.participation_freqs().var()
        assert var_at[200] < var_at[10]


class TestVolumeFreqs:
    def test_equal_sizes(self):
        ledger = freqs.ClientLedger([100] * 4)
        np.testing.assert_allclose(ledger.volume_freqs(), 0.25)

    def test_proportional(self):
        ledger = freqs.ClientLedger([10, 20, 30, 40])
        np.testing.assert_allclose(ledger.volume_freqs(), [0.1, 0.2, 0.3, 0.4])

    def test_constant_across_rounds(self):
        ledger, _, _ = simulate_history(5, 8, 3, 150)
        before = ledger.volume_freqs()
        ledger.record_round([0], 150)
        assert np.array_equal(ledger.volume_freqs(), before)


class TestCombine:
    def setup_round_zero(self):
        ledger = freqs.ClientLedger([10] * 4)
        ledger.record_round([0, 1], 0)
        return ledger

    def test_tri_gm_round_zero_splits_between_participants(self):
        ledger = self.setup_round_zero()
        teacher = freqs.combine_freqs(
            ledger.interval_freqs(0),
            ledger.participation_freqs(),
            ledger.volume_freqs(),
            "tri-gm",
        )
        np.testing.assert_allclose(teacher, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        # unequal volumes: the participants split by the cube root of the
        # frequency product (an arithmetic mean or a plain product would not)
        ledger = freqs.ClientLedger([10, 30, 10, 10])
        ledger.record_round([0, 1], 0)
        f_intv = ledger.interval_freqs(0)
        teacher = freqs.combine_freqs(
            f_intv, ledger.participation_freqs(), ledger.volume_freqs(), "tri-gm"
        )
        tri = [(f_intv[0] * 0.5 * n) ** (1.0 / 3.0) for n in (1 / 6, 3 / 6)]
        np.testing.assert_allclose(
            teacher, [tri[0] / sum(tri), tri[1] / sum(tri), 0.0, 0.0], rtol=1e-14
        )

    def test_uniform_inputs_uniform_output_all_modes(self):
        u = np.full(6, 1.0 / 6.0)
        for mode in freqs.WEIGHT_MODES:
            teacher = freqs.combine_freqs(u, u, u, mode)
            np.testing.assert_allclose(teacher, u, rtol=1e-14)

    def test_num_mode_pass_through(self):
        f_num = np.array([0.1, 0.2, 0.3, 0.4])
        other = np.array([0.25, 0.25, 0.25, 0.25])
        teacher = freqs.combine_freqs(other, other, f_num, "num")
        np.testing.assert_allclose(teacher, f_num, rtol=1e-15)

    def test_part_floor_lifts_zeros(self):
        ledger = self.setup_round_zero()
        teacher = freqs.combine_freqs(
            ledger.interval_freqs(0),
            ledger.participation_freqs(),
            ledger.volume_freqs(),
            "tri-gm",
            part_floor=1e-3,
        )
        assert teacher[2] > 0.0

    @pytest.mark.parametrize("mode", freqs.WEIGHT_MODES)
    def test_list_inputs_match_arrays(self, mode):
        f = ([0.1, 0.2, 0.7], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4])
        expect = freqs.combine_freqs(*map(np.array, f), mode, part_floor=1e-3)
        assert np.array_equal(freqs.combine_freqs(*f, mode, part_floor=1e-3), expect)

    @pytest.mark.parametrize("bad", [np.nan, -0.1])
    @pytest.mark.parametrize("slot,name", [(0, "intv"), (1, "part"), (2, "num")])
    def test_nan_or_negative_entry_names_vector(self, bad, slot, name):
        vectors = [np.full(3, 1 / 3) for _ in range(3)]
        vectors[slot][1] = bad
        with pytest.raises(ConfigError, match=f"in {name} frequencies"):
            freqs.combine_freqs(*vectors, "tri-gm")

    def test_unknown_mode_rejected(self):
        u = np.full(3, 1 / 3)
        with pytest.raises(ConfigError):
            freqs.combine_freqs(u, u, u, "harmonic")

    def test_all_zero_tri_rejected(self):
        z = np.zeros(3)
        with pytest.raises(ProtocolError):
            freqs.combine_freqs(z, z, z, "tri-gm")


class TestStudentWeights:
    def test_proportional(self):
        np.testing.assert_allclose(
            freqs.student_weights([0, 1], [30, 70]), [0.3, 0.7]
        )

    def test_single_client(self):
        np.testing.assert_allclose(freqs.student_weights([2], [10, 20, 30]), [1.0])

    def test_equal_sizes_uniform(self):
        np.testing.assert_allclose(
            freqs.student_weights([1, 3, 4], [9, 9, 9, 9, 9]), 1.0 / 3.0
        )


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
        w = freqs.round_weights(ledger, selected, t)
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
        w = freqs.round_weights(ledger, range(4), 4)
        np.testing.assert_allclose(w.teacher, w.volume, rtol=1e-12)
        np.testing.assert_allclose(w.teacher, w.student, rtol=1e-12)

    def test_full_participation_unequal_data_follows_cbrt_volume(self):
        # interval and participation freqs go uniform, so the geometric mean
        # leaves teacher weights proportional to the cube root of volume
        sizes = np.array([10.0, 25.0, 40.0, 25.0])
        ledger = freqs.ClientLedger(sizes.astype(int))
        for t in range(5):
            ledger.record_round(range(4), t)
        w = freqs.round_weights(ledger, range(4), 4)
        expect = np.cbrt(sizes / sizes.sum())
        np.testing.assert_allclose(w.teacher, expect / expect.sum(), rtol=1e-12)

    def test_scale_invariance_of_volume(self):
        ledger_a = freqs.ClientLedger([3, 6, 9])
        ledger_b = freqs.ClientLedger([300, 600, 900])
        for ledger in (ledger_a, ledger_b):
            ledger.record_round([0, 2], 0)
        wa = freqs.round_weights(ledger_a, [0, 2], 0)
        wb = freqs.round_weights(ledger_b, [0, 2], 0)
        assert np.abs(wa.volume - wb.volume).max() < 1e-12
        assert np.abs(wa.teacher - wb.teacher).max() < 1e-12
        assert np.abs(wa.student - wb.student).max() < 1e-12

    def test_weights_before_first_round_rejected(self):
        ledger = freqs.ClientLedger([10] * 4)
        with pytest.raises(ParameterError):
            freqs.round_weights(ledger, [0], 0)
