import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_model
from kdia import aggregate, nn
from kdia.errors import ProtocolError, ShapeError


def scalar_loop_aggregate(models, weights):
    """Independent oracle: accumulate every scalar parameter one by one."""
    layers = []
    for li in range(len(models[0].layers)):
        w0, b0 = models[0].layers[li]
        w_out = np.zeros_like(w0)
        b_out = np.zeros_like(b0)
        for r in range(w0.shape[0]):
            for c in range(w0.shape[1]):
                acc = 0.0
                for m, wt in zip(models, weights):
                    acc += wt * m.layers[li][0][r, c]
                w_out[r, c] = acc
        for j in range(b0.shape[0]):
            acc = 0.0
            for m, wt in zip(models, weights):
                acc += wt * m.layers[li][1][j]
            b_out[j] = acc
        layers.append((w_out, b_out))
    return nn.ModelParams(layers, models[0].split_index)


def sequential_sum(rows, weights):
    """The full loop over every row in order, zero weights included."""
    out = weights[0] * rows[0]
    for row, wt in zip(rows[1:], weights[1:]):
        out += wt * row
    return out


def random_weights(rng, n):
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()


class TestRegistry:
    def test_init_copies_theta0(self):
        theta0 = make_random_model(1, [3, 5, 2], 1)
        reg = aggregate.ModelRegistry(theta0, 3)
        assert reg.stored.shape == (3, theta0.flat.size)
        for row in reg.stored:
            assert np.array_equal(row, theta0.flat)
        assert not np.shares_memory(reg.stored, theta0.flat)

    def test_update_isolates_other_entries(self):
        theta0 = make_random_model(2, [3, 5, 2], 1)
        reg = aggregate.ModelRegistry(theta0, 3)
        fresh = make_random_model(9, [3, 5, 2], 1)
        reg.update(1, fresh)
        assert np.array_equal(reg.stored[1], fresh.flat)
        assert np.array_equal(reg.stored[0], theta0.flat)
        assert np.array_equal(reg.stored[2], theta0.flat)

    def test_update_copies_input(self):
        theta0 = make_random_model(3, [3, 4], 1)
        reg = aggregate.ModelRegistry(theta0, 2)
        fresh = make_random_model(4, [3, 4], 1)
        reg.update(0, fresh)
        stored = fresh.flat.copy()
        fresh.layers[0][0][0, 0] += 1.0
        assert np.array_equal(reg.stored[0], stored)
        assert not np.array_equal(reg.stored[0], fresh.flat)

    def test_update_shape_mismatch_rejected(self):
        reg = aggregate.ModelRegistry(make_random_model(5, [3, 4], 1), 2)
        with pytest.raises(ShapeError):
            reg.update(0, make_random_model(6, [3, 5], 1))
        # same parameter count, different extractor/classifier split
        with pytest.raises(ShapeError):
            reg.update(0, make_random_model(6, [3, 4], 0))

    def test_fresh_registry_aggregates_to_theta0(self):
        theta0 = make_random_model(7, [4, 6, 3], 1)
        reg = aggregate.ModelRegistry(theta0, 4)
        out = aggregate.aggregate_teacher(reg, random_weights(np.random.default_rng(0), 4))
        for (w, b), (ow, ob) in zip(theta0.layers, out.layers):
            assert np.abs(w - ow).max() < 1e-15
            assert np.abs(b - ob).max() < 1e-15


class TestWeightedAggregate:
    def test_identical_models_fixed_point(self):
        model = make_random_model(11, [3, 5, 2], 1)
        out = aggregate.weighted_aggregate(
            [model, model, model], [0.2, 0.5, 0.3]
        )
        for (w, b), (ow, ob) in zip(model.layers, out.layers):
            assert np.abs(w - ow).max() < 1e-15
            assert np.abs(b - ob).max() < 1e-15

    def test_two_scalar_models(self):
        a = nn.ModelParams([(np.array([[0.0]]), np.zeros(1))], 0)
        b = nn.ModelParams([(np.array([[1.0]]), np.zeros(1))], 0)
        out = aggregate.weighted_aggregate([a, b], [0.3, 0.7])
        assert out.layers[0][0][0, 0] == pytest.approx(0.7, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(13)
        models = [make_random_model(100 + i, [3, 4, 2], 1) for i in range(5)]
        weights = random_weights(rng, 5)
        fast = aggregate.weighted_aggregate(models, weights)
        slow = scalar_loop_aggregate(models, weights)
        for (fw, fb), (sw, sb) in zip(fast.layers, slow.layers):
            assert np.abs(fw - sw).max() < 1e-12
            assert np.abs(fb - sb).max() < 1e-12

    def test_weight_sum_violation_rejected(self):
        models = [make_random_model(20, [2, 3], 1)] * 2
        with pytest.raises(ProtocolError):
            aggregate.weighted_aggregate(models, [0.5, 0.6])

    @pytest.mark.parametrize(
        "weights,named",
        [([np.nan, 0.5, 0.5], "weight 0"), ([-1.0, 1.0, 1.0], "weight 0"),
         ([0.5, 0.5, -0.0, np.inf], "weight 3")],
    )
    def test_non_convex_weights_rejected_naming_index(self, weights, named):
        reg = aggregate.ModelRegistry(make_random_model(22, [2, 3], 1), len(weights))
        with pytest.raises(ProtocolError, match=f"^{named} is"):
            aggregate.aggregate_teacher(reg, weights)

    def test_length_mismatch_rejected(self):
        models = [make_random_model(21, [2, 3], 1)] * 2
        with pytest.raises(ShapeError):
            aggregate.weighted_aggregate(models, [1.0])

    def test_architecture_mismatch_rejected(self):
        models = [make_random_model(33, [4, 6, 3], 1), make_random_model(34, [4, 6, 4], 1)]
        with pytest.raises(ShapeError):
            aggregate.weighted_aggregate(models, [0.5, 0.5])

    def test_inputs_not_mutated(self):
        models = [make_random_model(30 + i, [2, 3], 1) for i in range(3)]
        before = [m.copy() for m in models]
        aggregate.weighted_aggregate(models, [0.2, 0.3, 0.5])
        for m, b in zip(models, before):
            assert nn.params_equal(m, b)

    @given(st.integers(0, 5000), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_affine_equivariance_and_convexity(self, seed, n_models):
        rng = np.random.default_rng(seed)
        models = [make_random_model(seed * 7 + i, [2, 3], 1) for i in range(n_models)]
        weights = random_weights(rng, n_models)
        out = aggregate.weighted_aggregate(models, weights)
        shift = 0.73
        shifted = [
            nn.ModelParams([(w + shift, b + shift) for w, b in m.layers], 1)
            for m in models
        ]
        out_shifted = aggregate.weighted_aggregate(shifted, weights)
        for (w, b), (sw, sb) in zip(out.layers, out_shifted.layers):
            assert np.abs(sw - (w + shift)).max() < 1e-12
            assert np.abs(sb - (b + shift)).max() < 1e-12
        # convexity: every aggregated entry inside the input range
        for li in range(len(out.layers)):
            stack = np.stack([m.layers[li][0] for m in models])
            assert (out.layers[li][0] >= stack.min(axis=0) - 1e-12).all()
            assert (out.layers[li][0] <= stack.max(axis=0) + 1e-12).all()


class TestTeacherStudentAggregates:
    def test_round_zero_teacher_mean_of_participants(self):
        # TriGM weights [0.5, 0.5, 0, 0]: stale snapshots contribute nothing
        theta0 = make_random_model(40, [3, 4, 2], 1)
        reg = aggregate.ModelRegistry(theta0, 4)
        upd0 = make_random_model(41, [3, 4, 2], 1)
        upd1 = make_random_model(42, [3, 4, 2], 1)
        reg.update(0, upd0)
        reg.update(1, upd1)
        teacher = aggregate.aggregate_teacher(reg, [0.5, 0.5, 0.0, 0.0])
        oracle = scalar_loop_aggregate([upd0, upd1], [0.5, 0.5])
        for (tw, tb), (ow, ob) in zip(teacher.layers, oracle.layers):
            assert np.abs(tw - ow).max() < 1e-12
            assert np.abs(tb - ob).max() < 1e-12

    def test_full_participation_equal_data_teacher_equals_student(self):
        models = [make_random_model(50 + i, [3, 4, 2], 1) for i in range(4)]
        reg = aggregate.ModelRegistry(models[0], 4)
        for k, m in enumerate(models):
            reg.update(k, m)
        uniform = np.full(4, 0.25)
        teacher = aggregate.aggregate_teacher(reg, uniform)
        student = aggregate.aggregate_student(models, uniform)
        for (tw, tb), (sw, sb) in zip(teacher.layers, student.layers):
            assert np.abs(tw - sw).max() < 1e-12
            assert np.abs(tb - sb).max() < 1e-12

    def test_one_hot_weights_return_stored_snapshot(self):
        theta0 = make_random_model(60, [3, 4], 1)
        reg = aggregate.ModelRegistry(theta0, 3)
        target = make_random_model(61, [3, 4], 1)
        reg.update(2, target)
        teacher = aggregate.aggregate_teacher(reg, [0.0, 0.0, 1.0])
        for (tw, tb), (gw, gb) in zip(teacher.layers, target.layers):
            assert np.abs(tw - gw).max() < 1e-15
            assert np.abs(tb - gb).max() < 1e-15

    @given(st.integers(0, 10_000), st.integers(1, 30), st.integers(1, 40), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_sequential_loop_bitwise(self, seed, n, cols, zero_share):
        rng = np.random.default_rng(seed)
        reg = aggregate.ModelRegistry(
            nn.ModelParams([(np.zeros((1, cols)), np.zeros(cols))], 1), n
        )
        reg.stored[:] = rng.normal(size=reg.stored.shape)
        reg.stored[rng.random(reg.stored.shape) < 0.1] = 0.0
        weights = rng.uniform(0.05, 1.0, size=n)
        weights[rng.random(n) < zero_share] = 0.0
        weights[rng.integers(n)] = 0.5
        weights /= weights.sum()
        teacher = aggregate.aggregate_teacher(reg, weights).flat
        # skipped zero-weight rows only change the sign of exact zeros
        assert np.array_equal(
            (teacher + 0.0).view(np.int64),
            (sequential_sum(reg.stored, weights) + 0.0).view(np.int64),
        )

    def test_zero_weight_inf_row_leaves_teacher_finite(self):
        theta0 = make_random_model(65, [3, 4, 2], 1)
        reg = aggregate.ModelRegistry(theta0, 3)
        reg.stored[1, 0] = np.inf
        teacher = aggregate.aggregate_teacher(reg, [0.5, 0.0, 0.5])
        assert np.isfinite(teacher.flat).all()

    def test_aggregation_never_mutates_registry(self):
        theta0 = make_random_model(70, [3, 4], 1)
        reg = aggregate.ModelRegistry(theta0, 3)
        before = reg.stored.copy()
        aggregate.aggregate_teacher(reg, [0.1, 0.4, 0.5])
        assert np.array_equal(reg.stored, before)
