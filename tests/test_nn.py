import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_random_model, params_equal
from kdia import nn
from kdia.errors import ParameterError, ProtocolError, ShapeError
from kdia.gradcheck import fd_array_grad, fd_model_grads, max_relative_error


def scalar_forward(layers, batch):
    """Pure-python oracle: walk the same weights with scalar arithmetic."""
    out = []
    for row in batch:
        x = [float(v) for v in row]
        for li, (w, b) in enumerate(layers):
            z = []
            for j in range(len(b)):
                s = float(b[j])
                for i, xi in enumerate(x):
                    s += xi * float(w[i][j])
                z.append(s)
            x = [max(v, 0.0) for v in z] if li < len(layers) - 1 else z
        out.append(x)
    return np.array(out)


class TestForward:
    def test_zero_model_gives_zero_logits(self):
        params = nn.ModelParams([(np.zeros((3, 4)), np.zeros(4))], 0)
        batch = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(nn.forward(params, batch), np.zeros((2, 4)))

    def test_identity_single_layer(self):
        params = nn.ModelParams([(np.eye(3), np.zeros(3))], 0)
        batch = np.array([[1.0, -2.0, 0.5], [4.0, 0.0, -1.0]])
        assert np.array_equal(nn.forward(params, batch), batch)

    def test_two_layer_relu_matches_scalar_oracle(self):
        w0 = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])
        b0 = np.array([0.1, -0.2, 0.0])
        w1 = np.array([[1.0, -2.0], [0.5, 0.5], [-1.0, 3.0]])
        b1 = np.array([-0.3, 0.4])
        params = nn.ModelParams([(w0, b0), (w1, b1)], 1)
        batch = np.array([[1.0, -1.0], [0.5, 2.0]])
        expected = scalar_forward(params.layers, batch)
        np.testing.assert_allclose(nn.forward(params, batch), expected, rtol=1e-14)

    def test_classifier_only_path_matches_split(self):
        params = make_random_model(7, [4, 6, 3], split_index=1)
        batch = np.random.default_rng(8).normal(size=(5, 4))
        feats = nn.extract_features(params, batch)
        full = nn.forward(params, batch)
        via_classifier = nn.forward(params, feats, from_classifier_only=True)
        np.testing.assert_allclose(via_classifier, full, rtol=1e-15)

    def test_forward_is_pure(self):
        params = make_random_model(3, [5, 8, 4], split_index=1)
        batch = np.random.default_rng(4).normal(size=(6, 5))
        a = nn.forward(params, batch)
        b = nn.forward(params, batch)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_names_layer(self):
        params = make_random_model(1, [4, 6, 3], split_index=1)
        with pytest.raises(ShapeError, match="layer 0"):
            nn.forward(params, np.zeros((2, 5)))
        with pytest.raises(ShapeError, match="layer 1"):
            nn.forward(params, np.zeros((2, 5)), from_classifier_only=True)


class TestSoftmaxCE:
    def test_uniform_logits_hard_label_ln_c(self):
        logits = np.ones((4, 10)) * 3.7
        labels = np.array([0, 3, 9, 5])
        loss, _ = nn.softmax_ce_loss(logits, labels)
        assert loss == pytest.approx(math.log(10), abs=1e-12)
        assert loss == pytest.approx(2.302585, abs=1e-6)

    def test_gradient_zero_against_own_distribution(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(5, 7))
        targets = nn.softmax(logits, temperature=2.0)
        _, grad = nn.softmax_ce_loss(logits, targets, temperature=2.0)
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        _, grad = nn.softmax_ce_loss(logits, labels, temperature=2.0)
        numeric = fd_array_grad(
            lambda x: nn.softmax_ce_loss(x, labels, temperature=2.0)[0], logits
        )
        assert max_relative_error(grad, numeric) < 1e-6

    def test_soft_target_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(size=(4, 5))
        raw = rng.uniform(0.05, 1.0, size=(4, 5))
        targets = raw / raw.sum(axis=1, keepdims=True)
        _, grad = nn.softmax_ce_loss(logits, targets, temperature=0.7)
        numeric = fd_array_grad(
            lambda x: nn.softmax_ce_loss(x, targets, temperature=0.7)[0], logits
        )
        assert max_relative_error(grad, numeric) < 1e-6

    def test_bad_temperature_rejected(self):
        with pytest.raises(ParameterError):
            nn.softmax_ce_loss(np.ones((2, 3)), np.array([0, 1]), temperature=0.0)
        with pytest.raises(ParameterError):
            nn.softmax(np.ones((2, 3)), temperature=-1.0)

    def test_non_normalized_target_rows_rejected(self):
        bad = np.full((2, 4), 0.3)
        with pytest.raises(ParameterError):
            nn.softmax_ce_loss(np.zeros((2, 4)), bad)

    def test_float_labels_rejected(self):
        # they would be truncated to [1, 0]
        with pytest.raises(ParameterError, match="integers"):
            nn.softmax_ce_loss(np.zeros((2, 3)), np.array([1.7, 0.2]))

    def test_bool_labels_rejected(self):
        with pytest.raises(ParameterError, match="integers"):
            nn.softmax_ce_loss(np.zeros((2, 3)), np.array([True, False]))

    def test_nan_target_row_rejected(self):
        rows = np.array([[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]])
        with pytest.raises(ParameterError):
            nn.softmax_ce_loss(np.zeros((2, 3)), rows)

    def test_infinite_target_row_rejected(self):
        rows = np.array([[0.5, 0.5, 0.0], [np.inf, 0.0, 0.0]])
        with pytest.raises(ParameterError):
            nn.softmax_ce_loss(np.zeros((2, 3)), rows)

    def test_negative_target_row_rejected(self):
        # sums to 1, but is no distribution
        with pytest.raises(ParameterError, match="non-negative"):
            nn.softmax_ce_loss(np.zeros((1, 3)), np.array([[1.5, -0.5, 0.0]]))

    @pytest.mark.parametrize("targets", [np.array([], dtype=np.int64), np.zeros((0, 3))])
    def test_empty_batch_is_shape_error(self, targets):
        with pytest.raises(ShapeError, match="empty batch"):
            nn.softmax_ce_loss(np.zeros((0, 3)), targets)

    def test_target_rows_one_hot_and_passthrough(self):
        np.testing.assert_array_equal(
            nn.target_rows(np.array([2, 0], dtype=np.uint8), 2, 3),
            [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        probs = nn.softmax(np.random.default_rng(0).normal(size=(4, 5)))
        np.testing.assert_array_equal(nn.target_rows(probs, 4, 5), probs)

    @pytest.mark.parametrize("temperature", [0.3, 1.0, 2.0, 3.0, 7.1])
    def test_shared_row_max_matches_textbook_bitwise(self, temperature):
        # max-shift after tempering, as written in textbooks; the kernel
        # tempers the untempered row max instead
        rng = np.random.default_rng(23)
        logits = rng.normal(scale=5.0, size=(64, 10))
        rows = nn.softmax(rng.normal(size=(64, 10)), 2.0)
        z = logits / temperature
        z = z - z.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss = float(-(rows * log_probs).sum() / 64)
        grad = (np.exp(log_probs) - rows) / (64 * temperature)
        got = nn.tempered_ce(logits, rows, temperature, logits.max(axis=1))
        assert got[0] == loss
        np.testing.assert_array_equal(got[1], grad)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_sum_to_one(self, seed, temperature):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=30.0, size=(4, 6))
        probs = nn.softmax(logits, temperature)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hard_label_ce_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(3, 8))
        labels = rng.integers(0, 8, size=3)
        loss, _ = nn.softmax_ce_loss(logits, labels)
        assert loss >= 0.0


class TestBackward:
    def test_zero_grad_logits_gives_zero_grads(self):
        params = make_random_model(5, [3, 5, 2], split_index=1)
        batch = np.random.default_rng(6).normal(size=(4, 3))
        grads = nn.backward(params, batch, np.zeros((4, 2)))
        assert grads.shape == params.flat.shape
        assert not grads.any()

    def test_single_linear_layer_closed_form(self):
        # loss = sum of logits -> grad_logits = ones
        params = make_random_model(9, [3, 4], split_index=1)
        batch = np.random.default_rng(10).normal(size=(5, 3))
        grads = nn.backward(params, batch, np.ones((5, 4)))
        # flat order: the row-major 3x4 weight, then the bias
        np.testing.assert_allclose(
            grads[:12].reshape(3, 4), batch.T @ np.ones((5, 4))
        )
        np.testing.assert_allclose(grads[12:], np.full(4, 5.0))

    @pytest.mark.parametrize(
        "widths,split",
        [
            ([3, 5, 2], 1),
            ([4, 8, 6, 3], 2),
            # the exact task-model and generator shapes used by the simulator
            ([32, 16, 10], 1),
            ([32, 64, 10], 1),
            ([110, 64, 16], 0),
        ],
    )
    def test_matches_finite_differences(self, widths, split):
        params = make_random_model(sum(widths), widths, split)
        rng = np.random.default_rng(31)
        batch = rng.normal(size=(6, widths[0]))
        labels = rng.integers(0, widths[-1], size=6)

        def loss_fn(p):
            return nn.softmax_ce_loss(nn.forward(p, batch), labels)[0]

        _, grad_logits = nn.softmax_ce_loss(nn.forward(params, batch), labels)
        analytic = nn.backward(params, batch, grad_logits)
        numeric = fd_model_grads(loss_fn, params)
        assert numeric.shape == analytic.shape
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_classifier_only_grads_match_fd_tail(self):
        params = make_random_model(17, [4, 6, 5, 3], split_index=1)
        rng = np.random.default_rng(18)
        feats = np.abs(rng.normal(size=(5, 6)))
        labels = rng.integers(0, 3, size=5)

        def loss_fn(p):
            logits = nn.forward(p, feats, from_classifier_only=True)
            return nn.softmax_ce_loss(logits, labels)[0]

        logits = nn.forward(params, feats, from_classifier_only=True)
        _, grad_logits = nn.softmax_ce_loss(logits, labels)
        grads = nn.backward(params, feats, grad_logits, from_classifier_only=True)
        n_head = 6 * 5 + 5 + 5 * 3 + 3  # the two classifier layers only
        assert grads.shape == (n_head,)
        numeric = fd_model_grads(loss_fn, params)
        # the extractor takes no part, and the classifier is the flat tail
        assert not numeric[:-n_head].any()
        assert max_relative_error(grads, numeric[-n_head:]) < 1e-4

    def test_non_finite_gradient_raises(self):
        params = make_random_model(19, [3, 5, 2], split_index=1)
        batch = np.random.default_rng(20).normal(size=(4, 3))
        grad_logits = np.zeros((4, 2))
        grad_logits[1, 0] = np.nan
        with pytest.raises(ArithmeticError, match="backward"):
            nn.backward(params, batch, grad_logits)

    def test_shape_mismatch_rejected(self):
        params = make_random_model(2, [3, 4], split_index=1)
        with pytest.raises(ShapeError):
            nn.backward(params, np.zeros((2, 3)), np.zeros((2, 5)))


class TestOptimizerStep:
    def test_zero_gradient_no_op(self):
        params = make_random_model(41, [3, 4], split_index=1)
        before = params.copy()
        state = nn.sgd_state(params, learning_rate=0.1)
        nn.optimizer_step(params, np.zeros_like(params.flat), state)
        assert params_equal(params, before)

    def test_single_sgd_step_scalar(self):
        params = nn.ModelParams([(np.array([[1.0]]), np.zeros(1))], 0)
        state = nn.sgd_state(params, learning_rate=0.1)
        nn.optimizer_step(params, np.array([1.0, 0.0]), state)
        assert params.layers[0][0][0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_momentum_trajectory_matches_scalar_oracle(self):
        # bit-equal: the in-place step keeps the oracle's operation order
        # minimize 0.5 * theta^2 from theta = 1 with eta=0.2, m=0.9, wd=0.01
        eta, mom, wd = 0.2, 0.9, 0.01
        theta, vel = 1.0, 0.0
        trajectory = []
        for _ in range(5):
            vel = mom * vel + theta + wd * theta
            theta = theta - eta * vel
            trajectory.append(theta)

        params = nn.ModelParams([(np.array([[1.0]]), np.zeros(1))], 0)
        state = nn.sgd_state(params, eta, momentum=mom, weight_decay=wd)
        for expect in trajectory:
            g = np.array([params.layers[0][0][0, 0], 0.0])  # grad of 0.5 theta^2 is theta
            nn.optimizer_step(params, g, state)
            assert params.layers[0][0][0, 0] == expect

    def test_adam_matches_textbook_bias_correction(self):
        # per-step bias-corrected moments, as in the Adam paper
        lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
        theta = np.array([2.0, -0.5, 0.3])
        m = np.zeros(3)
        v = np.zeros(3)
        params = nn.ModelParams([(theta.reshape(1, 3), np.zeros(3))], 0)
        state = nn.adam_state(params, lr, weight_decay=wd)
        for t in range(1, 51):
            g = np.concatenate([np.sin(3.0 * theta), np.zeros(3)])
            nn.optimizer_step(params, g, state)
            gd = g[:3] + wd * theta
            m = b1 * m + (1.0 - b1) * gd
            v = b2 * v + (1.0 - b2) * gd**2
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(params.layers[0][0][0], theta, rtol=1e-12)
        assert state.step_count == 50

    def test_adam_decreases_quadratic(self):
        params = nn.ModelParams([(np.array([[2.0]]), np.zeros(1))], 0)
        state = nn.adam_state(params, learning_rate=0.05)
        for _ in range(50):
            g = np.array([params.layers[0][0][0, 0], 0.0])
            nn.optimizer_step(params, g, state)
        assert abs(params.layers[0][0][0, 0]) < 1.0
        assert state.step_count == 50

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_updates_only_what_it_is_given(self, kind):
        params = make_random_model(51, [3, 4], split_index=1)
        other = params.copy()
        before = params.copy()
        if kind == "sgd":
            state = nn.sgd_state(params, 0.1, momentum=0.9)
        else:
            state = nn.adam_state(params, 0.1)
        other_state = nn.adam_state(other, 0.1)
        flat, views = params.flat, params.layers
        grads = np.linspace(-1.0, 1.0, params.flat.size)
        grads_before = grads.copy()
        nn.optimizer_step(params, grads, state)
        # the model's own vector and views moved, in place
        assert params.flat is flat and params.layers is views
        assert not np.array_equal(params.flat, before.flat)
        assert np.array_equal(views[0][0].ravel(), flat[:12])
        # every slot moved and the step was counted
        assert all(slot.any() for slot in state.slots)
        assert state.step_count == 1
        # the gradient, a copy of the model and another state did not
        assert np.array_equal(grads, grads_before)
        assert params_equal(other, before)
        assert not any(slot.any() for slot in other_state.slots)
        assert other_state.step_count == 0

    def test_gradient_size_mismatch_rejected(self):
        params = make_random_model(52, [3, 4], split_index=1)
        state = nn.sgd_state(params, 0.1)
        with pytest.raises(ShapeError):
            nn.optimizer_step(params, np.zeros(params.flat.size - 1), state)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = make_random_model(61, [5, 7, 3], split_index=1)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(params, path)
        loaded = nn.load_checkpoint(path)
        assert params_equal(loaded, params)
        assert loaded.split_index == 1

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTKD" + b"\x00" * 32)
        with pytest.raises(Exception, match="magic"):
            nn.load_checkpoint(path)

    def test_round_trip_preserves_exact_bits(self, tmp_path):
        w = np.array([[0.1 + 0.2, 1e-308], [np.pi, -0.0]])
        params = nn.ModelParams([(w, np.array([1e16, -1.5]))], 1)
        path = tmp_path / "bits.ckpt"
        nn.save_checkpoint(params, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.layers[0][0].tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "tail", [b"", b"\x01\x02\x03"], ids=["no-layers", "junk-after-split"]
    )
    def test_split_index_without_layers_rejected(self, tmp_path, tail):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(nn.CHECKPOINT_MAGIC + struct.pack("<Q", 0) + tail)
        with pytest.raises(ProtocolError, match=re.escape(str(path))):
            nn.load_checkpoint(path)

    @given(st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fuzzed_blob_loads_exactly_or_raises_typed_error(self, tmp_path, data):
        path = tmp_path / "valid.ckpt"
        nn.save_checkpoint(make_random_model(62, [3, 4, 2], split_index=1), path)
        valid = path.read_bytes()
        blob = data.draw(
            st.one_of(
                st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
                st.binary(min_size=1, max_size=80).map(lambda junk: valid + junk),
                st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
                    lambda ib: valid[: ib[0]] + bytes([ib[1]]) + valid[ib[0] + 1 :]
                ),
                st.binary(max_size=120).map(lambda b: nn.CHECKPOINT_MAGIC + b),
                st.binary(max_size=120),
            )
        )
        fuzzed = tmp_path / "fuzzed.ckpt"
        fuzzed.write_bytes(blob)
        try:
            model = nn.load_checkpoint(fuzzed)
        except ProtocolError as exc:
            assert str(fuzzed) in str(exc)
            return
        resaved = tmp_path / "resaved.ckpt"
        nn.save_checkpoint(model, resaved)
        assert resaved.read_bytes() == blob


class TestModelParams:
    def test_incompatible_adjacent_layers_rejected(self):
        with pytest.raises(ShapeError, match="layer 1"):
            nn.ModelParams(
                [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((5, 2)), np.zeros(2))], 1
            )

    def test_split_index_bounds(self):
        layers = [(np.zeros((3, 4)), np.zeros(4))]
        with pytest.raises(ShapeError):
            nn.ModelParams(layers, 2)
        nn.ModelParams(layers, 0)
        nn.ModelParams(layers, 1)

    def test_empty_or_zero_width_model_rejected(self):
        with pytest.raises(ShapeError):
            nn.ModelParams([], 0)
        with pytest.raises(ShapeError):
            nn.ModelParams([(np.zeros((3, 0)), np.zeros(0))], 1)
        with pytest.raises(ShapeError, match="widths"):
            nn.he_uniform_init([4, 0, 3], 1, np.random.default_rng(0))

    def test_copy_is_deep(self):
        params = make_random_model(71, [3, 4], split_index=1)
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        dup.layers[0][0][0, 0] += 1.0
        assert not params_equal(dup, params)

    def test_layers_are_views_of_flat(self):
        params = make_random_model(72, [3, 4, 2], split_index=1)
        (w0, b0), (w1, b1) = params.layers
        # flat order: per layer the row-major weight, then the bias
        np.testing.assert_array_equal(
            params.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1])
        )
        w1[2, 1] = 7.0
        assert params.flat[12 + 4 + 2 * 2 + 1] == 7.0
        params.flat[12 + 4 + 8] = -3.0
        assert b1[0] == -3.0

    def test_from_flat_wraps_without_copy_and_checks_size(self):
        params = make_random_model(73, [3, 4], split_index=1)
        flat = np.arange(16.0)
        wrapped = nn.ModelParams.from_flat(flat, params.layout)
        assert wrapped.flat is flat and wrapped.layout == params.layout
        with pytest.raises(ShapeError):
            nn.ModelParams.from_flat(np.zeros(15), params.layout)

    def test_layer_list_constructor_copies(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        params = nn.ModelParams([(w, b)], 1)
        w[0, 0] = 5.0
        assert params.layers[0][0][0, 0] == 1.0
