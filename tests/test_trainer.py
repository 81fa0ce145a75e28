import math

import numpy as np
import pytest

from conftest import make_random_model
from kdia import nn, trainer
from kdia.config import ExperimentConfig
from kdia.errors import ConfigError, ParameterError
from kdia.gradcheck import fd_array_grad, max_relative_error


class StubSynth:
    """Fixed synthetic batch, for hand-checkable tests."""

    def __init__(self, feats, labels):
        self.feats = np.asarray(feats, dtype=np.float64)
        self.labels = np.asarray(labels)
        self.draws = 0

    def draw(self):
        self.draws += 1
        return self.feats, self.labels


def kl_form_grad(student_logits, teacher_logits, tau, lam):
    """Independent path: KL divergence gradient via the explicit softmax
    Jacobian chain, no analytic simplification."""
    p = nn.softmax(teacher_logits, tau)
    q = nn.softmax(student_logits, tau)
    n = student_logits.shape[0]
    d_loss_d_q = -(p / q) * (lam / n)
    grad = np.zeros_like(student_logits)
    for r in range(n):
        jac = (np.diag(q[r]) - np.outer(q[r], q[r])) / tau
        grad[r] = jac @ d_loss_d_q[r]
    return grad


class TestKdLoss:
    def test_matching_logits_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 6))
        _, grad = trainer.kd_loss(logits, logits.copy(), 2.0, 0.5)
        assert np.abs(grad).max() < 1e-15

    def test_zero_weight_shortcircuits(self):
        rng = np.random.default_rng(2)
        loss, grad = trainer.kd_loss(
            rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), 2.0, 0.0
        )
        assert loss == 0.0 and not grad.any()

    @pytest.mark.parametrize("tau", [1.0, 2.0, 5.0])
    def test_ce_form_equals_kl_form_gradient(self, tau):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.normal(size=(5, 7))
            t = rng.normal(size=(5, 7))
            _, ce_grad = trainer.kd_loss(s, t, tau, 0.5)
            kl_grad = kl_form_grad(s, t, tau, 0.5)
            assert np.abs(ce_grad - kl_grad).max() < 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 5))
        _, grad = trainer.kd_loss(s, t, 2.0, 0.7)
        numeric = fd_array_grad(lambda x: trainer.kd_loss(x, t, 2.0, 0.7)[0], s)
        assert max_relative_error(grad, numeric) < 1e-6

    def test_weight_scales_gradient_exactly(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 5))
        _, g1 = trainer.kd_loss(s, t, 2.0, 0.2)
        _, g3 = trainer.kd_loss(s, t, 2.0, 0.6)
        np.testing.assert_allclose(g3, 3.0 * g1, rtol=1e-15)

    def test_tau_squared_flag(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=(3, 4))
        t = rng.normal(size=(3, 4))
        l0, g0 = trainer.kd_loss(s, t, 2.0, 0.5)
        l1, g1 = trainer.kd_loss(s, t, 2.0, 0.5, tau_squared=True)
        assert l1 == pytest.approx(4.0 * l0, rel=1e-15)
        np.testing.assert_allclose(g1, 4.0 * g0, rtol=1e-15)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ParameterError):
            trainer.kd_loss(np.zeros((2, 3)), np.zeros((2, 3)), 0.0, 0.5)


def fixed_batches(x, y):
    return lambda epoch: [(x, y)]


class TestLocalUpdate:
    def setup_inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        model = make_random_model(seed + 100, [4, 6, 3], 1)
        teacher = make_random_model(seed + 200, [4, 6, 3], 1)
        return x, y, model, teacher

    def test_zero_weights_match_plain_fedavg_loop(self):
        x, y, model, _ = self.setup_inputs()
        cfg = ExperimentConfig(
            local_epochs=3, kd_weight=0.0, gen_weight=0.0
        )
        ours, _ = trainer.local_update(model, None, fixed_batches(x, y), cfg)

        # independent plain loop over the same primitives
        params = model.copy()
        state = nn.sgd_state(params, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        for _ in range(3):
            logits = nn.forward(params, x)
            _, grad = nn.softmax_ce_loss(logits, y)
            nn.optimizer_step(params, nn.backward(params, x, grad), state)
        assert nn.params_equal(ours, params)

    def test_zero_epochs_returns_global_unchanged(self):
        x, y, model, teacher = self.setup_inputs()
        cfg = ExperimentConfig(local_epochs=0, gen_weight=0.01)
        out, stats = trainer.local_update(model, teacher, fixed_batches(x, y), cfg)
        assert nn.params_equal(out, model)
        assert stats.ce == stats.kd == stats.gen == []

    def test_single_step_matches_scalar_oracle(self):
        # 1-input 2-class linear model; every term computed with plain math.exp
        w = [0.3, -0.2]
        teacher_w = [0.1, 0.4]
        model = nn.ModelParams([(np.array([w]), np.zeros(2))], 0)
        teacher = nn.ModelParams([(np.array([teacher_w]), np.zeros(2))], 0)
        x = np.array([[1.0]])
        y = np.array([0])
        syn = StubSynth([[0.7]], [1])
        lam_kd, lam_gen, tau, eta, wd = 0.5, 0.25, 2.0, 0.1, 0.01
        cfg = ExperimentConfig(
            local_epochs=1,
            learning_rate=eta,
            momentum=0.9,
            weight_decay=wd,
            kd_weight=lam_kd,
            gen_weight=lam_gen,
            temperature=tau,
        )
        out, stats = trainer.local_update(
            model, teacher, fixed_batches(x, y), cfg, synth=syn
        )

        def softmax2(a, b):
            ea, eb = math.exp(a), math.exp(b)
            return ea / (ea + eb), eb / (ea + eb)

        # classification term at x=1
        p0, p1 = softmax2(w[0], w[1])
        g_ce = [p0 - 1.0, p1]
        # distillation term on the same batch
        q0, q1 = softmax2(w[0] / tau, w[1] / tau)
        t0, t1 = softmax2(teacher_w[0] / tau, teacher_w[1] / tau)
        g_kd = [lam_kd * (q0 - t0) / tau, lam_kd * (q1 - t1) / tau]
        # generator-auxiliary term on synthetic feature 0.7, label 1
        s0, s1 = softmax2(0.7 * w[0], 0.7 * w[1])
        g_gen = [lam_gen * s0, lam_gen * (s1 - 1.0)]
        expect = []
        for j in range(2):
            grad_w = 1.0 * (g_ce[j] + g_kd[j]) + 0.7 * g_gen[j]
            vel = grad_w + wd * w[j]
            expect.append(w[j] - eta * vel)
        np.testing.assert_allclose(out.layers[0][0][0], expect, rtol=1e-12)

        # loss decomposition: the three recorded terms match hand values
        ce_hand = -math.log(p0)
        kd_hand = lam_kd * -(t0 * math.log(q0) + t1 * math.log(q1))
        gen_hand = lam_gen * -math.log(s1)
        assert stats.ce[0] == pytest.approx(ce_hand, rel=1e-12)
        assert stats.kd[0] == pytest.approx(kd_hand, rel=1e-12)
        assert stats.gen[0] == pytest.approx(gen_hand, rel=1e-12)

    def test_teacher_and_synth_inputs_untouched(self):
        x, y, model, teacher = self.setup_inputs(7)
        teacher_before = teacher.copy()
        syn = StubSynth(np.abs(np.random.default_rng(8).normal(size=(4, 6))), [0, 1, 2, 0])
        cfg = ExperimentConfig(local_epochs=2, gen_weight=0.1)
        trainer.local_update(model, teacher, fixed_batches(x, y), cfg, synth=syn)
        assert nn.params_equal(teacher, teacher_before)

    def test_one_synth_draw_per_epoch_by_default(self):
        x, y, model, teacher = self.setup_inputs(9)
        y_big = np.concatenate([y, y])
        x_big = np.vstack([x, x])
        batch_fn = lambda epoch: [(x_big[:8], y_big[:8]), (x_big[8:], y_big[8:])]
        syn = StubSynth(np.abs(np.random.default_rng(10).normal(size=(4, 6))), [0, 1, 2, 0])
        cfg = ExperimentConfig(local_epochs=3, gen_weight=0.1)
        trainer.local_update(model, teacher, batch_fn, cfg, synth=syn)
        assert syn.draws == 3

    def test_syn_per_batch_draws_per_real_batch(self):
        x, y, model, teacher = self.setup_inputs(11)
        batch_fn = lambda epoch: [(x, y), (x, y)]
        syn = StubSynth(np.abs(np.random.default_rng(12).normal(size=(4, 6))), [0, 1, 2, 0])
        cfg = ExperimentConfig(local_epochs=3, gen_weight=0.1, syn_per_batch=True)
        trainer.local_update(model, teacher, batch_fn, cfg, synth=syn)
        assert syn.draws == 6

    def test_deterministic(self):
        x, y, model, teacher = self.setup_inputs(13)
        syn_feats = np.abs(np.random.default_rng(14).normal(size=(4, 6)))
        cfg = ExperimentConfig(local_epochs=2, gen_weight=0.3)
        a, _ = trainer.local_update(
            model, teacher, fixed_batches(x, y), cfg, synth=StubSynth(syn_feats, [0, 1, 2, 0])
        )
        b, _ = trainer.local_update(
            model, teacher, fixed_batches(x, y), cfg, synth=StubSynth(syn_feats, [0, 1, 2, 0])
        )
        assert nn.params_equal(a, b)

    def test_empty_batches_rejected(self):
        _, _, model, _ = self.setup_inputs(15)
        cfg = ExperimentConfig(local_epochs=1, gen_weight=0.01)
        with pytest.raises(ConfigError):
            trainer.local_update(model, None, lambda epoch: [], cfg)


class TestEvaluate:
    def test_constant_logits_tiebreak_class_zero(self):
        model = nn.ModelParams([(np.zeros((4, 10)), np.zeros(10))], 0)
        rng = np.random.default_rng(20)
        x = rng.normal(size=(100, 4))
        y = np.repeat(np.arange(10), 10)
        assert trainer.evaluate(model, x, y) == pytest.approx(0.1)

    def test_memorizing_model_perfect(self):
        # one-hot rows through the identity map score themselves
        model = nn.ModelParams([(np.eye(5), np.zeros(5))], 0)
        x = np.eye(5)
        y = np.arange(5)
        assert trainer.evaluate(model, x, y) == 1.0

    def test_matches_per_sample_oracle(self):
        model = make_random_model(30, [4, 6, 3], 1)
        rng = np.random.default_rng(31)
        x = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        correct = 0
        for i in range(50):
            logits = nn.forward(model, x[i : i + 1])[0]
            best = 0
            for j in range(1, 3):
                if logits[j] > logits[best]:
                    best = j
            correct += best == y[i]
        assert trainer.evaluate(model, x, y) == pytest.approx(correct / 50.0)
