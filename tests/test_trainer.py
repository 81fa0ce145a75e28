import math

import numpy as np
import pytest

from conftest import make_random_model
from kdia import data, generator, nn, trainer
from kdia.config import ExperimentConfig
from kdia.errors import ConfigError, ParameterError, ShapeError
from kdia.gradcheck import fd_array_grad, max_relative_error


class StubSynth:
    """Fixed synthetic batch and its one-hot label rows, for hand-checkable
    tests."""

    def __init__(self, feats, labels, n_classes=3):
        self.feats = np.asarray(feats, dtype=np.float64)
        self.rows = nn.target_rows(labels, len(self.feats), n_classes)
        self.draws = 0

    def draw(self):
        self.draws += 1
        return self.feats, self.rows


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


def per_batch_oracle(model, teacher, x, y, batch_fn, cfg, synth=None):
    """``local_update`` as a plain per-batch loop over the public, checked
    losses: ``softmax_ce_loss`` on the labels and ``kd_loss`` on the
    teacher's logits, both recomputed for every batch. The teacher's logits
    come from one forward pass over all of the rows, as in the trainer."""
    use_kd = teacher is not None and cfg.kd_weight > 0.0
    use_gen = synth is not None and cfg.gen_weight > 0.0
    teacher_logits = nn.forward(teacher, x) if use_kd else None
    params = model.copy()
    state = nn.sgd_state(params, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
    stats = trainer.LocalStats()
    for epoch in range(cfg.local_epochs):
        if use_gen and not cfg.syn_per_batch:
            syn_x, syn_rows = synth.draw()
        for pos in batch_fn(epoch):
            logits = nn.forward(params, x[pos])
            ce, grad = nn.softmax_ce_loss(logits, y[pos])
            kd = 0.0
            if use_kd:
                kd, kd_grad = trainer.kd_loss(
                    logits, teacher_logits[pos], cfg.temperature, cfg.kd_weight,
                    cfg.kd_tau_squared,
                )
                grad = grad + kd_grad
            grads = nn.backward(params, x[pos], grad)
            gen = 0.0
            if use_gen:
                if cfg.syn_per_batch:
                    syn_x, syn_rows = synth.draw()
                syn_logits = nn.forward(params, syn_x, from_classifier_only=True)
                gen_ce, gen_grad = nn.softmax_ce_loss(syn_logits, syn_rows)
                gen = cfg.gen_weight * gen_ce
                head_grads = nn.backward(
                    params, syn_x, cfg.gen_weight * gen_grad, from_classifier_only=True
                )
                grads[-head_grads.size :] += head_grads
            nn.optimizer_step(params, grads, state)
            stats.ce.append(ce)
            stats.kd.append(kd)
            stats.gen.append(gen)
    return params, stats


def whole_batch(x):
    """Every row in order, as one batch per epoch."""
    return lambda epoch: [np.arange(len(x))]


def update_one(model, teacher, x, y, batch_fn, cfg, synth=None):
    """``local_update`` on one client that owns every row."""
    (params,), (stats,) = trainer.local_update(
        model, teacher, x, y, [trainer.Client(np.arange(len(x)), batch_fn, synth)], cfg
    )
    return params, stats


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
        ours, _ = update_one(model, None, x, y, whole_batch(x), cfg)

        # independent plain loop over the same primitives
        params = model.copy()
        state = nn.sgd_state(params, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        for _ in range(3):
            logits = nn.forward(params, x)
            _, grad = nn.softmax_ce_loss(logits, y)
            nn.optimizer_step(params, nn.backward(params, x, grad), state)
        assert nn.params_equal(ours, params)

    @pytest.mark.parametrize("tau_squared", [False, True])
    def test_kd_matches_textbook_oracle_bitwise(self, tau_squared):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(37, 4))
        y = rng.integers(0, 3, size=37)
        model = make_random_model(140, [4, 6, 3], 1)
        teacher = make_random_model(240, [4, 6, 3], 1)
        cfg = ExperimentConfig(
            local_epochs=3, batch_size=8, kd_weight=0.7, temperature=3.0,
            kd_tau_squared=tau_squared,
        )
        batch_fn = lambda epoch: data.batches(len(x), cfg.batch_size, epoch_seed=epoch)
        ours, stats = update_one(model, teacher, x, y, batch_fn, cfg)

        # the teacher's tempered softmax over every row of the client, once
        targets = nn.softmax(nn.forward(teacher, x), cfg.temperature)
        scale = cfg.kd_weight * (cfg.temperature**2 if tau_squared else 1.0)
        params = model.copy()
        state = nn.sgd_state(params, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        kd_trace = []
        for epoch in range(cfg.local_epochs):
            for pos in batch_fn(epoch):
                logits = nn.forward(params, x[pos])
                _, ce_grad = nn.softmax_ce_loss(logits, y[pos])
                kd, kd_grad = nn.softmax_ce_loss(logits, targets[pos], cfg.temperature)
                grads = nn.backward(params, x[pos], ce_grad + scale * kd_grad)
                nn.optimizer_step(params, grads, state)
                kd_trace.append(scale * kd)
        assert nn.params_equal(ours, params)
        assert stats.kd == kd_trace

    @pytest.mark.parametrize("kd_weight", [0.0, 0.7])
    @pytest.mark.parametrize("tau_squared", [False, True])
    @pytest.mark.parametrize("gen", ["off", "per-epoch", "per-batch"])
    def test_matches_per_batch_oracle_bitwise(self, kd_weight, tau_squared, gen):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(37, 4))
        y = rng.integers(0, 3, size=37)
        model = make_random_model(141, [4, 6, 3], 1)
        teacher = make_random_model(241, [4, 6, 3], 1)
        cfg = ExperimentConfig(
            local_epochs=3, batch_size=8, kd_weight=kd_weight, temperature=3.0,
            kd_tau_squared=tau_squared, gen_weight=0.0 if gen == "off" else 0.3,
            syn_per_batch=gen == "per-batch",
        )
        batch_fn = lambda epoch: data.batches(len(x), cfg.batch_size, epoch_seed=epoch)

        def synth():
            gen_model = make_random_model(341, [5, 6], 0)
            return generator.LocalSynthesizer(gen_model, 3, len(x), cfg.local_epochs, 8, seed=9)

        ours = update_one(model, teacher, x, y, batch_fn, cfg, synth=synth())
        oracle = per_batch_oracle(model, teacher, x, y, batch_fn, cfg, synth=synth())
        assert nn.params_equal(ours[0], oracle[0])
        assert ours[1] == oracle[1]

    @pytest.mark.parametrize("kd_weight", [0.0, 0.5])
    def test_targets_checked_once_per_call(self, monkeypatch, kd_weight):
        x, y, model, teacher = self.setup_inputs(19)
        real_target_rows = nn.target_rows
        seen = []

        def counting_target_rows(targets, n_rows, n_cols):
            seen.append(np.asarray(targets).ndim)
            return real_target_rows(targets, n_rows, n_cols)

        monkeypatch.setattr(nn, "target_rows", counting_target_rows)
        cfg = ExperimentConfig(local_epochs=4, kd_weight=kd_weight)
        batch_fn = lambda epoch: [np.arange(4), np.arange(4, 8)]
        update_one(model, teacher, x, y, batch_fn, cfg)
        # the labels, then the teacher's probability rows
        assert seen == ([1, 2] if kd_weight else [1])

    def test_each_synthetic_draw_checked_once(self, monkeypatch):
        x, y, model, teacher = self.setup_inputs(23)
        real_target_rows = nn.target_rows
        seen = []

        def counting_target_rows(targets, n_rows, n_cols):
            seen.append(np.asarray(targets).ndim)
            return real_target_rows(targets, n_rows, n_cols)

        monkeypatch.setattr(nn, "target_rows", counting_target_rows)
        cfg = ExperimentConfig(local_epochs=4, kd_weight=0.0, gen_weight=0.3)
        gen_model = make_random_model(323, [5, 6], 0)
        synth = generator.LocalSynthesizer(gen_model, 3, len(x), cfg.local_epochs, 8, seed=9)
        batch_fn = lambda epoch: [np.arange(4), np.arange(4, 8)]
        update_one(model, teacher, x, y, batch_fn, cfg, synth=synth)
        # the labels, then one check per synthetic draw (one draw an epoch)
        assert seen == [1] * (1 + cfg.local_epochs)

    def test_bad_labels_rejected_before_any_step(self):
        x, y, model, teacher = self.setup_inputs(21)
        cfg = ExperimentConfig(local_epochs=1)
        with pytest.raises(ParameterError, match="integers"):
            update_one(model, teacher, x, y.astype(float), whole_batch(x), cfg)
        with pytest.raises(ShapeError):
            update_one(model, teacher, x, y[:-1], whole_batch(x), cfg)

    def test_teacher_forward_runs_once_per_call(self, monkeypatch):
        x, y, model, teacher = self.setup_inputs(17)
        real_forward = nn.forward
        seen = []

        def counting_forward(params, batch, *args, **kwargs):
            seen.append(params)
            return real_forward(params, batch, *args, **kwargs)

        monkeypatch.setattr(nn, "forward", counting_forward)
        cfg = ExperimentConfig(local_epochs=4)
        batch_fn = lambda epoch: [np.arange(4), np.arange(4, 8)]
        update_one(model, teacher, x, y, batch_fn, cfg)
        assert seen == [teacher]

    def test_zero_epochs_returns_global_unchanged(self):
        x, y, model, teacher = self.setup_inputs()
        cfg = ExperimentConfig(local_epochs=0, gen_weight=0.01)
        out, stats = update_one(model, teacher, x, y, whole_batch(x), cfg)
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
        syn = StubSynth([[0.7]], [1], n_classes=2)
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
        out, stats = update_one(
            model, teacher, x, y, whole_batch(x), cfg, synth=syn
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
        update_one(model, teacher, x, y, whole_batch(x), cfg, synth=syn)
        assert nn.params_equal(teacher, teacher_before)

    def test_one_synth_draw_per_epoch_by_default(self):
        x, y, model, teacher = self.setup_inputs(9)
        y_big = np.concatenate([y, y])
        x_big = np.vstack([x, x])
        batch_fn = lambda epoch: [np.arange(8), np.arange(8, 16)]
        syn = StubSynth(np.abs(np.random.default_rng(10).normal(size=(4, 6))), [0, 1, 2, 0])
        cfg = ExperimentConfig(local_epochs=3, gen_weight=0.1)
        update_one(model, teacher, x_big, y_big, batch_fn, cfg, synth=syn)
        assert syn.draws == 3

    def test_syn_per_batch_draws_per_real_batch(self):
        x, y, model, teacher = self.setup_inputs(11)
        batch_fn = lambda epoch: [np.arange(8), np.arange(8)]
        syn = StubSynth(np.abs(np.random.default_rng(12).normal(size=(4, 6))), [0, 1, 2, 0])
        cfg = ExperimentConfig(local_epochs=3, gen_weight=0.1, syn_per_batch=True)
        update_one(model, teacher, x, y, batch_fn, cfg, synth=syn)
        assert syn.draws == 6

    def test_deterministic(self):
        x, y, model, teacher = self.setup_inputs(13)
        syn_feats = np.abs(np.random.default_rng(14).normal(size=(4, 6)))
        cfg = ExperimentConfig(local_epochs=2, gen_weight=0.3)
        a, _ = update_one(
            model, teacher, x, y, whole_batch(x), cfg, synth=StubSynth(syn_feats, [0, 1, 2, 0])
        )
        b, _ = update_one(
            model, teacher, x, y, whole_batch(x), cfg, synth=StubSynth(syn_feats, [0, 1, 2, 0])
        )
        assert nn.params_equal(a, b)

    def test_empty_batches_rejected(self):
        x, y, model, _ = self.setup_inputs(15)
        cfg = ExperimentConfig(local_epochs=1, gen_weight=0.01)
        with pytest.raises(ConfigError):
            update_one(model, None, x, y, lambda epoch: [], cfg)
        with pytest.raises(ConfigError):
            update_one(
                model, None, x, y, lambda epoch: [np.arange(8), np.arange(0)], cfg
            )


class TestLockstep:
    """``local_update`` over several clients against ``per_batch_oracle`` run
    on each client alone, one after another."""

    # 64-row batches: 150 rows end on 22, 30 and 94 on 30 (an equal short
    # remainder), 7 and 1 are smaller than one batch, 128 has no remainder
    SIZES = (150, 30, 7, 128, 94, 1, 64)

    def clients(self, cfg, sizes=SIZES, seed=50):
        """Shared rows, each client's row indices (interleaved across the
        shared array), its (features, labels) copy for the oracle, and a
        batch function per client."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(sum(sizes) + 5, 4))
        y = rng.integers(0, 3, size=len(x))
        order = rng.permutation(len(x))
        bounds = np.cumsum((0,) + tuple(sizes))
        rows = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        parts = [(x[r], y[r]) for r in rows]

        def batch_fn(i):
            n = sizes[i]
            return lambda epoch: data.batches(n, cfg.batch_size, epoch_seed=(seed, i, epoch))

        return x, y, rows, parts, batch_fn

    @staticmethod
    def synth(cfg, n_rows, i):
        gen_model = make_random_model(350, [5, 6], 0)
        return generator.LocalSynthesizer(
            gen_model, 3, n_rows, cfg.local_epochs, cfg.batch_size, seed=(9, i)
        )

    @pytest.mark.parametrize("kd_weight", [0.0, 0.7])
    @pytest.mark.parametrize("tau_squared", [False, True])
    @pytest.mark.parametrize("gen", ["off", "per-epoch", "per-batch"])
    def test_matches_serial_oracle_bitwise(self, kd_weight, tau_squared, gen):
        cfg = ExperimentConfig(
            local_epochs=3, batch_size=64, kd_weight=kd_weight, temperature=3.0,
            kd_tau_squared=tau_squared, gen_weight=0.0 if gen == "off" else 0.3,
            syn_per_batch=gen == "per-batch",
        )
        x, y, rows, parts, batch_fn = self.clients(cfg)
        model = make_random_model(150, [4, 6, 3], 1)
        teacher = make_random_model(250, [4, 6, 3], 1)
        clients = [
            trainer.Client(rows[i], batch_fn(i), self.synth(cfg, n, i))
            for i, n in enumerate(self.SIZES)
        ]
        models, stats = trainer.local_update(model, teacher, x, y, clients, cfg)
        assert len(models) == len(stats) == len(self.SIZES)
        for i, (xi, yi) in enumerate(parts):
            oracle = per_batch_oracle(
                model, teacher, xi, yi, batch_fn(i), cfg, synth=self.synth(cfg, len(xi), i)
            )
            assert nn.params_equal(models[i], oracle[0]), i
            assert stats[i] == oracle[1], i

    def test_clients_with_and_without_synth_mix(self):
        cfg = ExperimentConfig(local_epochs=2, batch_size=64, gen_weight=0.3)
        x, y, rows, parts, batch_fn = self.clients(cfg)
        model = make_random_model(151, [4, 6, 3], 1)
        synths = [self.synth(cfg, n, i) if i % 2 else None for i, n in enumerate(self.SIZES)]
        clients = [trainer.Client(rows[i], batch_fn(i), synths[i]) for i in range(len(rows))]
        models, stats = trainer.local_update(model, None, x, y, clients, cfg)
        for i, (xi, yi) in enumerate(parts):
            synth = self.synth(cfg, len(xi), i) if i % 2 else None
            oracle = per_batch_oracle(model, None, xi, yi, batch_fn(i), cfg, synth=synth)
            assert nn.params_equal(models[i], oracle[0]), i
            assert stats[i] == oracle[1], i

    def test_equal_batches_step_as_one_group(self, monkeypatch):
        cfg = ExperimentConfig(local_epochs=3, batch_size=64)
        sizes = (64, 64, 40, 64)
        x, y, rows, _, batch_fn = self.clients(cfg, sizes)
        model = make_random_model(152, [4, 6, 3], 1)
        real_step = nn.optimizer_step
        seen = []

        def counting_step(params, grads, state):
            seen.append(params.flat.shape[0])
            return real_step(params, grads, state)

        monkeypatch.setattr(nn, "optimizer_step", counting_step)
        clients = [trainer.Client(r, batch_fn(i)) for i, r in enumerate(rows)]
        trainer.local_update(model, None, x, y, clients, cfg)
        # a tick per epoch: the three 64-row clients together, the short one alone
        assert sorted(seen) == [1, 1, 1, 3, 3, 3]

    def test_batches_are_built_one_epoch_at_a_time(self):
        cfg = ExperimentConfig(local_epochs=4, batch_size=64)
        sizes = (150, 30)
        x, y, rows, _, batch_fn = self.clients(cfg, sizes)
        calls = []

        def logged(i):
            fn = batch_fn(i)
            return lambda epoch: calls.append((i, epoch)) or fn(epoch)

        clients = [trainer.Client(r, logged(i)) for i, r in enumerate(rows)]
        trainer.local_update(make_random_model(153, [4, 6, 3], 1), None, x, y, clients, cfg)
        assert sorted(calls) == [(i, e) for i in range(2) for e in range(4)]
        # the one-batch client reaches epoch 3 while the other is in epoch 1
        assert calls.index((1, 3)) < calls.index((0, 2))

    def test_zero_epochs_return_every_client_unchanged(self):
        cfg = ExperimentConfig(local_epochs=0)
        x, y, rows, _, batch_fn = self.clients(cfg)
        model = make_random_model(154, [4, 6, 3], 1)
        clients = [trainer.Client(r, batch_fn(i)) for i, r in enumerate(rows)]
        models, stats = trainer.local_update(model, model, x, y, clients, cfg)
        assert all(nn.params_equal(m, model) for m in models)
        assert all(s == trainer.LocalStats() for s in stats)

    def test_labels_must_match_features(self):
        cfg = ExperimentConfig(local_epochs=1)
        x, y, rows, _, batch_fn = self.clients(cfg, (5, 6))
        model = make_random_model(155, [4, 6, 3], 1)
        clients = [trainer.Client(r, batch_fn(i)) for i, r in enumerate(rows)]
        with pytest.raises(ShapeError, match="16 feature rows but 15 labels"):
            trainer.local_update(model, None, x, y[:-1], clients, cfg)

    @staticmethod
    def first_serial_error(model, teacher, parts, batch_fns, cfg, synths):
        """Index and error of the first client whose oracle run raises."""
        for i, ((xi, yi), fn, synth) in enumerate(zip(parts, batch_fns, synths)):
            try:
                per_batch_oracle(model, teacher, xi, yi, fn, cfg, synth=synth)
            except Exception as exc:
                return i, exc
        return None

    @pytest.mark.parametrize(
        "kd,gen,same_step",
        [(False, False, False), (True, False, False), (False, True, False), (False, False, True)],
        ids=["False-False", "True-False", "False-True", "same-step"],
    )
    def test_failure_names_the_client_the_serial_loop_names(self, kd, gen, same_step):
        # client 1 meets its overflowing row only in epoch 2, in one stacked
        # step with client 0; client 3 fails earlier: at its first step, or
        # with a teacher already at setup, on a bad label; or it overflows
        # like client 1, in the same stacked step
        cfg = ExperimentConfig(
            local_epochs=3, batch_size=64, kd_weight=0.5 if kd else 0.0,
            gen_weight=0.3 if gen else 0.0,
        )
        sizes = (40, 40, 64, 50, 30)
        x, y, rows, _, batch_fn = self.clients(cfg, sizes)
        # one huge feature with weights above 1: the product overflows in any
        # summation order, and a zero teacher still gives finite logits
        x[rows[1][3]] = [0.0, np.finfo(np.float64).max, 0.0, 0.0]
        fns = [batch_fn(i) for i in range(len(sizes))]
        fns[1] = lambda epoch: [np.arange(7, 40)] if epoch < 2 else [np.arange(40)]
        if same_step:
            x[rows[3][3]] = x[rows[1][3]]
            fns[3] = fns[1]
        elif kd:
            y[rows[3][2]] = 5
        else:
            x[rows[3][0]] = np.inf
        parts = [(x[r], y[r]) for r in rows]
        model = make_random_model(156, [4, 6, 3], 1)
        teacher = nn.ModelParams([(np.zeros((4, 6)), np.zeros(6)), (np.zeros((6, 3)), np.zeros(3))], 1)
        teacher = teacher if kd else None
        def synths():
            return [self.synth(cfg, len(r), i) if gen else None for i, r in enumerate(rows)]

        with np.errstate(over="ignore", invalid="ignore"):
            expected = self.first_serial_error(model, teacher, parts, fns, cfg, synths())
        assert expected is not None and expected[0] == 1
        clients = [trainer.Client(r, fns[i], s) for i, (r, s) in enumerate(zip(rows, synths()))]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(trainer.ClientError) as info:
            trainer.local_update(model, teacher, x, y, clients, cfg)
        assert info.value.index == 1
        assert str(info.value) == str(expected[1]) == "forward pass produced non-finite values"
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_a_failed_client_takes_no_further_steps(self):
        cfg = ExperimentConfig(local_epochs=3, batch_size=64)
        x, y, rows, _, batch_fn = self.clients(cfg, (20, 20))
        x[rows[0][0]] = np.inf
        calls = []
        fn = batch_fn(0)
        clients = [
            trainer.Client(rows[0], lambda epoch: calls.append(epoch) or fn(epoch)),
            trainer.Client(rows[1], batch_fn(1)),
        ]
        with np.errstate(invalid="ignore"), pytest.raises(trainer.ClientError) as info:
            trainer.local_update(make_random_model(158, [4, 6, 3], 1), None, x, y, clients, cfg)
        assert info.value.index == 0
        # as in the serial loop, the client stops at its first failing step
        assert calls == [0]

    def test_setup_error_of_a_later_client_waits_for_the_earlier_ones(self):
        cfg = ExperimentConfig(local_epochs=2, batch_size=64)
        x, y, rows, _, batch_fn = self.clients(cfg, (70, 40))
        y[rows[1][3]] = 5  # the second client's labels fail the target check
        calls = []
        fn = batch_fn(0)
        clients = [
            trainer.Client(rows[0], lambda epoch: calls.append(epoch) or fn(epoch)),
            trainer.Client(rows[1], batch_fn(1)),
        ]
        with pytest.raises(ParameterError, match="label outside"):
            trainer.local_update(make_random_model(157, [4, 6, 3], 1), None, x, y, clients, cfg)
        # as in the serial loop, the first client trains to the end first
        assert calls == [0, 1]


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
