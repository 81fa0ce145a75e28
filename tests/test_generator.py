import math

import numpy as np
import pytest

from conftest import make_random_model, params_equal
from kdia import aggregate, generator, nn
from kdia.config import ExperimentConfig
from kdia.errors import ParameterError, ShapeError
from kdia.gradcheck import fd_array_grad, max_relative_error


def small_cfg(**kw):
    base = dict(
        n_classes=3,
        gen_epochs=2,
        gen_batches=10,
        gen_batch_size=16,
        diversity_weight=1.0,
        diversity_epsilon=1e-5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def make_snapshot(seed, widths=(4, 6, 3)):
    """A classifier snapshot with nonzero biases (initialization leaves them
    zero, which would hide how the ensemble combines them)."""
    model = make_random_model(seed, list(widths), 1)
    rng = np.random.default_rng(seed)
    for _, b in model.layers:
        b[:] = rng.normal(size=b.shape)
    return model


def make_generator(seed, noise_dim=8, n_classes=3, feature_dim=6, hidden=16):
    rng = np.random.default_rng(seed)
    return generator.init_generator(noise_dim, n_classes, feature_dim, hidden, rng)


class TestLabelPool:
    def test_labels_in_range(self):
        pool = generator.sample_label_pool(50, 7, seed=0)
        assert pool.min() >= 0 and pool.max() < 7

    def test_chi_square_uniformity(self):
        pool = generator.sample_label_pool(12800, 10, seed=123)
        counts = np.bincount(pool, minlength=10)
        expected = 1280.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.88  # p > 0.001 at 9 dof

    def test_same_seed_identical(self):
        a = generator.sample_label_pool(100, 5, seed=9)
        b = generator.sample_label_pool(100, 5, seed=9)
        assert np.array_equal(a, b)

    def test_longer_pools_closer_to_uniform(self):
        devs = {64: [], 12800: []}
        for length in devs:
            for seed in range(20):
                pool = generator.sample_label_pool(length, 10, seed=seed)
                freq = np.bincount(pool, minlength=10) / length
                devs[length].append(np.abs(freq - 0.1).max())
        assert np.mean(devs[12800]) < np.mean(devs[64])

    def test_class_counts_invariant_under_shuffle(self):
        pool = generator.sample_label_pool(500, 6, seed=3)
        before = np.bincount(pool, minlength=6)
        np.random.default_rng(1).shuffle(pool)
        assert np.array_equal(np.bincount(pool, minlength=6), before)

    def test_per_class_counts_within_loose_uniform_bound(self):
        # |count - L/C| <= 4 * sqrt(L/C) for every class
        for seed in range(30):
            for length, n_classes in ((640, 10), (2000, 10), (128, 4)):
                pool = generator.sample_label_pool(length, n_classes, seed=seed)
                counts = np.bincount(pool, minlength=n_classes)
                expected = length / n_classes
                assert np.abs(counts - expected).max() <= 4.0 * np.sqrt(expected)


class TestGenForward:
    def test_zero_generator_zero_features(self):
        gen = nn.ModelParams(
            [(np.zeros((11, 16)), np.zeros(16)), (np.zeros((16, 6)), np.zeros(6))], 0
        )
        noise = np.random.default_rng(0).normal(size=(4, 8))
        feats, _ = generator.gen_forward(gen, noise, np.array([0, 1, 2, 0]), 3)
        assert not feats.any()

    def test_identical_rows_identical_features(self):
        gen = make_generator(5)
        noise = np.tile(np.random.default_rng(1).normal(size=(1, 8)), (3, 1))
        labels = np.array([1, 1, 1])
        feats, _ = generator.gen_forward(gen, noise, labels, 3)
        assert np.array_equal(feats[0], feats[1])
        assert np.array_equal(feats[1], feats[2])

    def test_label_flip_changes_output(self):
        gen = make_generator(6)
        noise = np.random.default_rng(2).normal(size=(1, 8))
        a, _ = generator.gen_forward(gen, noise, np.array([0]), 3)
        b, _ = generator.gen_forward(gen, noise, np.array([2]), 3)
        assert not np.array_equal(a, b)

    def test_features_nonnegative(self):
        gen = make_generator(7)
        noise = np.random.default_rng(3).normal(size=(10, 8))
        labels = np.random.default_rng(4).integers(0, 3, size=10)
        feats, rows = generator.gen_forward(gen, noise, labels, 3)
        assert (feats >= 0).all()
        assert np.array_equal(rows, np.eye(3)[labels])

    @pytest.mark.parametrize("label", [-1, 3, 1.7])
    def test_label_outside_the_classes_rejected(self, label):
        gen = make_generator(8)
        with pytest.raises(ParameterError):
            generator.gen_forward(gen, np.zeros((2, 8)), np.array([0, label]), 3)

    def test_wrong_noise_width_rejected(self):
        gen = make_generator(8)
        with pytest.raises(ShapeError):
            generator.gen_forward(gen, np.zeros((2, 5)), np.array([0, 1]), 3)


class TestDiversityLoss:
    def test_identical_noise_halves_zero_loss(self):
        noise = np.tile(np.random.default_rng(0).normal(size=(2, 4)), (2, 1))
        feats = np.random.default_rng(1).normal(size=(4, 6))
        loss, _ = generator.diversity_loss(noise, feats, eps=1e-5)
        assert loss == 0.0

    def test_scalar_unit_case(self):
        noise = np.array([[1.0], [0.0]])
        feats = np.array([[1.0], [0.0]])
        loss, _ = generator.diversity_loss(noise, feats, eps=0.0)
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        noise = rng.normal(size=(8, 4))
        feats = rng.normal(size=(8, 6))
        _, grad = generator.diversity_loss(noise, feats, eps=1e-3)
        numeric = fd_array_grad(
            lambda z: generator.diversity_loss(noise, z, eps=1e-3)[0], feats
        )
        assert max_relative_error(grad, numeric) < 1e-5

    def test_odd_row_dropped(self):
        rng = np.random.default_rng(12)
        noise = rng.normal(size=(5, 4))
        feats = rng.normal(size=(5, 6))
        loss_odd, grad = generator.diversity_loss(noise, feats, eps=1e-3)
        loss_even, _ = generator.diversity_loss(noise[:4], feats[:4], eps=1e-3)
        assert loss_odd == loss_even
        assert not grad[4].any()

    def test_coincident_features_zero_gradient(self):
        noise = np.array([[1.0, 0.0], [0.0, 1.0]])
        feats = np.ones((2, 3))
        loss, grad = generator.diversity_loss(noise, feats, eps=0.5)
        assert loss == pytest.approx(math.sqrt(2.0) / 0.5)
        assert not grad.any()


def textbook_train(gen, snapshots, p, cfg, seed):
    """Independent oracle of ``train_generator``: per-snapshot logits and
    their weighted sum, softmax cross-entropy, the diversity term, per-layer
    backprop and Adam with per-step bias correction, all written out here.
    Noise is drawn one epoch at a time. Returns the layers and loss traces."""
    rng = np.random.default_rng(seed)
    n_classes = cfg.n_classes
    noise_dim = gen.input_width - n_classes
    pool = generator.sample_label_pool(cfg.gen_epochs * cfg.gen_batches, n_classes, rng)
    k_scale = 1.0 / len(snapshots) if cfg.eq3_literal else 1.0
    (w1, b1), (w2, b2) = [(w.copy(), b.copy()) for w, b in gen.layers]
    params = [w1, b1, w2, b2]
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n, half = cfg.gen_batch_size, cfg.gen_batch_size // 2
    ce_trace, div_trace = [], []
    t = 0
    for _ in range(cfg.gen_epochs):
        rng.shuffle(pool)
        epoch_noise = rng.normal(size=(cfg.gen_batches * n, noise_dim))
        for b in range(cfg.gen_batches):
            labels = pool[np.arange(b * n, (b + 1) * n) % len(pool)]
            noise = epoch_noise[b * n : (b + 1) * n]
            one_hot = np.eye(n_classes)[labels]
            x0 = np.hstack([noise, one_hot])
            h_pre = x0 @ w1 + b1
            h = np.maximum(h_pre, 0.0)
            f_pre = h @ w2 + b2
            feats = np.maximum(f_pre, 0.0)
            heads = [s.layers[s.split_index] for s in snapshots]
            logits = k_scale * sum(pk * (feats @ wk + bk) for (wk, bk), pk in zip(heads, p))
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            ce_trace.append(-(one_hot * log_probs).sum() / n)
            g_logits = (np.exp(log_probs) - one_hot) / n
            g_feats = k_scale * sum(pk * (g_logits @ wk.T) for (wk, _), pk in zip(heads, p))
            e_gap = noise[:half] - noise[half : 2 * half]
            z_gap = feats[:half] - feats[half : 2 * half]
            num = np.linalg.norm(e_gap, axis=1)
            z_norm = np.linalg.norm(z_gap, axis=1)
            den = z_norm + cfg.diversity_epsilon
            div_trace.append((num / den).mean())
            g_z1 = (-num / (den**2 * z_norm * half))[:, None] * z_gap
            g_feats[:half] += cfg.diversity_weight * g_z1
            g_feats[half : 2 * half] -= cfg.diversity_weight * g_z1
            g_f = g_feats * (f_pre > 0.0)
            g_h = (g_f @ w2.T) * (h_pre > 0.0)
            grads = [x0.T @ g_h, g_h.sum(axis=0), h.T @ g_f, g_f.sum(axis=0)]
            t += 1
            for a, g, ma, va in zip(params, grads, m, v):
                g = g + cfg.gen_weight_decay * a
                ma[...] = beta1 * ma + (1.0 - beta1) * g
                va[...] = beta2 * va + (1.0 - beta2) * g * g
                m_hat = ma / (1.0 - beta1**t)
                v_hat = va / (1.0 - beta2**t)
                a -= cfg.gen_learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return [(w1, b1), (w2, b2)], np.array(ce_trace), np.array(div_trace)


class TestTrainGenerator:
    @pytest.mark.parametrize("eq3_literal", [False, True])
    @pytest.mark.parametrize("epochs,batches", [(1, 1), (2, 3)])
    def test_matches_textbook_oracle(self, eq3_literal, epochs, batches):
        gen = make_generator(60, n_classes=3, feature_dim=6)
        snaps = [make_snapshot(61 + k) for k in range(3)]
        p = [0.5, 0.3, 0.2]
        cfg = small_cfg(
            gen_epochs=epochs, gen_batches=batches, gen_weight_decay=1e-3,
            diversity_weight=0.7, eq3_literal=eq3_literal,
        )
        student = aggregate.aggregate_student(snaps, p)
        out, trace = generator.train_generator(gen, student, len(snaps), cfg, seed=5)
        layers, ce, div = textbook_train(gen, snaps, p, cfg, seed=5)
        for (w, b), (ow, ob) in zip(layers, out.layers):
            np.testing.assert_allclose(ow, w, rtol=1e-12, atol=0)
            np.testing.assert_allclose(ob, b, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace["ce"], ce, rtol=1e-12)
        np.testing.assert_allclose(trace["diversity"], div, rtol=1e-12)

    def test_eq3_literal_rescales_only(self):
        # the literal form's 1/K factor is the same run against a head scaled by 1/K
        gen = make_generator(22, n_classes=3, feature_dim=6)
        clf = make_snapshot(23)
        halved = clf.copy()
        for a in halved.layers[-1]:
            a *= 0.5
        literal, lt = generator.train_generator(gen, clf, 2, small_cfg(eq3_literal=True), 3)
        plain, pt = generator.train_generator(gen, halved, 2, small_cfg(), 3)
        assert params_equal(literal, plain)
        assert np.array_equal(lt["ce"], pt["ce"])

    def test_label_pool_checked_once_per_call(self, monkeypatch):
        real_target_rows = nn.target_rows
        seen = []

        def counting_target_rows(targets, n_rows, n_cols):
            seen.append((n_rows, n_cols))
            return real_target_rows(targets, n_rows, n_cols)

        monkeypatch.setattr(nn, "target_rows", counting_target_rows)
        cfg = small_cfg(gen_epochs=3, gen_batches=4)
        generator.train_generator(make_generator(35), make_snapshot(36), 2, cfg, seed=1)
        # the whole pool, one label per step, never a single batch
        assert seen == [(12, 3)]

    def test_deeper_head_rejected(self):
        gen = make_generator(31, n_classes=3, feature_dim=6)
        deep = make_random_model(32, [4, 6, 5, 3], 1)
        with pytest.raises(ShapeError, match="2 layers"):
            generator.train_generator(gen, deep, 1, small_cfg(), 0)

    def test_no_participants_rejected(self):
        gen = make_generator(33, n_classes=3, feature_dim=6)
        with pytest.raises(ParameterError):
            generator.train_generator(gen, make_snapshot(34), 0, small_cfg(), 0)

    def test_zero_classifier_dead_gradient_constant_ce(self):
        gen = make_generator(23, n_classes=3, feature_dim=6)
        dead = nn.ModelParams(
            [(np.zeros((4, 6)), np.zeros(6)), (np.zeros((6, 3)), np.zeros(3))], 1
        )
        cfg = small_cfg(diversity_weight=0.0, gen_weight_decay=0.0)
        _, trace = generator.train_generator(gen, dead, 1, cfg, seed=0)
        np.testing.assert_allclose(trace["ce"], math.log(3.0), atol=1e-12)

    def test_snapshots_untouched_and_deterministic(self):
        gen = make_generator(24, n_classes=3, feature_dim=6)
        snap = make_random_model(25, [4, 6, 3], 1)
        before = snap.copy()
        cfg = small_cfg()
        out1, _ = generator.train_generator(gen, snap, 1, cfg, seed=7)
        assert params_equal(snap, before)
        out2, _ = generator.train_generator(gen, snap, 1, cfg, seed=7)
        assert params_equal(out1, out2)
        # input generator itself untouched
        assert params_equal(gen, make_generator(24, n_classes=3, feature_dim=6))

    def test_ce_improves_on_trained_classifier(self):
        # frozen 2-class classifier trained on separable blob features
        rng = np.random.default_rng(30)
        centers = np.array([[3.0, 0.0, 1.0, 0.0], [0.0, 3.0, 0.0, 1.0]])
        x = np.vstack(
            [centers[c] + 0.3 * rng.normal(size=(200, 4)) for c in (0, 1)]
        )
        x = np.maximum(x, 0.0)  # feature space is post-activation
        y = np.repeat([0, 1], 200)
        clf = nn.he_uniform_init([4, 2], 0, rng)
        st = nn.sgd_state(clf, 0.5)
        for _ in range(100):
            _, g = nn.softmax_ce_loss(nn.forward(clf, x), y)
            nn.optimizer_step(clf, nn.backward(clf, x, g), st)
        clf = nn.ModelParams(clf.layers, 0)  # whole model is the classifier

        improved = 0
        for seed in range(3):
            gen = make_generator(40 + seed, n_classes=2, feature_dim=4)
            cfg = small_cfg(
                n_classes=2, gen_epochs=4, gen_batches=25, diversity_weight=0.1
            )
            _, trace = generator.train_generator(gen, clf, 1, cfg, seed)
            first = trace["ce"][:25].mean()
            last = trace["ce"][-25:].mean()
            improved += last < first
        assert improved == 3


class TestSynthesizeLocal:
    def test_small_client_pool_augmented(self):
        gen = make_generator(50)
        synth = generator.LocalSynthesizer(gen, 3, 10, 10, 64, seed=0)
        assert len(synth.pool) == 100

    def test_regular_client_pool_unchanged(self):
        gen = make_generator(51)
        synth = generator.LocalSynthesizer(gen, 3, 500, 10, 64, seed=0)
        assert len(synth.pool) == 500

    def test_zero_epoch_client_pool_holds_one_epoch(self):
        gen = make_generator(55)
        synth = generator.LocalSynthesizer(gen, 3, 10, 0, 64, seed=0)
        assert len(synth.pool) == 10

    def test_draw_shapes(self):
        gen = make_generator(52)
        synth = generator.LocalSynthesizer(gen, 3, 200, 5, 32, seed=1)
        feats, rows = synth.draw()
        assert feats.shape == (32, 6)
        assert rows.shape == (32, 3)

    def test_draw_is_gen_forward_on_its_stream(self):
        gen = make_generator(56)
        # a small client: a pool of 3 epochs x 5 samples
        synth = generator.LocalSynthesizer(gen, 3, 5, 3, 8, seed=4)
        rng = np.random.default_rng(4)
        pool = generator.sample_label_pool(15, 3, rng)
        for _ in range(3):
            labels = pool[rng.permutation(15)[:8]]
            noise = rng.normal(size=(8, gen.input_width - 3))
            feats, rows = synth.draw()
            want, _ = generator.gen_forward(gen, noise, labels, 3)
            assert feats.tobytes() == want.tobytes()
            assert np.array_equal(rows, np.eye(3)[labels])

    def test_same_seed_identical_stream(self):
        gen = make_generator(53)
        a = generator.LocalSynthesizer(gen, 3, 90, 4, 32, seed=2)
        b = generator.LocalSynthesizer(gen, 3, 90, 4, 32, seed=2)
        for _ in range(4):
            (fa, ra), (fb, rb) = a.draw(), b.draw()
            assert np.array_equal(fa, fb) and np.array_equal(ra, rb)

    def test_tiny_pool_batches_capped(self):
        gen = make_generator(54)
        synth = generator.LocalSynthesizer(gen, 3, 4, 2, 64, seed=3)
        feats, _ = synth.draw()
        assert feats.shape[0] == 8  # pool of 2*4, smaller than one batch
