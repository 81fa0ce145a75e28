import math

import numpy as np
import pytest

from conftest import make_random_model
from kdia import generator, nn
from kdia.errors import ParameterError, ShapeError
from kdia.gradcheck import fd_array_grad, max_relative_error


def small_cfg(**kw):
    base = dict(
        gen_epochs=2,
        gen_batches=10,
        batch_size=16,
        diversity_weight=1.0,
        diversity_epsilon=1e-5,
    )
    base.update(kw)
    return generator.GenTrainConfig(**base)


def make_generator(seed, noise_dim=8, n_classes=3, feature_dim=6, hidden=16):
    rng = np.random.default_rng(seed)
    return generator.init_generator(noise_dim, n_classes, feature_dim, hidden, rng)


def classifier_stacks(models):
    return [m.layers[m.split_index :] for m in models]


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
        feats = generator.gen_forward(gen, noise, np.array([0, 1, 2, 0]), 3)
        assert not feats.any()

    def test_identical_rows_identical_features(self):
        gen = make_generator(5)
        noise = np.tile(np.random.default_rng(1).normal(size=(1, 8)), (3, 1))
        labels = np.array([1, 1, 1])
        feats = generator.gen_forward(gen, noise, labels, 3)
        assert np.array_equal(feats[0], feats[1])
        assert np.array_equal(feats[1], feats[2])

    def test_label_flip_changes_output(self):
        gen = make_generator(6)
        noise = np.random.default_rng(2).normal(size=(1, 8))
        a = generator.gen_forward(gen, noise, np.array([0]), 3)
        b = generator.gen_forward(gen, noise, np.array([2]), 3)
        assert not np.array_equal(a, b)

    def test_features_nonnegative(self):
        gen = make_generator(7)
        noise = np.random.default_rng(3).normal(size=(10, 8))
        labels = np.random.default_rng(4).integers(0, 3, size=10)
        assert (generator.gen_forward(gen, noise, labels, 3) >= 0).all()

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


class TestTrainGenerator:
    def test_single_snapshot_ensemble_is_that_classifier(self):
        model = make_random_model(21, [4, 6, 3], 1)
        rng = np.random.default_rng(5)
        feats = np.abs(rng.normal(size=(5, 6)))
        labels = rng.integers(0, 3, size=5)
        ce, grad = generator.ensemble_ce(
            feats, classifier_stacks([model]), [1.0], labels
        )
        logits = nn.forward(model, feats, from_classifier_only=True)
        direct_ce, grad_logits = nn.softmax_ce_loss(logits, labels)
        direct = nn.backward(model, feats, grad_logits, from_classifier_only=True)
        assert ce == direct_ce
        assert np.array_equal(grad, direct.input_grad)

    def test_eq3_literal_rescales_only(self):
        models = [make_random_model(22 + i, [4, 6, 3], 1) for i in range(2)]
        rng = np.random.default_rng(6)
        feats = np.abs(rng.normal(size=(5, 6)))
        labels = rng.integers(0, 3, size=5)
        plain = sum(
            w * nn.forward(m, feats, from_classifier_only=True)
            for m, w in zip(models, [0.4, 0.6])
        )
        literal, _ = generator.ensemble_ce(
            feats, classifier_stacks(models), [0.4, 0.6], labels, k_scale=0.5
        )
        expect, _ = nn.softmax_ce_loss(plain / 2.0, labels)
        assert literal == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("k_scale", [1.0, 0.5])
    def test_ensemble_ce_feature_grad_matches_fd(self, k_scale):
        # two snapshots whose classifier part has a ReLU hidden layer
        stacks = classifier_stacks(
            [make_random_model(26 + i, [4, 6, 5, 3], 1) for i in range(2)]
        )
        rng = np.random.default_rng(28)
        feats = np.abs(rng.normal(size=(6, 6)))
        labels = rng.integers(0, 3, size=6)
        p = [0.3, 0.7]
        _, grad = generator.ensemble_ce(feats, stacks, p, labels, k_scale)
        numeric = fd_array_grad(
            lambda z: generator.ensemble_ce(z, stacks, p, labels, k_scale)[0], feats
        )
        assert max_relative_error(grad, numeric) < 1e-5

    def test_ensemble_weight_count_mismatch_rejected(self):
        stacks = classifier_stacks([make_random_model(29, [4, 6, 3], 1)])
        with pytest.raises(ParameterError):
            generator.ensemble_ce(np.ones((2, 6)), stacks, [0.5, 0.5], [0, 1])

    def test_zero_classifier_dead_gradient_constant_ce(self):
        gen = make_generator(23, n_classes=3, feature_dim=6)
        dead = nn.ModelParams(
            [(np.zeros((4, 6)), np.zeros(6)), (np.zeros((6, 3)), np.zeros(3))], 1
        )
        cfg = small_cfg(diversity_weight=0.0, weight_decay=0.0)
        _, trace = generator.train_generator(gen, [dead], [1.0], cfg, 3, seed=0)
        np.testing.assert_allclose(trace["ce"], math.log(3.0), atol=1e-12)

    def test_snapshots_untouched_and_deterministic(self):
        gen = make_generator(24, n_classes=3, feature_dim=6)
        snap = make_random_model(25, [4, 6, 3], 1)
        before = snap.copy()
        cfg = small_cfg()
        out1, _ = generator.train_generator(gen, [snap], [1.0], cfg, 3, seed=7)
        assert nn.params_equal(snap, before)
        out2, _ = generator.train_generator(gen, [snap], [1.0], cfg, 3, seed=7)
        assert nn.params_equal(out1, out2)
        # input generator itself untouched
        assert nn.params_equal(gen, make_generator(24, n_classes=3, feature_dim=6))

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
            clf, st = nn.optimizer_step(clf, nn.backward(clf, x, g), st)
        clf = nn.ModelParams(clf.layers, 0)  # whole model is the classifier

        improved = 0
        for seed in range(3):
            gen = make_generator(40 + seed, n_classes=2, feature_dim=4)
            cfg = small_cfg(
                gen_epochs=4, gen_batches=25, diversity_weight=0.1
            )
            _, trace = generator.train_generator(gen, [clf], [1.0], cfg, 2, seed)
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

    def test_draw_shapes(self):
        gen = make_generator(52)
        synth = generator.LocalSynthesizer(gen, 3, 200, 5, 32, seed=1)
        feats, labels = synth.draw()
        assert feats.shape == (32, 6)
        assert labels.shape == (32,)

    def test_same_seed_identical_stream(self):
        gen = make_generator(53)
        a = generator.LocalSynthesizer(gen, 3, 90, 4, 32, seed=2)
        b = generator.LocalSynthesizer(gen, 3, 90, 4, 32, seed=2)
        for _ in range(4):
            (fa, la), (fb, lb) = a.draw(), b.draw()
            assert np.array_equal(fa, fb) and np.array_equal(la, lb)

    def test_tiny_pool_batches_capped(self):
        gen = make_generator(54)
        synth = generator.LocalSynthesizer(gen, 3, 4, 2, 64, seed=3)
        feats, labels = synth.draw()
        assert feats.shape[0] == 8  # pool of 2*4, smaller than one batch
