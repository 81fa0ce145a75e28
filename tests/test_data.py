import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdia import data, nn
from kdia.errors import ConfigError, ParameterError


def entropy(hist):
    p = hist / hist.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


class TestMakeBlobs:
    def test_tiny_spread_collapses_to_centers(self):
        ds = data.make_blobs(3, 5, 4, spread=1e-12, seed=0)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.abs(rows - rows[0]).max() < 1e-9

    def test_counts_exact(self):
        ds = data.make_blobs(10, 500, 8, spread=1.0, seed=1)
        assert len(ds) == 5000
        assert (np.bincount(ds.labels) == 500).all()

    def test_deterministic_per_seed(self):
        a = data.make_blobs(4, 10, 6, spread=1.0, seed=42)
        b = data.make_blobs(4, 10, 6, spread=1.0, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_linear_probe_reaches_95_percent(self):
        # centralized oracle: one linear layer trained with plain SGD
        ds = data.make_blobs(10, 100, 16, spread=1.0, seed=7, separation=4.0)
        rng = np.random.default_rng(0)
        probe = nn.he_uniform_init([16, 10], 0, rng)
        state = nn.sgd_state(probe, learning_rate=0.05)
        for _ in range(200):
            logits = nn.forward(probe, ds.features)
            _, grad = nn.softmax_ce_loss(logits, ds.labels)
            grads = nn.backward(probe, ds.features, grad)
            nn.optimizer_step(probe, grads, state)
        preds = nn.forward(probe, ds.features).argmax(axis=1)
        assert (preds == ds.labels).mean() >= 0.95

    def test_bad_args_rejected(self):
        with pytest.raises(ParameterError):
            data.make_blobs(0, 10, 4, 1.0, 0)
        with pytest.raises(ParameterError):
            data.make_blobs(3, 10, 4, -1.0, 0)


class TestDirichletPartition:
    def test_huge_beta_near_uniform(self):
        ds = data.make_blobs(4, 100, 4, spread=1.0, seed=3)
        part = data.dirichlet_partition(ds, 4, beta=1e6, seed=5)
        for k in range(4):
            hist = data.label_histogram(part, ds, k)
            np.testing.assert_allclose(hist, 25.0, rtol=0.10)

    def test_single_client_owns_everything(self):
        ds = data.make_blobs(3, 20, 4, spread=1.0, seed=3)
        part = data.dirichlet_partition(ds, 1, beta=0.5, seed=5)
        assert len(part.client_indices[0]) == len(ds)

    def test_low_beta_more_skewed_than_high_beta(self):
        ds = data.make_blobs(10, 200, 4, spread=1.0, seed=3)
        means = {}
        for beta in (0.1, 5.0):
            ent = []
            for seed in range(5):
                part = data.dirichlet_partition(ds, 20, beta=beta, seed=seed)
                ent.extend(
                    entropy(data.label_histogram(part, ds, k)) for k in range(20)
                )
            means[beta] = np.mean(ent)
        assert means[0.1] < means[5.0]

    def test_disjoint_and_covering(self):
        ds = data.make_blobs(5, 60, 4, spread=1.0, seed=9)
        part = data.dirichlet_partition(ds, 7, beta=0.3, seed=11)
        seen = np.concatenate(part.client_indices)
        assert len(seen) == len(np.unique(seen))
        assert len(seen) == len(ds)
        assert part.sizes().min() >= 1

    def test_repair_under_extreme_skew(self):
        ds = data.make_blobs(2, 30, 4, spread=1.0, seed=13)
        for seed in range(20):
            part = data.dirichlet_partition(ds, 25, beta=0.05, seed=seed)
            assert part.sizes().min() >= 1
            assert part.sizes().sum() == len(ds)

    def test_deterministic(self):
        ds = data.make_blobs(5, 40, 4, spread=1.0, seed=1)
        a = data.dirichlet_partition(ds, 6, beta=0.5, seed=77)
        b = data.dirichlet_partition(ds, 6, beta=0.5, seed=77)
        for ia, ib in zip(a.client_indices, b.client_indices):
            assert np.array_equal(ia, ib)

    def test_too_many_clients_rejected(self):
        ds = data.make_blobs(2, 3, 4, spread=1.0, seed=1)
        with pytest.raises(ConfigError):
            data.dirichlet_partition(ds, 10, beta=0.5, seed=0)

    @given(st.integers(0, 10_000), st.sampled_from([0.1, 0.5, 5.0]))
    @settings(max_examples=25, deadline=None)
    def test_partition_invariants_hold(self, seed, beta):
        ds = data.make_blobs(4, 30, 3, spread=1.0, seed=2)
        part = data.dirichlet_partition(ds, 9, beta=beta, seed=seed)
        seen = np.concatenate(part.client_indices)
        assert len(seen) == len(np.unique(seen)) == len(ds)
        assert part.sizes().min() >= 1


class TestBatches:
    def test_short_dataset_single_batch(self):
        out = data.batches(10, batch_size=64, epoch_seed=0)
        assert len(out) == 1
        assert sorted(out[0].tolist()) == list(range(10))

    def test_chunk_sizes(self):
        out = data.batches(130, batch_size=64, epoch_seed=3)
        assert [len(pos) for pos in out] == [64, 64, 2]

    def test_same_epoch_seed_identical(self):
        a = data.batches(130, batch_size=64, epoch_seed=5)
        b = data.batches(130, batch_size=64, epoch_seed=5)
        for pa, pb in zip(a, b, strict=True):
            assert np.array_equal(pa, pb)

    def test_different_epoch_seed_differs(self):
        a = data.batches(130, batch_size=64, epoch_seed=5)
        b = data.batches(130, batch_size=64, epoch_seed=6)
        assert not np.array_equal(a[0], b[0])

    def test_positions_pick_the_shuffled_sample_ids(self):
        # the same batches as shuffling a client's sample ids themselves
        ds = data.make_blobs(2, 65, 4, spread=1.0, seed=21)
        part = data.dirichlet_partition(ds, 3, beta=1.0, seed=0)
        for ix in part.client_indices:
            shuffled = ix.copy()
            np.random.default_rng(7).shuffle(shuffled)
            pos = np.concatenate(data.batches(len(ix), batch_size=16, epoch_seed=7))
            assert np.array_equal(ix[pos], shuffled)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ParameterError):
            data.batches(10, batch_size=0, epoch_seed=0)


class TestSplitAndExport:
    def test_stratified_split(self):
        ds = data.make_blobs(5, 100, 4, spread=1.0, seed=31)
        train, test = data.train_test_split(ds, 0.2, seed=1)
        assert len(train) == 400 and len(test) == 100
        assert (np.bincount(test.labels, minlength=5) == 20).all()
