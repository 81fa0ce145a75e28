import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdia import data, nn
from kdia.errors import ConfigError, ParameterError


def reference_make_blobs(n_classes, samples_per_class, d_in, spread, seed, separation=4.0):
    """The per-class loop ``data.make_blobs`` replaced: one noise draw and
    three full-class temporaries per class."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d_in))
    if n_classes > 1:
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        min_dist = dists[~np.eye(n_classes, dtype=bool)].min()
        if min_dist < separation:
            centers *= separation / min_dist
    features = np.empty((n_classes * samples_per_class, d_in))
    labels = np.empty(n_classes * samples_per_class, dtype=np.int64)
    for c in range(n_classes):
        lo = c * samples_per_class
        hi = lo + samples_per_class
        features[lo:hi] = centers[c] + spread * rng.normal(size=(samples_per_class, d_in))
        labels[lo:hi] = c
    return data.Dataset(features, labels, n_classes)


def reference_partition(ds, n_clients, beta, seed):
    """The per-client loop ``data.dirichlet_partition`` replaced: slices
    appended per class and client, one sort per client, and a repair that
    takes the argmax of every client's length once per empty client."""
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_clients)]
    for c in range(ds.n_classes):
        ix = np.flatnonzero(ds.labels == c)
        rng.shuffle(ix)
        g = rng.gamma(beta, 1.0, size=n_clients)
        while g.sum() <= 0.0:
            g = rng.gamma(beta, 1.0, size=n_clients)
        cuts = np.floor(np.cumsum(g / g.sum()) * len(ix)).astype(np.int64)
        cuts[-1] = len(ix)
        prev = 0
        for k in range(n_clients):
            buckets[k].append(ix[prev : cuts[k]])
            prev = cuts[k]
    client_indices = [np.sort(np.concatenate(parts)) for parts in buckets]
    for k in range(n_clients):
        while len(client_indices[k]) == 0:
            donor = int(np.argmax([len(ix) for ix in client_indices]))
            client_indices[k] = client_indices[donor][:1]
            client_indices[donor] = client_indices[donor][1:]
    return client_indices


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

    @given(
        st.integers(1, 6), st.integers(1, 30), st.integers(1, 5),
        st.floats(0.1, 5.0), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_class_reference(self, n_classes, per_class, d_in, spread, seed):
        got = data.make_blobs(n_classes, per_class, d_in, spread, seed)
        want = reference_make_blobs(n_classes, per_class, d_in, spread, seed)
        for a, b in ((got.features, want.features), (got.labels, want.labels)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

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

    @given(
        st.integers(1, 6), st.integers(1, 40), st.sampled_from([0.01, 0.1, 0.5, 10.0]),
        st.integers(0, 2**32 - 1), st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_client_reference(self, n_classes, per_class, beta, seed, draw):
        # labels in random order, so each class's ids interleave with the others'
        n = n_classes * per_class
        labels = np.random.default_rng(seed).permutation(np.arange(n) % n_classes)
        ds = data.Dataset(np.zeros((n, 1)), labels, n_classes)
        n_clients = draw.draw(st.integers(1, n), label="n_clients")
        got = data.dirichlet_partition(ds, n_clients, beta, seed).client_indices
        want = reference_partition(ds, n_clients, beta, seed)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_ten_thousand_clients_partition_quickly(self):
        labels = np.arange(16_000) % 10
        ds = data.Dataset(np.zeros((16_000, 1)), labels, 10)
        start = time.perf_counter()
        part = data.dirichlet_partition(ds, 10_000, beta=0.1, seed=0)
        elapsed = time.perf_counter() - start
        assert part.sizes().min() >= 1 and part.sizes().sum() == 16_000
        assert elapsed < 0.5


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
