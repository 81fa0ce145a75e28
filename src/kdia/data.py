"""Synthetic classification data and Dirichlet partitioning across clients.

The dataset is a seeded Gaussian-blob stand-in for an image benchmark; the
partitioner reproduces the usual heterogeneity regimes by drawing, per class,
a proportion vector over clients from Dir(beta) and splitting that class's
samples by cumulative shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError


@dataclass
class Dataset:
    """Feature matrix (samples x d_in) and integer class labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass
class Partition:
    """Per-client sample-index sets, disjoint by construction."""

    client_indices: list[np.ndarray]

    def sizes(self) -> np.ndarray:
        return np.array([len(ix) for ix in self.client_indices])


def make_blobs(
    n_classes: int,
    samples_per_class: int,
    d_in: int,
    spread: float,
    seed: int,
    separation: float = 4.0,
) -> Dataset:
    """Gaussian blobs around seeded random class centers.

    Centers are drawn from a standard normal and rescaled so the minimum
    pairwise center distance is at least ``separation``; each class then gets
    ``samples_per_class`` draws from an isotropic Gaussian with std ``spread``.
    """
    if n_classes < 1 or samples_per_class < 1 or d_in < 1:
        raise ParameterError("counts must be >= 1")
    if spread <= 0:
        raise ParameterError(f"spread must be > 0, got {spread}")
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
        features[lo:hi] = centers[c] + spread * rng.normal(
            size=(samples_per_class, d_in)
        )
        labels[lo:hi] = c
    return Dataset(features, labels, n_classes)


def train_test_split(ds: Dataset, test_fraction: float, seed: int):
    """Stratified split; returns (train Dataset, test Dataset)."""
    if not 0.0 < test_fraction < 1.0:
        raise ParameterError(f"test_fraction must be in (0,1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_ix, test_ix = [], []
    for c in range(ds.n_classes):
        ix = np.flatnonzero(ds.labels == c)
        rng.shuffle(ix)
        cut = int(round(len(ix) * test_fraction))
        test_ix.append(ix[:cut])
        train_ix.append(ix[cut:])
    train_ix = np.concatenate(train_ix)
    test_ix = np.concatenate(test_ix)
    return (
        Dataset(ds.features[train_ix], ds.labels[train_ix], ds.n_classes),
        Dataset(ds.features[test_ix], ds.labels[test_ix], ds.n_classes),
    )


def _dirichlet(rng: np.random.Generator, beta: float, n: int) -> np.ndarray:
    # per-component Gamma(beta, 1) draws normalized onto the simplex
    g = rng.gamma(beta, 1.0, size=n)
    total = g.sum()
    while total <= 0.0:  # all-zero draw possible for tiny beta underflow
        g = rng.gamma(beta, 1.0, size=n)
        total = g.sum()
    return g / total


def dirichlet_partition(
    ds: Dataset, n_clients: int, beta: float, seed: int
) -> Partition:
    """Split the dataset across clients, one Dir(beta) proportion draw per class.

    Empty clients are repaired by donating one sample from the currently
    largest client, so every client ends up with at least one sample.
    """
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if beta <= 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    if len(ds) < n_clients:
        raise ConfigError(
            f"dataset of {len(ds)} samples cannot cover {n_clients} clients"
        )
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in range(ds.n_classes):
        ix = np.flatnonzero(ds.labels == c)
        rng.shuffle(ix)
        shares = _dirichlet(rng, beta, n_clients)
        cuts = np.floor(np.cumsum(shares) * len(ix)).astype(np.int64)
        cuts[-1] = len(ix)
        prev = 0
        for k in range(n_clients):
            buckets[k].append(ix[prev : cuts[k]])
            prev = cuts[k]
    client_indices = [
        np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        for parts in buckets
    ]
    # repair: move one sample from the largest client into each empty one
    for k in range(n_clients):
        while len(client_indices[k]) == 0:
            donor = int(np.argmax([len(ix) for ix in client_indices]))
            client_indices[k] = client_indices[donor][:1]
            client_indices[donor] = client_indices[donor][1:]
    return Partition(client_indices)


def batches(n_rows: int, batch_size: int, epoch_seed):
    """Positions ``0..n_rows-1`` shuffled by ``epoch_seed`` and chunked; the
    last chunk may be short.

    The shuffle depends only on the length, so indexing a client's sample
    ids with these positions gives the same batches as shuffling the ids
    themselves. Callers gather the rows of each batch.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(epoch_seed).permutation(n_rows)
    return [order[lo : lo + batch_size] for lo in range(0, n_rows, batch_size)]


def label_histogram(part: Partition, ds: Dataset, client_id: int) -> np.ndarray:
    ix = part.client_indices[client_id]
    return np.bincount(ds.labels[ix], minlength=ds.n_classes)
