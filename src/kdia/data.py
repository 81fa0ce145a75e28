"""Synthetic classification data and Dirichlet partitioning across clients.

The dataset is a seeded Gaussian-blob stand-in for an image benchmark; the
partitioner reproduces the usual heterogeneity regimes by drawing, per class,
a proportion vector over clients from Dir(beta) and splitting that class's
samples by cumulative shares.
"""

from __future__ import annotations

import heapq
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
    # one draw for every class gives the stream of one draw per class in order
    noise = rng.normal(size=(n_classes, samples_per_class, d_in))
    noise *= spread
    noise += centers[:, None, :]
    features = noise.reshape(n_classes * samples_per_class, d_in)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), samples_per_class)
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

    Each class's sample ids are shuffled, then cut by the cumulative shares of
    its draw; a client's ids come out in ascending order. Empty clients are
    then repaired in ascending id order: each takes the smallest sample id of
    the currently largest client, the lowest id winning ties between equally
    large donors, so every client ends up with at least one sample.
    """
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if beta <= 0:
        raise ConfigError(f"beta must be > 0, got {beta}")
    n = len(ds)
    if n < n_clients:
        raise ConfigError(
            f"dataset of {n} samples cannot cover {n_clients} clients"
        )
    rng = np.random.default_rng(seed)
    parts = []
    cuts = np.empty((ds.n_classes, n_clients), dtype=np.int64)
    for c in range(ds.n_classes):
        ix = np.flatnonzero(ds.labels == c)
        rng.shuffle(ix)
        shares = _dirichlet(rng, beta, n_clients)
        cuts[c] = np.floor(np.cumsum(shares) * len(ix))
        cuts[c, -1] = len(ix)
        parts.append(ix)
    counts = np.diff(cuts, axis=1, prepend=0)  # class x client
    clients = np.arange(n_clients)
    owner = np.repeat(np.tile(clients, ds.n_classes), counts.ravel())
    # one sort groups the ids by owner, ascending within each client
    keys = owner * n + np.concatenate(parts)
    keys.sort()
    sizes = counts.sum(axis=0)
    ids = keys - np.repeat(clients * n, sizes)
    hi = np.cumsum(sizes)
    lo = hi - sizes
    # repair: a heap of (-size, id) over the clients that can spare a sample;
    # while a client is empty the largest one has >= 2, since n >= n_clients
    donors = np.flatnonzero(sizes >= 2)
    heap = list(zip((-sizes[donors]).tolist(), donors.tolist()))
    heapq.heapify(heap)
    for k in np.flatnonzero(sizes == 0).tolist():
        neg_size, donor = heapq.heappop(heap)
        lo[k], hi[k] = lo[donor], lo[donor] + 1
        lo[donor] += 1
        if neg_size <= -3:
            heapq.heappush(heap, (neg_size + 1, donor))
    return Partition([ids[a:b] for a, b in zip(lo.tolist(), hi.tolist())])


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
