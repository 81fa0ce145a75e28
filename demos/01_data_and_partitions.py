"""Synthetic data and Dirichlet heterogeneity.

Builds the Gaussian-blob classification task and splits it across clients
with per-class Dirichlet(beta) draws. Smaller beta concentrates each class
on few clients, so per-client label distributions get skewed and client
sizes get lopsided -- the heterogeneity regimes the simulator sweeps over.
"""

import numpy as np

from kdia import data

ds = data.make_blobs(n_classes=10, samples_per_class=500, d_in=32, spread=2.0, seed=0)
train, test = data.train_test_split(ds, test_fraction=0.2, seed=1)
print(f"dataset: {len(ds)} samples, {ds.n_classes} classes, "
      f"{ds.features.shape[1]} features ({len(train)} train / {len(test)} test)")


def client_entropy(hist):
    p = hist / hist.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


for beta in (0.1, 0.5, 5.0):
    part = data.dirichlet_partition(train, n_clients=10, beta=beta, seed=7)
    sizes = part.sizes()
    entropies = [
        client_entropy(np.bincount(train.labels[ix], minlength=train.n_classes))
        for ix in part.client_indices
    ]
    print(f"\nDir({beta}):  client sizes {sizes.tolist()}")
    print(f"  label-entropy per client: "
          f"{' '.join(f'{e:.2f}' for e in entropies)} (uniform would be {np.log(10):.2f})")

# the most skewed case, class by class, for one client
part = data.dirichlet_partition(train, n_clients=10, beta=0.1, seed=7)
hist = np.bincount(train.labels[part.client_indices[0]], minlength=train.n_classes)
print(f"\nclient 0 under Dir(0.1) holds {hist.sum()} samples with class counts:")
print("  " + " ".join(f"{c}:{n}" for c, n in enumerate(hist)))

# identical seeds give identical partitions; batching reshuffles per epoch
again = data.dirichlet_partition(train, n_clients=10, beta=0.1, seed=7)
assert all(
    np.array_equal(a, b)
    for a, b in zip(part.client_indices, again.client_indices)
)
# batches are chunks of positions into the client's rows
n_rows = len(part.client_indices[0])
b0 = data.batches(n_rows, batch_size=64, epoch_seed=0)
b1 = data.batches(n_rows, batch_size=64, epoch_seed=1)
print(f"\nclient 0 batches: {[len(pos) for pos in b0]} (epoch 0), "
      f"same sizes but reshuffled at epoch 1: {not np.array_equal(b0[0], b1[0])}")
