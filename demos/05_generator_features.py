"""Conditional feature generation and the pre-sampled label pool.

The server trains a generator that maps (Gaussian noise, class label) to
classifier-input features against the frozen classifiers of participating
clients. Labels are drawn into a pool up front and reshuffled each epoch:
longer pools sit closer to a uniform class mix than independent per-batch
draws, which is the point of pre-sampling. Small clients get their pool
enlarged so every local epoch sees fresh synthetic rows.
"""

import numpy as np

from kdia import data, generator, harness, nn
from kdia.config import ExperimentConfig

rng = np.random.default_rng(0)

# label pools: longer is closer to uniform
for length in (64, 640, 12800):
    devs = []
    for seed in range(20):
        pool = generator.sample_label_pool(length, 10, seed=seed)
        freq = np.bincount(pool, minlength=10) / length
        devs.append(np.abs(freq - 0.1).max())
    print(f"pool length {length:6d}: mean max deviation from uniform "
          f"{np.mean(devs):.4f}")

# pool sizing: a 10-sample client training 10 epochs gets a 100-label pool
gen = generator.init_generator(noise_dim=16, n_classes=4, feature_dim=8,
                               hidden_width=16, rng=rng)
small = generator.LocalSynthesizer(gen, 4, sample_count=10, local_epochs=10,
                                   batch_size=64, seed=1)
big = generator.LocalSynthesizer(gen, 4, sample_count=500, local_epochs=10,
                                 batch_size=64, seed=1)
print(f"\nlabel pool: {len(small.pool)} for a 10-sample client, "
      f"{len(big.pool)} for a 500-sample client")

# train the generator against a classifier fitted on a 4-class feature task
cfg = ExperimentConfig(n_classes=4, samples_per_class=150, d_in=8, spread=1.0,
                       feature_dim=8, noise_dim=16, gen_hidden=32, gen_epochs=6,
                       gen_batches=40, gen_batch_size=32, seeds=(0,))
ds = data.make_blobs(cfg.n_classes, cfg.samples_per_class, cfg.d_in,
                     cfg.spread, seed=2)
reference = harness.train_centralized_reference(ds, cfg, seed=3, epochs=60)
feats = nn.extract_features(reference, ds.features)
print(f"\nreference task model trained centrally; feature space is "
      f"{feats.shape[1]}-dimensional and nonnegative (min {feats.min():.1f})")

gen = generator.init_generator(cfg.noise_dim, cfg.n_classes, cfg.feature_dim,
                               cfg.gen_hidden, np.random.default_rng(4))
before = harness.feature_similarity(gen, reference, ds, seed=5)
gen, trace = generator.train_generator(gen, [reference], [1.0],
                                       cfg.gen_config(), cfg.n_classes, seed=6)
after = harness.feature_similarity(gen, reference, ds, seed=5)

print(f"generator ensemble CE: {trace['ce'][:40].mean():.3f} (first epoch) -> "
      f"{trace['ce'][-40:].mean():.3f} (last epoch)")
print("\nper-class cosine similarity of generated vs real features:")
for c in range(cfg.n_classes):
    print(f"  class {c}: {before[c]:+.3f} untrained -> {after[c]:+.3f} trained")
