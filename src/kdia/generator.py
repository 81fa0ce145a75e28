"""Conditional feature generator and its server-side training loop.

The generator maps (Gaussian noise, one-hot label) to classifier-input
features. On the server it trains against the frozen classifier parts of the
round's participating clients: the ensemble cross-entropy of their weighted
logits on generated features, plus a diversity term that pushes distinct
noise draws toward distinct features. Labels are pre-sampled into a pool and
reshuffled every epoch rather than drawn per batch, which keeps the overall
label mix close to uniform.

Clients use the same machinery with the generator frozen; clients with fewer
samples than one batch get an enlarged pool so every local epoch sees fresh
synthetic rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ParameterError, ShapeError


@dataclass
class GenTrainConfig:
    """Server-side generator training settings."""

    gen_epochs: int = 10
    gen_batches: int = 200
    batch_size: int = 64
    diversity_weight: float = 1.0
    diversity_epsilon: float = 1e-5
    learning_rate: float = 0.001
    weight_decay: float = 1e-5
    eq3_literal: bool = False

    def __post_init__(self):
        for name in ("gen_epochs", "gen_batches", "batch_size"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")
        if self.diversity_epsilon <= 0:
            raise ParameterError("diversity_epsilon must be > 0")


def sample_label_pool(length: int, n_classes: int, seed) -> np.ndarray:
    """Uniform i.i.d. class labels, deterministic per seed."""
    if length < 1:
        raise ParameterError(f"pool length must be >= 1, got {length}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_classes, size=length, dtype=np.int64)


def init_generator(
    noise_dim: int, n_classes: int, feature_dim: int, hidden_width: int,
    rng: np.random.Generator,
) -> nn.ModelParams:
    """Dense generator: (noise ++ one-hot label) -> hidden -> feature_dim."""
    return nn.he_uniform_init(
        [noise_dim + n_classes, hidden_width, feature_dim], 0, rng
    )


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def gen_forward(
    gen: nn.ModelParams, noise: np.ndarray, labels: np.ndarray, n_classes: int
) -> np.ndarray:
    """Generated feature batch for (noise, label) rows.

    The output passes through a final ReLU: real extractor features are
    post-activation, so generated features live in the same nonnegative space.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 2 or noise.shape[1] != gen.input_width - n_classes:
        raise ShapeError(
            f"noise width {noise.shape[-1]} != expected "
            f"{gen.input_width - n_classes}"
        )
    stacked = np.hstack([noise, _one_hot(np.asarray(labels), n_classes)])
    return np.maximum(nn.forward(gen, stacked), 0.0)


def diversity_loss(
    noise: np.ndarray, features: np.ndarray, eps: float
) -> tuple[float, np.ndarray]:
    """Mean over half-batch pairs of |noise gap| / (|feature gap| + eps).

    Row i of the first half is paired with row i of the second half; an odd
    trailing row is dropped. Returns the loss and its exact gradient with
    respect to ``features`` (zero for the dropped row and at coincident
    feature pairs, where the norm is not differentiable).
    """
    if eps < 0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    noise = np.asarray(noise, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    half = noise.shape[0] // 2
    grad = np.zeros_like(features)
    if half == 0:
        return 0.0, grad
    e_gap = noise[:half] - noise[half : 2 * half]
    z1 = features[:half]
    z2 = features[half : 2 * half]
    z_gap = z1 - z2
    num = np.sqrt((e_gap**2).sum(axis=1))
    z_norm = np.sqrt((z_gap**2).sum(axis=1))
    den = z_norm + eps
    loss = float((num / den).mean())
    scale = np.zeros(half)
    nonzero = z_norm > 0
    scale[nonzero] = -num[nonzero] / (den[nonzero] ** 2 * z_norm[nonzero] * half)
    grad[:half] = scale[:, None] * z_gap
    grad[half : 2 * half] = -grad[:half]
    return loss, grad


def ensemble_ce(
    feats: np.ndarray, classifiers, p, labels: np.ndarray, k_scale: float = 1.0
) -> tuple[float, np.ndarray]:
    """Cross-entropy of the weighted classifier ensemble on generated features
    and its exact gradient with respect to ``feats``.

    ``classifiers`` are frozen classifier layer stacks
    (``snap.layers[snap.split_index:]``), one per weight in ``p``. The
    ensemble logits are ``k_scale * sum_k p_k * logits_k``; ``k_scale`` is
    1/K for the literal Eq. 3 form and 1 otherwise, and only rescales the
    pre-softmax logits.
    """
    if not classifiers or len(classifiers) != len(p):
        raise ParameterError(
            f"{len(classifiers)} classifiers for {len(p)} ensemble weights"
        )
    traces = [nn.forward_layers(layers, feats) for layers in classifiers]
    logits = k_scale * sum(weight * out for (out, _), weight in zip(traces, p))
    ce, grad_logits = nn.softmax_ce_loss(logits, labels)
    grad_feats = sum(
        (weight * k_scale)
        * nn.backward_layers(layers, inputs, grad_logits).input_grad
        for layers, (_, inputs), weight in zip(classifiers, traces, p)
    )
    return ce, grad_feats


def train_generator(
    gen: nn.ModelParams,
    classifier_snapshots,
    p,
    cfg: GenTrainConfig,
    n_classes: int,
    seed,
) -> tuple[nn.ModelParams, dict]:
    """Server loop: pre-sample the label pool, then for every epoch shuffle
    it and run ``gen_batches`` Adam steps on the generator only.

    Batches walk the shuffled pool with wraparound, draw fresh Gaussian noise,
    and minimize ensemble cross-entropy plus the weighted diversity term.
    Classifier snapshots are never modified. Returns the updated generator and
    per-step loss traces.
    """
    snapshots = list(classifier_snapshots)
    if not snapshots:
        raise ParameterError("need at least one classifier snapshot")
    p = np.asarray(p, dtype=np.float64)
    classifiers = [snap.layers[snap.split_index :] for snap in snapshots]
    rng = np.random.default_rng(seed)
    noise_dim = gen.input_width - n_classes
    pool = sample_label_pool(cfg.gen_epochs * cfg.gen_batches, n_classes, rng)
    state = nn.adam_state(gen, cfg.learning_rate, cfg.weight_decay)
    ce_trace, div_trace = [], []
    k_scale = 1.0 / len(snapshots) if cfg.eq3_literal else 1.0
    for _ in range(cfg.gen_epochs):
        rng.shuffle(pool)
        epoch_noise = rng.normal(size=(cfg.gen_batches * cfg.batch_size, noise_dim))
        for b in range(cfg.gen_batches):
            lo = b * cfg.batch_size
            idx = np.arange(lo, lo + cfg.batch_size) % len(pool)
            labels = pool[idx]
            noise = epoch_noise[lo : lo + cfg.batch_size]
            stacked = np.hstack([noise, _one_hot(labels, n_classes)])
            pre, gen_inputs = nn.forward_layers(gen.layers, stacked)
            feats = np.maximum(pre, 0.0)
            ce, grad_feats = ensemble_ce(feats, classifiers, p, labels, k_scale)
            div, grad_div = diversity_loss(noise, feats, cfg.diversity_epsilon)
            grad_feats = grad_feats + cfg.diversity_weight * grad_div
            grads = nn.backward_layers(
                gen.layers, gen_inputs, grad_feats * (pre > 0.0)
            )
            gen, state = nn.optimizer_step(gen, grads, state)
            ce_trace.append(ce)
            div_trace.append(div)
    return gen, {"ce": np.array(ce_trace), "diversity": np.array(div_trace)}


class LocalSynthesizer:
    """Frozen-generator synthetic batches for one client.

    The label pool holds one entry per local sample, or ``local_epochs`` times
    that when the client owns fewer samples than a batch, so small clients see
    different synthetic rows every epoch. Each draw takes a fresh noise batch
    and a shuffled subset of the pool.
    """

    def __init__(
        self,
        gen: nn.ModelParams,
        n_classes: int,
        sample_count: int,
        local_epochs: int,
        batch_size: int,
        seed,
    ):
        if sample_count < 1:
            raise ParameterError("sample_count must be >= 1")
        self.gen = gen
        self.n_classes = n_classes
        self.batch_size = batch_size
        self.noise_dim = gen.input_width - n_classes
        self.rng = np.random.default_rng(seed)
        pool_len = (
            sample_count
            if sample_count >= batch_size
            else local_epochs * sample_count
        )
        self.pool = sample_label_pool(pool_len, n_classes, self.rng)

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        take = min(self.batch_size, len(self.pool))
        idx = self.rng.permutation(len(self.pool))[:take]
        labels = self.pool[idx]
        noise = self.rng.normal(size=(take, self.noise_dim))
        return gen_forward(self.gen, noise, labels, self.n_classes), labels

