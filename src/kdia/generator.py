"""Conditional feature generator and its server-side training loop.

The generator maps (Gaussian noise, one-hot label) to classifier-input
features. On the server it trains against the frozen classifier parts of the
round's participating clients: the ensemble cross-entropy of their weighted
logits on generated features, plus a diversity term that pushes distinct
noise draws toward distinct features. Labels are pre-sampled into a pool and
reshuffled every epoch rather than drawn per batch, which keeps the overall
label mix close to uniform.

Each classifier part is one dense layer, and the ensemble weights are the
student's aggregation weights, so the ensemble's logits are those of the
student aggregate's classifier head: every step runs that head forward and
back. The loop trains a copy of the generator in place, reusing one input
buffer and writing the loss traces into preallocated arrays. The label pool
is checked once per call, and each step's cross-entropy reads its one-hot
rows from that input buffer. Its settings
are the ``gen_*``, ``diversity_*`` and ``eq3_literal`` keys of the
experiment's ``ExperimentConfig``, range-checked when that config was built.

Clients use the same machinery with the generator frozen; clients with fewer
samples than one batch get an enlarged pool so every local epoch sees fresh
synthetic rows.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .config import ExperimentConfig
from .errors import ParameterError, ShapeError


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


def gen_forward(
    gen: nn.ModelParams, noise: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generated features for (noise, label) rows, and the labels' one-hot rows.

    The output passes through a final ReLU: real extractor features are
    post-activation, so generated features live in the same nonnegative space.
    Labels are checked by ``nn.target_rows``: one per noise row, integers in
    ``[0, n_classes)``.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 2 or noise.shape[1] != gen.input_width - n_classes:
        raise ShapeError(
            f"noise width {noise.shape[-1]} != expected "
            f"{gen.input_width - n_classes}"
        )
    rows = nn.target_rows(labels, noise.shape[0], n_classes)
    return np.maximum(nn.forward(gen, np.hstack([noise, rows])), 0.0), rows


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


def train_generator(
    gen: nn.ModelParams,
    classifier: nn.ModelParams,
    n_participants: int,
    cfg: ExperimentConfig,
    seed,
) -> tuple[nn.ModelParams, dict]:
    """Server loop: pre-sample the label pool, then for every epoch shuffle
    it and run ``cfg.gen_batches`` Adam steps on the generator only.

    ``classifier`` is the student aggregate of ``n_participants`` client
    updates. Its head must be one dense layer (else ``ShapeError``), whose
    logits the literal Eq. 3 form scales by 1/``n_participants``.

    Batches of ``cfg.gen_batch_size`` walk the shuffled pool with wraparound,
    draw fresh Gaussian noise, and minimize ensemble cross-entropy plus the
    weighted diversity term. ``gen`` and ``classifier`` are never modified.
    Returns the updated copy of the generator and per-step loss traces.
    """
    if n_participants < 1:
        raise ParameterError(f"need at least one participant, got {n_participants}")
    head = classifier.layers[classifier.split_index :]
    if len(head) != 1:
        raise ShapeError(f"classifier part has {len(head)} layers, the ensemble needs one")
    ((w, b),) = head
    k_scale = 1.0 / n_participants if cfg.eq3_literal else 1.0
    w, b = k_scale * w, k_scale * b
    rng = np.random.default_rng(seed)
    n_classes, batch_size = cfg.n_classes, cfg.gen_batch_size
    noise_dim = gen.input_width - n_classes
    steps = cfg.gen_epochs * cfg.gen_batches
    pool = sample_label_pool(steps, n_classes, rng)
    # checked once: each step's one-hot rows are then read from the input buffer
    nn.target_rows(pool, len(pool), n_classes)
    gen = gen.copy()
    state = nn.adam_state(gen, cfg.gen_learning_rate, cfg.gen_weight_decay)
    ce_trace, div_trace = np.empty(steps), np.empty(steps)
    # one input buffer: the batch's noise, then its one-hot labels
    stacked = np.zeros((batch_size, noise_dim + n_classes))
    noise = np.empty((batch_size, noise_dim))
    rows = np.arange(batch_size)
    step = 0
    for _ in range(cfg.gen_epochs):
        rng.shuffle(pool)
        for batch in range(cfg.gen_batches):
            labels = pool[(batch * batch_size + rows) % len(pool)]
            # batch by batch, the same stream as one epoch-sized draw
            rng.standard_normal(out=noise)
            stacked[:, :noise_dim] = noise
            stacked[:, noise_dim:] = 0.0
            stacked[rows, noise_dim + labels] = 1.0
            pre, gen_inputs = nn.forward_layers(gen.layers, stacked)
            feats = np.maximum(pre, 0.0)
            logits, _ = nn.forward_layers([(w, b)], feats)
            ce, grad_logits = nn.tempered_ce(logits, stacked[:, noise_dim:])
            grad_feats = grad_logits @ w.T
            div, grad_div = diversity_loss(noise, feats, cfg.diversity_epsilon)
            grad_feats += cfg.diversity_weight * grad_div
            grad_feats *= pre > 0.0
            grads = nn.backward_layers(gen.layers, gen_inputs, grad_feats)
            nn.optimizer_step(gen, grads, state)
            ce_trace[step], div_trace[step] = ce, div
            step += 1
    return gen, {"ce": ce_trace, "diversity": div_trace}


class LocalSynthesizer:
    """Frozen-generator synthetic batches for one client.

    The label pool holds one entry per local sample, or ``local_epochs`` times
    that (at least once) when the client owns fewer samples than a batch, so
    small clients see different synthetic rows every epoch. Each draw takes a
    fresh noise batch and a shuffled subset of the pool.
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
            else max(local_epochs, 1) * sample_count
        )
        self.pool = sample_label_pool(pool_len, n_classes, self.rng)

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """A synthetic batch from ``gen_forward``: the generated features and
        the checked one-hot rows of their labels."""
        take = min(self.batch_size, len(self.pool))
        idx = self.rng.permutation(len(self.pool))[:take]
        noise = self.rng.normal(size=(take, self.noise_dim))
        return gen_forward(self.gen, noise, self.pool[idx], self.n_classes)

