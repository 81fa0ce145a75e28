"""Microbenchmarks of kdia's numeric kernels at the widths the workloads use.

Each kernel reports microseconds per call (median over several timed
batches) with a computed operation count and a computed byte count. The
counts are models, not measurements: a dense layer costs ``2*B*in*out``
flop for its matmul plus one flop per output for the bias and one for the
activation; element-wise kernels count the element operations their code
performs; bytes count each input read once and each output written once,
8 bytes per float64, ignoring temporaries.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from kdia import generator, nn, trainer

BATCH = 64
N_CLASSES = 10
CLASSIFIER = [32, 16, 10]  # d_in -> feature_dim -> classes of the workloads
GENERATOR = [110, 64, 16]  # noise 100 + one-hot 10 -> gen_hidden -> feature_dim


def dense_cost(widths, batch: int, backward: bool) -> tuple[int, int]:
    """(flop, bytes) of ``nn.forward``, or of ``nn.backward`` (which repeats
    the forward pass before back-propagating) over a dense stack."""
    flop = nbytes = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        matmul = 2 * batch * fan_in * fan_out
        weights = fan_in * fan_out + fan_out
        flop += matmul + 2 * batch * fan_out
        nbytes += 8 * (batch * fan_in + weights + batch * fan_out)
        if backward:
            # weight grad, input grad, bias grad; reads delta, input, weights
            flop += 2 * matmul + batch * fan_out
            nbytes += 8 * (batch * fan_out + batch * fan_in + weights + weights + batch * fan_in)
    return flop, nbytes


def _time_us(fn, batches: int = 7, batch_seconds: float = 0.01) -> float:
    """Median microseconds per call over ``batches`` timed batches of calls."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= batch_seconds:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call) * 1e6


def kernel_cases(rng: np.random.Generator) -> dict:
    """{name: (call, flop, bytes)} for every kernel."""
    clf = nn.he_uniform_init(CLASSIFIER, 1, rng)
    gen = generator.init_generator(GENERATOR[0] - N_CLASSES, N_CLASSES, GENERATOR[2], GENERATOR[1], rng)
    x = rng.normal(size=(BATCH, CLASSIFIER[0]))
    stacked = rng.normal(size=(BATCH, GENERATOR[0]))
    feats = np.abs(rng.normal(size=(BATCH, CLASSIFIER[1])))
    noise = rng.normal(size=(BATCH, GENERATOR[0] - N_CLASSES))
    logits = rng.normal(size=(BATCH, N_CLASSES))
    teacher_logits = rng.normal(size=(BATCH, N_CLASSES))
    labels = rng.integers(0, N_CLASSES, size=BATCH)
    grad_logits = 1e-2 * rng.normal(size=(BATCH, N_CLASSES))
    grad_feats = 1e-2 * rng.normal(size=(BATCH, GENERATOR[2]))
    clf_grads = nn.backward(clf, x, grad_logits)
    gen_grads = nn.backward(gen, stacked, grad_feats)
    sgd = nn.sgd_state(clf, 0.01, 0.9, 1e-5)
    adam = nn.adam_state(gen, 1e-3, 1e-5)
    n_sgd = sum(w.size + b.size for w, b in clf.layers)
    n_adam = sum(w.size + b.size for w, b in gen.layers)
    cells = BATCH * N_CLASSES
    half = BATCH // 2
    head = CLASSIFIER[1:]
    return {
        "clf_32_16_10.forward": (lambda: nn.forward(clf, x), *dense_cost(CLASSIFIER, BATCH, False)),
        "clf_32_16_10.backward": (lambda: nn.backward(clf, x, grad_logits), *dense_cost(CLASSIFIER, BATCH, True)),
        "gen_110_64_16.forward": (lambda: nn.forward(gen, stacked), *dense_cost(GENERATOR, BATCH, False)),
        "gen_110_64_16.backward": (lambda: nn.backward(gen, stacked, grad_feats), *dense_cost(GENERATOR, BATCH, True)),
        "head_16_10.forward": (
            lambda: nn.forward(clf, feats, from_classifier_only=True),
            *dense_cost(head, BATCH, False),
        ),
        "head_16_10.backward": (
            lambda: nn.backward(clf, feats, grad_logits, from_classifier_only=True),
            *dense_cost(head, BATCH, True),
        ),
        # one-hot targets, scale, max-shift, exp, sum, log, product-sum, exp, grad
        "softmax_ce_loss_64x10": (lambda: nn.softmax_ce_loss(logits, labels), 12 * cells, 8 * 3 * cells),
        # tempered teacher softmax (5), tempered cross-entropy (12), weighting (2)
        "kd_loss_64x10": (lambda: trainer.kd_loss(logits, teacher_logits, 2.0, 0.5), 19 * cells, 8 * 3 * cells),
        # noise and feature gaps with their norms, ratio, and the feature gradient
        "diversity_loss_64x16": (
            lambda: generator.diversity_loss(noise, feats, 1e-5),
            3 * half * noise.shape[1] + 5 * half * feats.shape[1],
            8 * (noise.size + 2 * feats.size),
        ),
        # decay, momentum, update: reads params, grads, velocity; writes params, velocity
        f"sgd_step_{n_sgd}": (lambda: nn.optimizer_step(clf, clf_grads, sgd), 6 * n_sgd, 8 * 5 * n_sgd),
        # decay, two moments, bias corrections, sqrt, epsilon, divide, scale, update
        f"adam_step_{n_adam}": (lambda: nn.optimizer_step(gen, gen_grads, adam), 16 * n_adam, 8 * 7 * n_adam),
    }


def run_kernels(seed: int) -> dict:
    """{"nn.kernel.<name>.us" | ".flop" | ".bytes": value} for every kernel."""
    out = {}
    for name, (call, flop, nbytes) in kernel_cases(np.random.default_rng(seed)).items():
        out[f"nn.kernel.{name}.us"] = _time_us(call)
        out[f"nn.kernel.{name}.flop"] = flop
        out[f"nn.kernel.{name}.bytes"] = nbytes
    return out
