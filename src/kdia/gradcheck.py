"""Central finite-difference gradient verification.

The ``fd_*`` functions are the independent oracles for every analytic
gradient in the package: they only ever evaluate loss values, never the code
paths that produce analytic gradients. ``run_suite`` is the randomized suite
that acceptance criterion 2 and ``kdia gradcheck`` both run.
"""

from __future__ import annotations

import numpy as np

from . import generator, nn, trainer

DEFAULT_STEP = 1e-5
# pass limits of ``report``, the same as acceptance criterion 2's
LIMITS = {"dense": 1e-4, "relu": 1e-4, "softmax-ce": 1e-5, "kd": 1e-5, "div": 1e-5}


def fd_array_grad(loss_fn, x: np.ndarray) -> np.ndarray:
    """Central differences of a scalar function over every entry of ``x``."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_STEP
        up = loss_fn(x)
        flat[i] = orig - DEFAULT_STEP
        down = loss_fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * DEFAULT_STEP)
    return grad


def fd_model_grads(loss_fn, params: nn.ModelParams):
    """Central differences over every weight and bias of a model.

    ``loss_fn`` maps a ModelParams to a float. Returns one vector in
    ``params.flat`` order.
    """
    layout = params.layout
    return fd_array_grad(
        lambda flat: loss_fn(nn.ModelParams.from_flat(flat, layout)), params.flat
    )


def max_relative_error(analytic, numeric) -> float:
    """Largest elementwise |a - n| / max(|a|, |n|, 1e-3) over both arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
    return float((np.abs(a - n) / denom).max())


def _dense_ce_error(model: nn.ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Worst relative error of ``nn.backward_layers`` through softmax
    cross-entropy, over every weight and bias of ``model``."""
    logits, inputs = nn.forward_layers(model.layers, x)
    _, grad_logits = nn.softmax_ce_loss(logits, y)
    analytic = nn.backward_layers(model.layers, inputs, grad_logits)
    numeric = fd_model_grads(
        lambda p: nn.softmax_ce_loss(nn.forward(p, x), y)[0], model
    )
    return max_relative_error(analytic, numeric)


def run_suite(instances: int, seed: int) -> dict:
    """Worst relative error per gradient category over ``instances`` random
    draws from one ``seed``: ``dense`` (one dense layer), ``relu`` (a dense
    stack with a ReLU hidden layer), ``softmax-ce`` (tempered), ``kd``
    (distillation) and ``div`` (the generator's diversity term)."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(LIMITS, 0.0)
    for _ in range(instances):
        for name, widths, rows in (("dense", [4, 3], 5), ("relu", [3, 5, 3], 4)):
            model = nn.he_uniform_init(widths, 1, rng)
            x = rng.normal(size=(rows, widths[0]))
            y = rng.integers(0, widths[-1], size=rows)
            worst[name] = max(worst[name], _dense_ce_error(model, x, y))

        tau = float(rng.uniform(0.5, 5.0))
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, g = nn.softmax_ce_loss(logits, labels, tau)
        numeric = fd_array_grad(lambda z: nn.softmax_ce_loss(z, labels, tau)[0], logits)
        worst["softmax-ce"] = max(worst["softmax-ce"], max_relative_error(g, numeric))

        t_logits = rng.normal(size=(6, 4))
        _, g = trainer.kd_loss(logits, t_logits, tau, 0.5)
        numeric = fd_array_grad(
            lambda z: trainer.kd_loss(z, t_logits, tau, 0.5)[0], logits
        )
        worst["kd"] = max(worst["kd"], max_relative_error(g, numeric))

        noise = rng.normal(size=(6, 3))
        feats = rng.normal(size=(6, 4))
        _, g = generator.diversity_loss(noise, feats, eps=1e-3)
        numeric = fd_array_grad(
            lambda z: generator.diversity_loss(noise, z, eps=1e-3)[0], feats
        )
        worst["div"] = max(worst["div"], max_relative_error(g, numeric))
    return worst


def report(instances: int, seed: int) -> int:
    """Run the suite, print one PASS/FAIL line per category against
    ``LIMITS``, and return the exit status (1 if any category fails)."""
    failed = False
    for name, err in run_suite(instances, seed).items():
        ok = err < LIMITS[name]
        failed |= not ok
        print(f"{name}: max relative error {err:.3e} (limit {LIMITS[name]:.0e}) "
              f"{'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0
