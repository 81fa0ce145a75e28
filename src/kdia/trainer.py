"""Per-client local training: classification loss, self-distillation against
the frozen teacher, and the generator-auxiliary term on synthetic features.

One SGD-momentum step runs per real batch. The teacher's tempered softmax on
the same batch supervises the student's tempered softmax. The teacher and
the client's rows stay fixed for the whole update, so that softmax is
computed once over all of the client's rows and indexed per batch; softmax
works row by row, so these are the per-batch targets up to the rounding of
the teacher's matmul. Synthetic feature batches enter through the
classifier-only path. By default one synthetic batch is drawn per epoch and
reused across that epoch's real batches, with ``syn_per_batch`` available to
resample per real batch instead.

The client's labels and the teacher's soft targets are checked by
``nn.target_rows`` once per update, and every batch reads its rows from
those checked arrays. Each step takes the student logits' row max once and
runs ``nn.tempered_ce`` on it twice, at temperature 1 for the labels and at
the distillation temperature for the teacher's targets; the synthetic
labels change with every draw and go through ``nn.softmax_ce_loss``.

The settings are read from the experiment's ``ExperimentConfig`` by their
key names; their ranges were checked when that config was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .config import ExperimentConfig
from .errors import ConfigError, ParameterError


@dataclass
class LocalStats:
    """Per-step loss traces from one local update."""

    ce: list = field(default_factory=list)
    kd: list = field(default_factory=list)
    gen: list = field(default_factory=list)


def kd_loss(
    student_logits: np.ndarray,
    teacher_logits: np.ndarray,
    temperature: float,
    kd_weight: float,
    tau_squared: bool = False,
) -> tuple[float, np.ndarray]:
    """Weighted distillation loss and its exact gradient w.r.t. student logits.

    Computed in the cross-entropy form against the teacher's tempered softmax,
    which shares its gradient with the KL form. ``tau_squared`` applies the
    classic temperature-squared rescaling (off by default).
    """
    student_logits = np.asarray(student_logits, dtype=np.float64)
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    if student_logits.shape != teacher_logits.shape:
        raise ParameterError("student and teacher logits must share a shape")
    if temperature <= 0:
        raise ParameterError("temperature must be > 0")
    if kd_weight == 0.0:
        return 0.0, np.zeros_like(student_logits)
    targets = nn.softmax(teacher_logits, temperature)
    loss, grad = nn.softmax_ce_loss(student_logits, targets, temperature)
    scale = _kd_scale(kd_weight, temperature, tau_squared)
    return scale * loss, scale * grad


def _kd_scale(kd_weight: float, temperature: float, tau_squared: bool) -> float:
    return kd_weight * (temperature**2 if tau_squared else 1.0)


def local_update(
    global_params: nn.ModelParams,
    teacher_params: nn.ModelParams | None,
    features: np.ndarray,
    labels: np.ndarray,
    batch_fn,
    cfg: ExperimentConfig,
    synth=None,
) -> tuple[nn.ModelParams, LocalStats]:
    """Run the local epochs over the client's rows ``features``/``labels``
    and return the client's updated model.

    ``batch_fn(epoch)`` returns that epoch's list of batches, each an array
    of row positions; ``synth`` (anything with ``draw()``) provides synthetic
    feature batches and may be None. The KD term runs only with a teacher
    and the generator term only with ``synth``, each when its weight in
    ``cfg`` is positive. Teacher and generator are read-only throughout, so
    the teacher's soft targets are computed once, over all of the rows.
    """
    params = global_params.copy()
    stats = LocalStats()
    if cfg.local_epochs == 0:
        return params, stats
    state = nn.sgd_state(
        params, cfg.learning_rate, cfg.momentum, cfg.weight_decay
    )
    use_kd = teacher_params is not None and cfg.kd_weight > 0.0
    use_gen = synth is not None and cfg.gen_weight > 0.0
    split = params.split_index
    head = params.layers[split:]
    n_rows, n_classes = len(features), params.layers[-1][0].shape[1]
    onehot = nn.target_rows(labels, n_rows, n_classes)
    if use_kd:
        teacher_probs = nn.target_rows(
            nn.softmax(nn.forward(teacher_params, features), cfg.temperature),
            n_rows,
            n_classes,
        )
        kd_scale = _kd_scale(cfg.kd_weight, cfg.temperature, cfg.kd_tau_squared)
    for epoch in range(cfg.local_epochs):
        real_batches = batch_fn(epoch)
        if not real_batches or min(map(len, real_batches)) == 0:
            raise ConfigError("client has no data batches, or an empty one")
        if use_gen and not cfg.syn_per_batch:
            syn_x, syn_y = synth.draw()
        for pos in real_batches:
            logits, inputs = nn.forward_layers(params.layers, features[pos])
            row_max = logits.max(axis=1)
            ce, grad_logits = nn.tempered_ce(logits, onehot[pos], 1.0, row_max)
            kd = 0.0
            if use_kd:
                kd, kd_grad = nn.tempered_ce(
                    logits, teacher_probs[pos], cfg.temperature, row_max
                )
                kd = kd_scale * kd
                grad_logits = grad_logits + kd_scale * kd_grad
            grads = nn.backward_layers(params.layers, inputs, grad_logits)
            gen = 0.0
            if use_gen:
                if cfg.syn_per_batch:
                    syn_x, syn_y = synth.draw()
                syn_logits, syn_inputs = nn.forward_layers(head, syn_x, split)
                gen_ce, gen_grad = nn.softmax_ce_loss(syn_logits, syn_y)
                gen = cfg.gen_weight * gen_ce
                cgrads = nn.backward_layers(head, syn_inputs, cfg.gen_weight * gen_grad)
                # the classifier layers are the tail of the flat vector
                grads[-cgrads.size :] += cgrads
            nn.optimizer_step(params, grads, state)
            stats.ce.append(ce)
            stats.kd.append(kd)
            stats.gen.append(gen)
    return params, stats


def evaluate(params: nn.ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties break to the lowest class."""
    preds = nn.forward(params, features).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())
