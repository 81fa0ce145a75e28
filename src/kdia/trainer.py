"""Per-client local training: classification loss, self-distillation against
the frozen teacher, and the generator-auxiliary term on synthetic features.

One SGD-momentum step runs per real batch. The teacher's tempered softmax on
the same batch supervises the student's tempered softmax; synthetic feature
batches enter through the classifier-only path. By default one synthetic
batch is drawn per epoch and reused across that epoch's real batches, with
``syn_per_batch`` available to resample per real batch instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ConfigError, ParameterError


@dataclass
class TrainConfig:
    """Local-update hyperparameters."""

    local_epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    kd_weight: float = 0.5
    gen_weight: float = 0.01
    temperature: float = 2.0
    kd_tau_squared: bool = False
    syn_per_batch: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ParameterError("temperature must be > 0")
        if self.kd_weight < 0 or self.gen_weight < 0:
            raise ParameterError("loss weights must be >= 0")
        if self.local_epochs < 0 or self.batch_size < 1:
            raise ParameterError("bad epoch or batch count")


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
    scale = kd_weight * (temperature**2 if tau_squared else 1.0)
    return scale * loss, scale * grad


def local_update(
    global_params: nn.ModelParams,
    teacher_params: nn.ModelParams | None,
    batch_fn,
    cfg: TrainConfig,
    synth=None,
) -> tuple[nn.ModelParams, LocalStats]:
    """Run the local epochs and return the client's updated model.

    ``batch_fn(epoch)`` returns that epoch's list of real ``(features,
    labels)`` batches; ``synth`` (anything with ``draw()``) provides synthetic
    feature batches and may be None. Teacher and generator are read-only
    throughout.
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
    for epoch in range(cfg.local_epochs):
        real_batches = batch_fn(epoch)
        if not real_batches:
            raise ConfigError("client has no data batches")
        if use_gen and not cfg.syn_per_batch:
            syn_x, syn_y = synth.draw()
        for x, y in real_batches:
            logits = nn.forward(params, x)
            ce, grad_logits = nn.softmax_ce_loss(logits, y)
            kd = 0.0
            if use_kd:
                teacher_logits = nn.forward(teacher_params, x)
                kd, kd_grad = kd_loss(
                    logits,
                    teacher_logits,
                    cfg.temperature,
                    cfg.kd_weight,
                    cfg.kd_tau_squared,
                )
                grad_logits = grad_logits + kd_grad
            grads = nn.backward(params, x, grad_logits)
            gen = 0.0
            if use_gen:
                if cfg.syn_per_batch:
                    syn_x, syn_y = synth.draw()
                syn_logits = nn.forward(params, syn_x, from_classifier_only=True)
                gen_ce, gen_grad = nn.softmax_ce_loss(syn_logits, syn_y)
                gen = cfg.gen_weight * gen_ce
                cgrads = nn.backward(
                    params,
                    syn_x,
                    cfg.gen_weight * gen_grad,
                    from_classifier_only=True,
                )
                # the classifier layers are the tail of the flat vector
                grads.flat[-cgrads.flat.size :] += cgrads.flat
            params, state = nn.optimizer_step(params, grads, state)
            stats.ce.append(ce)
            stats.kd.append(kd)
            stats.gen.append(gen)
    return params, stats


def evaluate(params: nn.ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties break to the lowest class."""
    preds = nn.forward(params, features).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())
