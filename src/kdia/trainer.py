"""Per-client local training: classification loss, self-distillation against
the frozen teacher, and the generator-auxiliary term on synthetic features.

One SGD-momentum step runs per real batch. The teacher's tempered softmax on
the same batch supervises the student's tempered softmax. The teacher and
the clients' rows stay fixed for the whole update, so those targets are
computed once, before any step, and indexed per batch; softmax works row by
row, so these are the per-batch targets up to the rounding of the teacher's
matmul. Synthetic feature batches enter through the classifier-only path. By
default one synthetic batch is drawn per epoch and reused across that
epoch's real batches, with ``syn_per_batch`` available to resample per real
batch instead.

``local_update`` trains all of a round's clients in lockstep. It gathers
their rows into one block, one slice per client, and builds the targets of
the whole block first. Each client's code is then its own serial loop,
written as a generator: it yields the block rows and synthetic batch of each
step in order, drawing from the client's own batch and synthesis streams. At
every tick each running loop yields its next step, and the clients whose
batches have the same row count (and synthetic batches the same row count)
run one stacked step: the ``nn`` kernels over ``(G, rows, width)`` arrays,
one slice per client. Every client's arithmetic is the one it would run on
its own, so the results are bit-identical to training the clients one after
another. A short batch is never padded, because matmul rows depend on the
row count: it steps with the clients whose batch has its row count at that
tick, or as a group of one. The working set is the clients' rows and checked
targets, the current epoch's batches and one step's stacked arrays.

The labels and the teacher's soft targets are each checked by one
``nn.target_rows`` call over the update's block, and the teacher's logits go
through one ``nn.softmax``. The teacher's forward pass runs once per client
on the client's rows, not once over the block: a matmul row's bits depend on
the row count, so only a per-client forward gives every client the targets
it would get trained alone. Every synthetic draw comes with the one-hot rows
its synthesizer checked; each step reads its rows from those checked arrays.
Each step takes the student logits' row max once and runs ``nn.tempered_ce``
on it twice, at temperature 1 for the labels and at the distillation
temperature for the teacher's targets.

Clients share no state, so one client's failure cannot change another's
run. Every loop runs to its end or to its first error (a non-finite value,
say), and then the lowest-indexed failing client's error is raised: the one
the serial loop raises, with the same client, message and cause. A block
target check that raises runs again on each client's rows, only to find the
clients that fail; those clients, and any whose teacher forward raises,
never start a loop. A stacked step that raises is queued again as groups of
one, which find the clients that failed through the same step code.

The settings are read from the experiment's ``ExperimentConfig`` by their
key names; their ranges were checked when that config was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import nn
from .config import ExperimentConfig
from .errors import ConfigError, ParameterError, ShapeError


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
) -> tuple[float, np.ndarray]:
    """Weighted distillation loss and its exact gradient w.r.t. student logits.

    Computed in the cross-entropy form against the teacher's tempered softmax,
    which shares its gradient with the KL form.
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
    return kd_weight * loss, kd_weight * grad


@dataclass
class Client:
    """One client of a lockstep ``local_update``: ``rows`` indexes its rows
    in the shared features and labels, ``batch_fn(epoch)`` returns that
    epoch's list of batches (arrays of positions in ``range(len(rows))``),
    and ``synth`` (anything whose ``draw()`` returns a synthetic feature
    batch and its checked one-hot label rows, or None) provides its
    synthetic batches."""

    rows: np.ndarray
    batch_fn: Callable
    synth: object = None


class ClientError(ArithmeticError):
    """The local update of ``clients[index]`` went non-finite; the message is
    the original error's, which is chained as the cause."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def local_update(
    global_params: nn.ModelParams,
    teacher_params: nn.ModelParams | None,
    features: np.ndarray,
    labels: np.ndarray,
    clients,
    cfg: ExperimentConfig,
) -> tuple[list, list]:
    """Run the local epochs of every ``Client`` in ``clients`` from
    ``global_params`` and return ``(models, stats)``, one entry per client.

    ``features``/``labels`` hold the rows that the clients index. The KD
    term runs only with a teacher and the generator term only for clients
    with a ``synth``, each when its weight in ``cfg`` is positive. Teacher
    and generator are read-only throughout.
    Once every client has run to its end or first error, the
    lowest-indexed failing client's error is raised; an ``ArithmeticError``
    comes as ``ClientError`` naming the client's index.
    """
    layout, split = global_params.layout, global_params.split_index
    features, labels = np.asarray(features, dtype=np.float64), np.asarray(labels)
    if len(labels) != len(features):
        raise ShapeError(f"{len(features)} feature rows but {len(labels)} labels")
    # one block of the clients' rows back to back: each client's rows are a slice
    order = np.concatenate([c.rows for c in clients])
    features, labels = features[order], labels[order]
    offsets = np.cumsum([0] + [len(c.rows) for c in clients])
    # one row of parameters and one of velocity per client
    theta = np.tile(global_params.flat, (len(clients), 1))
    stats = [LocalStats() for _ in clients]
    models = [nn.ModelParams.from_flat(row, layout) for row in theta]
    if cfg.local_epochs == 0:
        return models, stats
    vel = np.zeros_like(theta)
    use_kd = teacher_params is not None and cfg.kd_weight > 0.0
    n_classes = global_params.layers[-1][0].shape[1]
    # ``kd_tau_squared`` applies the classic temperature-squared rescaling
    kd_scale = cfg.kd_weight * (cfg.temperature**2 if cfg.kd_tau_squared else 1.0)
    n_rows = len(order)
    failed: dict = {}  # client index -> the error its setup or loop raised

    def per_client(out, rows_of):
        """``out[lo:hi] = rows_of(lo, hi)`` for the rows of each client that
        has not failed; a client whose call raises fails with its error."""
        for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            if i not in failed:
                try:
                    out[lo:hi] = rows_of(lo, hi)
                except (ArithmeticError, ValueError) as exc:
                    failed[i] = exc
        return out

    def checked(values):
        """``nn.target_rows`` of ``values(lo, hi)`` once over the block; if
        that raises, or a client has no rows, the check runs on each
        client's rows instead, to find the clients that fail."""
        if np.diff(offsets).min() > 0:
            try:
                return nn.target_rows(values(0, n_rows), n_rows, n_classes)
            except (ArithmeticError, ValueError):
                pass
        return per_client(
            np.zeros((n_rows, n_classes)),
            lambda lo, hi: nn.target_rows(values(lo, hi), hi - lo, n_classes),
        )

    onehot = checked(lambda lo, hi: labels[lo:hi])
    probs = None
    if use_kd:
        # the teacher forward runs per client, as a matmul row's bits depend
        # on the row count; the softmax works row by row
        logits = per_client(
            np.zeros((n_rows, n_classes)),
            lambda lo, hi: nn.forward(teacher_params, features[lo:hi]),
        )
        probs = checked(lambda lo, hi: nn.softmax(logits[lo:hi], cfg.temperature))

    def serial_loop(client, lo):
        """The client's own serial loop from block row ``lo``: yields
        ``(block positions, synthetic batch or None)`` for each of its steps
        in order."""
        gen = cfg.gen_weight > 0.0 and client.synth is not None
        syn = None
        for epoch in range(cfg.local_epochs):
            real = client.batch_fn(epoch)
            if not real or min(map(len, real)) == 0:
                raise ConfigError("client has no data batches, or an empty one")
            for b, pos in enumerate(real):
                if gen and (b == 0 or cfg.syn_per_batch):
                    syn = client.synth.draw()
                yield lo + pos, syn

    def step(th, v, rows, syn):
        """One SGD step of the ``(G, P)`` models ``th`` (velocities ``v``)
        on the ``(G, M)`` block positions ``rows`` and the stacked
        synthetic batch ``syn``; returns the (G,) ce, kd and gen terms."""
        model = nn.ModelParams.from_flat(th, layout)
        logits, inputs = nn.forward_layers(model.layers, features[rows])
        row_max = logits.max(axis=-1)
        ce, grad_logits = nn.tempered_ce(logits, onehot[rows], 1.0, row_max)
        kd = gen = None
        if use_kd:
            kd, kd_grad = nn.tempered_ce(logits, probs[rows], cfg.temperature, row_max)
            kd = kd_scale * kd
            grad_logits = grad_logits + kd_scale * kd_grad
        grads = nn.backward_layers(model.layers, inputs, grad_logits)
        if syn is not None:
            head = model.layers[split:]
            syn_logits, syn_inputs = nn.forward_layers(head, syn[0], split)
            gen_ce, gen_grad = nn.tempered_ce(syn_logits, syn[1])
            gen = cfg.gen_weight * gen_ce
            cgrads = nn.backward_layers(head, syn_inputs, cfg.gen_weight * gen_grad)
            # the classifier layers are the tail of the flat vector
            grads[..., -cgrads.shape[-1] :] += cgrads
        state = nn.OptimizerState(
            "sgd", cfg.learning_rate, cfg.weight_decay, momentum=cfg.momentum, slots=(v,)
        )
        nn.optimizer_step(model, grads, state)
        return ce, kd, gen

    # the running loops in client order; a loop leaves at its end or first
    # error, and a client whose setup failed never starts one
    loops = {
        i: serial_loop(c, lo)
        for i, (c, lo) in enumerate(zip(clients, offsets))
        if i not in failed
    }
    while loops:
        groups: dict = {}
        for i, loop in list(loops.items()):
            try:
                rows, syn = next(loop)
            except StopIteration:
                del loops[i]
                continue
            except (ArithmeticError, ValueError) as exc:
                failed[i] = exc
                del loops[i]
                continue
            key = (len(rows), None if syn is None else len(syn[0]))
            groups.setdefault(key, []).append((i, rows, syn))
        queue = list(groups.values())
        for members in queue:
            ids = [i for i, _, _ in members]
            rows = np.concatenate([r for _, r, _ in members]).reshape(len(ids), -1)
            stacked = None
            if members[0][2] is not None:
                stacked = tuple(np.stack([s[k] for _, _, s in members]) for k in (0, 1))
            # the group steps a gathered copy of its rows, written back after
            th, v = theta[ids], vel[ids]
            try:
                ce, kd, gen = step(th, v, rows, stacked)
            except (ArithmeticError, ValueError) as exc:
                if len(members) > 1:
                    # step its clients again one by one to find who failed
                    queue.extend([m] for m in members)
                else:
                    failed[ids[0]] = exc
                    del loops[ids[0]]
                continue
            theta[ids], vel[ids] = th, v
            for g, i in enumerate(ids):
                stats[i].ce.append(float(ce[g]))
                stats[i].kd.append(0.0 if kd is None else float(kd[g]))
                stats[i].gen.append(0.0 if gen is None else float(gen[g]))
    if failed:
        i = min(failed)
        if isinstance(failed[i], ArithmeticError):
            raise ClientError(i, str(failed[i])) from failed[i]
        raise failed[i]
    return models, stats


def evaluate(params: nn.ModelParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; ties break to the lowest class."""
    preds = nn.forward(params, features).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())
