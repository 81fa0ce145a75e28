"""The server round loop: sample clients, run local updates, refresh the
ledger and registry, aggregate student and teacher, train the generator,
and evaluate both models.

Everything is driven by one master seed through per-purpose seed streams
(data, init, sampling, batches, synthesis, generator), so a serial rerun is
bit-for-bit reproducible and disabling one component never shifts the random
streams of another. The round's clients train together in one
``trainer.local_update`` call, and their updates are merged in ascending
client id.

``fedavg_reference`` is a deliberately separate, plain implementation of the
classic averaging round used to check that the full machinery degenerates to
it exactly when distillation and generation are switched off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import aggregate, data, freqs, generator, nn, trainer
from .config import ExperimentConfig
from .errors import ConfigError

# purpose tags for the per-stream seed derivation
_TAG_DATA, _TAG_SPLIT, _TAG_PART = 0, 1, 2
_TAG_INIT, _TAG_GEN_INIT = 3, 4
_TAG_SAMPLE, _TAG_BATCH, _TAG_SYNTH, _TAG_GEN = 5, 6, 7, 8


def _seed_for(master_seed: int, *tags: int) -> np.random.SeedSequence:
    """``SeedSequence([master_seed, *tags])``, given its entropy as the
    uint32 words numpy would make of that list: each int in 32-bit
    little-endian words. numpy converts an array of words faster."""
    words = []
    for value in (master_seed, *tags):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed values must be >= 0, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def _rng_for(master_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(_seed_for(master_seed, *tags))


def sample_clients(
    n_clients: int, sample_ratio: float, round_seed
) -> np.ndarray:
    """Uniform sample without replacement of max(1, round(N*C)) client ids."""
    if not 0.0 < sample_ratio <= 1.0:
        raise ConfigError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
    k = max(1, int(np.floor(n_clients * sample_ratio + 0.5)))
    rng = np.random.default_rng(round_seed)
    return np.sort(rng.choice(n_clients, size=k, replace=False))


@dataclass
class RoundMetrics:
    round: int
    student_acc: float
    teacher_acc: float
    loss_ce: float
    loss_kd: float
    loss_gen: float
    var_f_intv: float
    var_f_part: float
    var_f_num: float
    selected: list


@dataclass
class FedState:
    """Mutable experiment state owned by the round loop."""

    cfg: ExperimentConfig
    master_seed: int
    train_ds: data.Dataset
    test_ds: data.Dataset
    partition: data.Partition
    ledger: freqs.ClientLedger
    student: nn.ModelParams
    teacher: nn.ModelParams | None
    registry: aggregate.ModelRegistry | None
    gen: nn.ModelParams | None
    weights_history: list = field(default_factory=list)


def _setup(cfg: ExperimentConfig, master_seed: int):
    """Train/test data, client partition and initial classifier of one master
    seed: the setup the protocol and the plain-FedAvg reference share."""
    ds = data.make_blobs(
        cfg.n_classes,
        cfg.samples_per_class,
        cfg.d_in,
        cfg.spread,
        seed=_seed_for(master_seed, _TAG_DATA),
        separation=cfg.separation,
    )
    train_ds, test_ds = data.train_test_split(
        ds, cfg.test_fraction, seed=_seed_for(master_seed, _TAG_SPLIT)
    )
    partition = data.dirichlet_partition(
        train_ds, cfg.n_clients, cfg.beta, seed=_seed_for(master_seed, _TAG_PART)
    )
    model = nn.he_uniform_init(
        [cfg.d_in, cfg.feature_dim, cfg.n_classes],
        1,
        _rng_for(master_seed, _TAG_INIT),
    )
    return train_ds, test_ds, partition, model


def build_state(cfg: ExperimentConfig, master_seed: int) -> FedState:
    """Materialize data, partition, and initial models for one master seed."""
    train_ds, test_ds, partition, student = _setup(cfg, master_seed)
    # the teacher exists to distill; without the KD term it is unused
    teacher = registry = gen = None
    if not cfg.disable_kd:
        teacher = student.copy()
        registry = aggregate.ModelRegistry(student, cfg.n_clients)
    if not cfg.disable_gen:
        gen = generator.init_generator(
            cfg.noise_dim,
            cfg.n_classes,
            cfg.feature_dim,
            cfg.gen_hidden,
            _rng_for(master_seed, _TAG_GEN_INIT),
        )
    ledger = freqs.ClientLedger(partition.sizes())
    return FedState(
        cfg, master_seed, train_ds, test_ds, partition, ledger,
        student, teacher, registry, gen,
    )


def _client_batch_fn(state: FedState, t: int, client_id: int):
    n_rows = len(state.partition.client_indices[client_id])

    def batch_fn(epoch: int):
        return data.batches(
            n_rows,
            state.cfg.batch_size,
            epoch_seed=_seed_for(state.master_seed, _TAG_BATCH, t, client_id, epoch),
        )

    return batch_fn


@contextmanager
def _phase(t: int, phase: str, ids, rows=()):
    """Reword an ``ArithmeticError`` raised inside as "round t, client k,
    phase: ...", chained to it. A ``trainer.ClientError`` names
    ``ids[index]``, any other error the ids whose row in ``rows`` is
    non-finite; with every row finite the phase failed on its own."""
    try:
        yield
    except ArithmeticError as exc:
        if isinstance(exc, trainer.ClientError):
            bad = [ids[exc.index]]
        else:
            bad = [k for k, row in zip(ids, rows) if not np.isfinite(row).all()]
        clients = f", client {', '.join(str(int(k)) for k in bad)}" if bad else ""
        raise ArithmeticError(f"round {t}{clients}, {phase}: {exc}") from exc


def run_round(state: FedState, t: int) -> RoundMetrics:
    """One full communication round; mutates ``state`` in place.

    A non-finite value in a local update, teacher or student evaluation or
    generator training raises ``ArithmeticError`` naming the round, the
    phase and the client(s) at fault, chained to the original error."""
    cfg = state.cfg
    selected = sample_clients(
        cfg.n_clients, cfg.sample_ratio, _seed_for(state.master_seed, _TAG_SAMPLE, t)
    )
    clients = []
    for k in selected:
        rows = state.partition.client_indices[k]
        synth = None
        if state.gen is not None and cfg.gen_weight > 0.0:
            synth = generator.LocalSynthesizer(
                state.gen,
                cfg.n_classes,
                len(rows),
                cfg.local_epochs,
                cfg.batch_size,
                seed=_seed_for(state.master_seed, _TAG_SYNTH, t, k),
            )
        clients.append(trainer.Client(rows, _client_batch_fn(state, t, int(k)), synth))
    with _phase(t, "local update", selected):
        updates, all_stats = trainer.local_update(
            state.student,
            state.teacher,
            state.train_ds.features,
            state.train_ds.labels,
            clients,
            cfg,
        )

    state.ledger.record_round(selected, t)
    weights = freqs.round_weights(state.ledger, cfg.mode, cfg.part_floor)
    state.weights_history.append(weights)

    if state.registry is not None:
        for k, updated in zip(selected, updates):
            state.registry.update(int(k), updated)
    state.student = aggregate.aggregate_student(updates, weights.student)
    teacher_acc = 0.0
    if state.registry is not None:
        state.teacher = aggregate.aggregate_teacher(
            state.registry, weights.log_coefs, weights.log_factors
        )
        with _phase(t, "teacher evaluation", range(cfg.n_clients), state.registry.stored):
            teacher_acc = trainer.evaluate(
                state.teacher, state.test_ds.features, state.test_ds.labels
            )
    fresh = [u.flat for u in updates]
    if state.gen is not None:
        with _phase(t, "server generator", selected, fresh):
            state.gen, _ = generator.train_generator(
                state.gen,
                state.student,
                len(updates),
                cfg,
                seed=_seed_for(state.master_seed, _TAG_GEN, t),
            )
    with _phase(t, "student evaluation", selected, fresh):
        student_acc = trainer.evaluate(
            state.student, state.test_ds.features, state.test_ds.labels
        )
    steps = [v for s in all_stats for v in s.ce]
    kd_steps = [v for s in all_stats for v in s.kd]
    gen_steps = [v for s in all_stats for v in s.gen]
    return RoundMetrics(
        round=t,
        student_acc=student_acc,
        teacher_acc=teacher_acc,
        loss_ce=float(np.mean(steps)) if steps else 0.0,
        loss_kd=float(np.mean(kd_steps)) if kd_steps else 0.0,
        loss_gen=float(np.mean(gen_steps)) if gen_steps else 0.0,
        var_f_intv=float(weights.interval.var()),
        var_f_part=float(weights.participation.var()),
        var_f_num=float(weights.volume.var()),
        selected=[int(k) for k in selected],
    )


@dataclass
class ExperimentResult:
    metrics: list
    best_student_acc: float
    best_teacher_acc: float
    final_model_kind: str
    final_model: nn.ModelParams
    state: FedState


def run_experiment(
    cfg: ExperimentConfig, master_seed: int, round_hook=None
) -> ExperimentResult:
    """Run the configured number of rounds and pick the final model by
    held-out performance; both accuracy curves stay in the metrics.

    ``round_hook(t, state, record)`` is called after every round when given.
    """
    state = build_state(cfg, master_seed)
    metrics = []
    best_student, best_teacher = -1.0, -1.0
    best_student_params = state.student.copy()
    best_teacher_params = state.teacher.copy() if state.teacher is not None else None
    for t in range(cfg.rounds):
        rec = run_round(state, t)
        metrics.append(rec)
        if rec.student_acc > best_student:
            best_student = rec.student_acc
            best_student_params = state.student.copy()
        if state.teacher is not None and rec.teacher_acc > best_teacher:
            best_teacher = rec.teacher_acc
            best_teacher_params = state.teacher.copy()
        if round_hook is not None:
            round_hook(t, state, rec)
    if best_teacher_params is not None and best_teacher >= best_student:
        kind, final = "teacher", best_teacher_params
    else:
        kind, final = "student", best_student_params
    return ExperimentResult(
        metrics, best_student, max(best_teacher, 0.0), kind, final, state
    )


@dataclass
class FedAvgRun:
    final_model: nn.ModelParams
    round_models: list
    accuracies: list
    selected_sets: list


def fedavg_reference(cfg: ExperimentConfig, master_seed: int) -> FedAvgRun:
    """Plain federated averaging, written as its own straight-line loop.

    Shares the setup (data, partition, initial model) and the primitives
    (seed streams, the layer kernels, the optimizer step) with the main
    loop; the round logic is reimplemented so the two paths can be compared
    bit-for-bit when the main loop runs with distillation and generation
    disabled.
    """
    train_ds, test_ds, part, model = _setup(cfg, master_seed)
    sizes = part.sizes().astype(np.float64)
    per_round_models, accs, selected_sets = [], [], []
    for t in range(cfg.rounds):
        selected = sample_clients(
            cfg.n_clients, cfg.sample_ratio, _seed_for(master_seed, _TAG_SAMPLE, t)
        )
        selected_sets.append([int(k) for k in selected])
        locals_ = []
        for k in selected:
            ix = part.client_indices[k]
            params = model.copy()
            st = nn.sgd_state(
                params, cfg.learning_rate, cfg.momentum, cfg.weight_decay
            )
            for epoch in range(cfg.local_epochs):
                for pos in data.batches(
                    len(ix),
                    cfg.batch_size,
                    epoch_seed=_seed_for(master_seed, _TAG_BATCH, t, int(k), epoch),
                ):
                    x, y = train_ds.features[ix[pos]], train_ds.labels[ix[pos]]
                    logits, inputs = nn.forward_layers(params.layers, x)
                    _, grad = nn.softmax_ce_loss(logits, y)
                    grads = nn.backward_layers(params.layers, inputs, grad)
                    nn.optimizer_step(params, grads, st)
            locals_.append(params)
        p = sizes[selected] / sizes[selected].sum()
        agg = [
            (p[0] * w, p[0] * b) for w, b in locals_[0].layers
        ]
        for m, wt in zip(locals_[1:], p[1:]):
            for i, (w, b) in enumerate(m.layers):
                agg[i] = (agg[i][0] + wt * w, agg[i][1] + wt * b)
        model = nn.ModelParams(agg, model.split_index)
        per_round_models.append(model.copy())
        accs.append(trainer.evaluate(model, test_ds.features, test_ds.labels))
    return FedAvgRun(model, per_round_models, accs, selected_sets)
