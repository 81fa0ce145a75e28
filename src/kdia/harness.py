"""Experiment harness: metrics persistence, sweeps, and the generated-vs-real
feature-similarity analysis.

CSV is the output contract; plotting is out of scope.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import data, generator, nn, orchestrator
from .config import ExperimentConfig
from .errors import ConfigError

METRICS_HEADER = (
    "round,student_acc,teacher_acc,loss_ce,loss_kd,loss_gen,"
    "var_f_intv,var_f_part,var_f_num,selected"
)

SWEEP_AXES = {
    "N": "n_clients",
    "C": "sample_ratio",
    "beta": "beta",
    "mode": "mode",
}


def write_metrics(records, path) -> None:
    """One row per round; floats at 6 decimals, selected ids joined by ';'."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(METRICS_HEADER + "\n")
            for r in records:
                sel = ";".join(str(k) for k in r.selected)
                fh.write(
                    f"{r.round},{r.student_acc:.6f},{r.teacher_acc:.6f},"
                    f"{r.loss_ce:.6f},{r.loss_kd:.6f},{r.loss_gen:.6f},"
                    f"{r.var_f_intv:.6f},{r.var_f_part:.6f},{r.var_f_num:.6f},"
                    f"{sel}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def read_metrics(path):
    """Parse a metrics file back into RoundMetrics (6-decimal floats)."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != METRICS_HEADER:
                raise ConfigError(f"{path}: unexpected metrics header")
            for line in fh:
                parts = line.rstrip("\n").split(",")
                if len(parts) != 10:
                    raise ConfigError(f"{path}: malformed metrics row")
                sel = [int(v) for v in parts[9].split(";")] if parts[9] else []
                records.append(
                    orchestrator.RoundMetrics(
                        round=int(parts[0]),
                        student_acc=float(parts[1]),
                        teacher_acc=float(parts[2]),
                        loss_ce=float(parts[3]),
                        loss_kd=float(parts[4]),
                        loss_gen=float(parts[5]),
                        var_f_intv=float(parts[6]),
                        var_f_part=float(parts[7]),
                        var_f_num=float(parts[8]),
                        selected=sel,
                    )
                )
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
    return records


def quantize(records):
    """Records as they read back after 6-decimal CSV quantization."""
    out = []
    for r in records:
        vals = dataclasses.asdict(r)
        for name in (
            "student_acc",
            "teacher_acc",
            "loss_ce",
            "loss_kd",
            "loss_gen",
            "var_f_intv",
            "var_f_part",
            "var_f_num",
        ):
            vals[name] = float(f"{vals[name]:.6f}")
        out.append(orchestrator.RoundMetrics(**vals))
    return out


def sweep(base_cfg: ExperimentConfig, axis: str, values, out_dir) -> dict:
    """Run the base configuration across one axis with shared seeds.

    Writes ``<axis>=<value>.csv`` per value (first seed) and
    ``<axis>=<value>.seed<S>.csv`` for any additional seeds. Returns
    {value: {seed: metrics path}}.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    os.makedirs(out_dir, exist_ok=True)
    field = SWEEP_AXES[axis]
    written: dict = {}
    for value in values:
        cfg_kwargs = dataclasses.asdict(base_cfg)
        cfg_kwargs[field] = value
        if field == "beta":
            cfg_kwargs["gen_weight"] = -1.0  # re-resolve the per-beta preset
        cfg = ExperimentConfig(**cfg_kwargs)
        written[value] = {}
        for i, seed in enumerate(cfg.seeds):
            result = orchestrator.run_experiment(cfg, seed)
            name = f"{axis}={value}.csv" if i == 0 else f"{axis}={value}.seed{seed}.csv"
            path = os.path.join(out_dir, name)
            write_metrics(result.metrics, path)
            written[value][seed] = path
    return written


def train_centralized_reference(
    ds: data.Dataset, cfg: ExperimentConfig, seed, epochs: int = 100
) -> nn.ModelParams:
    """Oracle model trained on the pooled dataset, for similarity analysis."""
    rng = np.random.default_rng(seed)
    model = nn.he_uniform_init([cfg.d_in, cfg.feature_dim, cfg.n_classes], 1, rng)
    state = nn.sgd_state(model, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
    n = len(ds)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            ix = order[lo : lo + cfg.batch_size]
            x, y = ds.features[ix], ds.labels[ix]
            _, grad = nn.softmax_ce_loss(nn.forward(model, x), y)
            model, state = nn.optimizer_step(model, nn.backward(model, x, grad), state)
    return model


def mean_cosine(real: np.ndarray, generated: np.ndarray) -> float:
    """Mean of the full pairwise cosine-similarity matrix."""
    rn = np.linalg.norm(real, axis=1, keepdims=True)
    gn = np.linalg.norm(generated, axis=1, keepdims=True)
    rn = np.maximum(rn, 1e-12)
    gn = np.maximum(gn, 1e-12)
    sims = (real / rn) @ (generated / gn).T
    return float(sims.mean())


def feature_similarity(
    gen: nn.ModelParams,
    reference: nn.ModelParams,
    ds: data.Dataset,
    seed=0,
) -> np.ndarray:
    """Per-class mean cosine similarity of generated vs real features.

    Real features come from the reference model's extractor; for each class an
    equal-count batch is generated with that class label. Classes with no real
    samples get NaN.
    """
    rng = np.random.default_rng(seed)
    noise_dim = gen.input_width - ds.n_classes
    out = np.full(ds.n_classes, np.nan)
    for c in range(ds.n_classes):
        ix = np.flatnonzero(ds.labels == c)
        if ix.size == 0:
            continue
        real = nn.extract_features(reference, ds.features[ix])
        noise = rng.normal(size=(ix.size, noise_dim))
        generated = generator.gen_forward(
            gen, noise, np.full(ix.size, c, dtype=np.int64), ds.n_classes
        )
        out[c] = mean_cosine(real, generated)
    return out
