"""Experiment harness: metrics persistence, sweeps, and the generated-vs-real
feature-similarity analysis.

CSV is the output contract; plotting is out of scope.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import data, generator, nn, orchestrator, trainer
from .config import ExperimentConfig, parse_config
from .errors import ConfigError

# the RoundMetrics fields are the columns; one text form per column type
_COLUMNS = dataclasses.fields(orchestrator.RoundMetrics)
_CELL = {  # declared type -> (write, read)
    "int": (str, int),
    "float": ("{:.6f}".format, float),
    "list": (
        lambda ids: ";".join(str(k) for k in ids),
        lambda text: [int(v) for v in text.split(";")] if text else [],
    ),
}
METRICS_HEADER = ",".join(f.name for f in _COLUMNS)

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
                cells = (_CELL[f.type][0](getattr(r, f.name)) for f in _COLUMNS)
                fh.write(",".join(cells) + "\n")
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
            for lineno, line in enumerate(fh, 2):
                row = zip(_COLUMNS, line.rstrip("\n").split(","), strict=True)
                try:
                    values = [_CELL[f.type][1](cell) for f, cell in row]
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: malformed metrics row") from exc
                records.append(orchestrator.RoundMetrics(*values))
    except OSError as exc:
        raise OSError(f"cannot read metrics from {path}: {exc}") from exc
    return records


def make_out_dir(path) -> None:
    """Create the output directory ``path`` (``--out-dir``) unless it exists;
    a path that cannot be one (an existing regular file, say) is a
    ``ConfigError``."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out-dir {path}: not a directory") from exc


def sweep(path, overrides: dict, axis: str, values, out_dir) -> dict:
    """Run one configuration across one axis with shared seeds.

    Each point is ``parse_config(path, {**overrides, <key>: value})``, the
    config ``kdia run`` would build, so a key set in the file or the
    overrides (``gen_weight``, say) holds at every point. Writes
    ``<axis>=<value>.csv`` per value (first seed) and
    ``<axis>=<value>.seed<S>.csv`` for any additional seeds. Returns
    {value: {seed: metrics path}}. Every point is resolved before
    ``out_dir`` is created: a bad value, an empty list, or two values that
    give the same setting raise ``ConfigError``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    field = SWEEP_AXES[axis]
    cfgs: dict = {}
    for raw in values:
        cfg = parse_config(path, {**overrides, field: raw})
        value = getattr(cfg, field)
        if value in cfgs:
            raise ConfigError(f"sweep value {raw!r} repeats {axis}={value}")
        cfgs[value] = cfg
    if not cfgs:
        raise ConfigError(f"sweep over {axis} has no values")
    make_out_dir(out_dir)
    written: dict = {}
    for value, cfg in cfgs.items():
        written[value] = {}
        for i, seed in enumerate(cfg.seeds):
            result = orchestrator.run_experiment(cfg, seed)
            name = f"{axis}={value}.csv" if i == 0 else f"{axis}={value}.seed{seed}.csv"
            csv = os.path.join(out_dir, name)
            write_metrics(result.metrics, csv)
            written[value][seed] = csv
    return written


def train_centralized_reference(
    ds: data.Dataset, cfg: ExperimentConfig, seed, epochs: int = 100
) -> nn.ModelParams:
    """Oracle model trained on the pooled dataset, for similarity analysis:
    ``trainer.local_update`` with no teacher or generator, one permutation
    of every row per epoch."""
    rng = np.random.default_rng(seed)
    model = nn.he_uniform_init([cfg.d_in, cfg.feature_dim, cfg.n_classes], 1, rng)

    def batch_fn(epoch):
        order = rng.permutation(len(ds))
        return np.split(order, range(cfg.batch_size, len(ds), cfg.batch_size))

    reference_cfg = dataclasses.replace(cfg, local_epochs=epochs)
    (reference,), _ = trainer.local_update(
        model, None, ds.features, ds.labels, [trainer.Client(np.arange(len(ds)), batch_fn)], reference_cfg
    )
    return reference


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
