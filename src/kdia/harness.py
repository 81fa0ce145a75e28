"""Experiment harness: metrics persistence, sweeps, and the generated-vs-real
feature-similarity analysis.

CSV is the output contract; plotting is out of scope.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import data, files, generator, nn, orchestrator, trainer
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
    """One row per round; floats at 6 decimals, selected ids joined by ';'.
    The file is replaced whole, or a ``ConfigError`` names ``path``."""
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(",".join(_CELL[f.type][0](getattr(r, f.name)) for f in _COLUMNS))
    files.write(path, ("\n".join(lines) + "\n").encode("utf-8"), ConfigError)


def read_metrics(path):
    """Parse a metrics file back into RoundMetrics (6-decimal floats); any
    bad file is a ``ConfigError`` naming it."""
    text = files.read(path, ConfigError, text=True)
    header, *rows = text.removesuffix("\n").split("\n")
    if header != METRICS_HEADER:
        raise ConfigError(f"{path}: unexpected metrics header")
    records = []
    for lineno, line in enumerate(rows, 2):
        row = zip(_COLUMNS, line.split(","), strict=True)
        try:
            values = [_CELL[f.type][1](cell) for f, cell in row]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed metrics row") from exc
        records.append(orchestrator.RoundMetrics(*values))
    return records


def sweep(path, overrides: dict, axis: str, values, out_dir) -> dict:
    """Run one configuration across one axis with shared seeds.

    Each point is ``parse_config(path, {**overrides, <key>: value})``, the
    config ``kdia run`` would build, so a key set in the file or the
    overrides (``gen_weight``, say) holds at every point. Writes
    ``<axis>=<value>.csv`` per value (first seed) and
    ``<axis>=<value>.seed<S>.csv`` for any additional seeds. Returns
    {value: {seed: metrics path}}. Every point is resolved before
    ``out_dir`` is created: a bad value, an empty list, or two values that
    give the same setting raise ``ConfigError``, as a directory at a metrics path does.
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
    names = {}  # (value, seed) -> metrics file name
    for value, cfg in cfgs.items():
        for i, seed in enumerate(cfg.seeds):
            names[value, seed] = f"{axis}={value}" + (f".seed{seed}" if i else "") + ".csv"
    csvs = files.make_out_dir(out_dir, *names.values())
    written: dict = {}
    for (value, seed), csv in zip(names, csvs):
        result = orchestrator.run_experiment(cfgs[value], seed)
        write_metrics(result.metrics, csv)
        written.setdefault(value, {})[seed] = csv
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
        generated, _ = generator.gen_forward(
            gen, noise, np.full(ix.size, c, dtype=np.int64), ds.n_classes
        )
        out[c] = mean_cosine(real, generated)
    return out
