"""Experiment configuration: the one settings object that the round loop,
the local trainer and the server generator all read, with its defaults, the
type and range check of every key, and a flat key=value file format. The
field declarations are the only schema: text from a file, a CLI flag or a
sweep is parsed by the declared type of its key when the config is built.

Only one environment variable is honored: ``KDIA_SEED`` replaces the seed
list with a single master seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .freqs import WEIGHT_MODES

# generator-loss weight presets keyed by the Dirichlet concentration
GEN_WEIGHT_BY_BETA = {0.1: 0.01, 0.5: 1.0, 5.0: 0.01}
GEN_WEIGHT_FALLBACK = 0.01

# the range of every numeric key, checked when a config is built
_RANGES = (
    (">= 1", lambda v: v >= 1, (
        "n_classes", "samples_per_class", "d_in", "feature_dim", "gen_hidden",
        "n_clients", "rounds", "batch_size", "gen_epochs", "gen_batches",
        "gen_batch_size", "noise_dim",
    )),
    ("> 0", lambda v: v > 0, (
        "spread", "beta", "learning_rate", "temperature", "diversity_epsilon",
        "gen_learning_rate",
    )),
    (">= 0", lambda v: v >= 0, (
        "separation", "part_floor", "local_epochs", "weight_decay", "kd_weight",
        "diversity_weight", "gen_weight_decay",
    )),
)

_BOOL_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# per declared field type: what it is called, how its text is parsed, and
# which other values already have it (an int passes for a float key)
_TYPES = {
    "int": ("an int", int, _is_int),
    "float": ("a number", float, lambda v: _is_int(v) or isinstance(v, float)),
    "bool": ("a bool (true/false, yes/no, on/off, 1/0)",
             lambda t: _BOOL_WORDS[t.lower()], lambda v: isinstance(v, bool)),
    "str": ("text", str, lambda v: isinstance(v, str)),
    # seeds, written as comma-separated ints
    "tuple": ("a tuple of ints", lambda t: tuple(int(v) for v in t.split(",") if v.strip()),
              lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}


def _typed(key: str, kind: str, value):
    """``value`` as the declared type ``kind``: text is parsed, any other
    value must already have the type and is returned as given."""
    name, parse, has_type = _TYPES[kind]
    if isinstance(value, str):
        try:
            return parse(value.strip())
        except (KeyError, ValueError):
            pass
    elif has_type(value):
        return value
    raise ConfigError(f"{key} must be {name}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Flat experiment settings with the protocol's reference defaults.

    Building one brings every key to its declared type (text is parsed) and
    checks its range, float keys being finite; a failing key raises
    ``ConfigError`` naming it."""

    # synthetic dataset
    n_classes: int = 10
    samples_per_class: int = 500
    d_in: int = 32
    spread: float = 2.0
    separation: float = 4.0
    test_fraction: float = 0.2
    # model
    feature_dim: int = 64
    gen_hidden: int = 64
    # federation
    n_clients: int = 100
    sample_ratio: float = 0.1
    beta: float = 0.5
    rounds: int = 200
    mode: str = "tri-gm"
    part_floor: float = 0.0
    # local training
    local_epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-5
    kd_weight: float = 0.5
    gen_weight: float = -1.0  # sentinel: resolve from beta
    temperature: float = 2.0
    # generator training
    gen_epochs: int = 10
    gen_batches: int = 200
    gen_batch_size: int = 64
    noise_dim: int = 100
    diversity_weight: float = 1.0
    diversity_epsilon: float = 1e-5
    gen_learning_rate: float = 0.001
    gen_weight_decay: float = 1e-5
    # ablation flags
    disable_kd: bool = False
    disable_gen: bool = False
    eq3_literal: bool = False
    syn_per_batch: bool = False
    kd_tau_squared: bool = False
    # reproducibility
    seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = _typed(f.name, f.type, getattr(self, f.name))
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            setattr(self, f.name, value)
        for rule, holds, keys in _RANGES:
            for key in keys:
                value = getattr(self, key)
                if not holds(value):
                    raise ConfigError(f"{key} must be {rule}, got {value!r}")
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ConfigError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        # the per-class cut of data.train_test_split
        cut = int(round(self.samples_per_class * self.test_fraction))
        if cut in (0, self.samples_per_class):
            empty = "test" if cut == 0 else "training"
            raise ConfigError(
                f"samples_per_class = {self.samples_per_class} with test_fraction = "
                f"{self.test_fraction} leaves the {empty} split empty"
            )
        rows = self.n_classes * (self.samples_per_class - cut)
        if self.n_clients > rows:
            raise ConfigError(
                f"n_clients = {self.n_clients} exceeds the {rows} training rows "
                f"of n_classes = {self.n_classes}, samples_per_class = "
                f"{self.samples_per_class} and test_fraction = {self.test_fraction}"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.mode not in WEIGHT_MODES:
            raise ConfigError(f"mode must be one of {WEIGHT_MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seeds must be distinct, got {repeated[0]} twice")
        if not (self.gen_weight >= 0.0 or self.gen_weight == -1.0):
            raise ConfigError(f"gen_weight must be >= 0, got {self.gen_weight}")
        if self.gen_weight == -1.0:
            self.gen_weight = GEN_WEIGHT_BY_BETA.get(self.beta, GEN_WEIGHT_FALLBACK)


def heterogeneity_benchmark_config(seeds=(0, 1, 2)) -> ExperimentConfig:
    """Severe-heterogeneity desk benchmark: 10-class blobs, 20 clients,
    10% sampling, Dir(0.1), 100 rounds.

    The narrow feature width and wide class overlap put plain averaging well
    below the centralized ceiling, which is the regime where all-client
    teacher aggregation pays off."""
    return ExperimentConfig(
        n_clients=20,
        sample_ratio=0.1,
        beta=0.1,
        rounds=100,
        spread=3.0,
        feature_dim=16,
        seeds=tuple(seeds),
    )


_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config from an optional key=value file plus overrides.

    Unknown keys, and keys set twice in the file, are rejected by name.
    ``KDIA_SEED`` in the environment replaces the seed list.
    """
    values: dict = {}
    set_on: dict = {}  # key -> the file line that set it
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text") from exc
        for lineno, line in enumerate(lines, 1):
            # everything after '#' is a comment
            stripped = line.partition("#")[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in set_on:
                raise ConfigError(
                    f"{path}: {key!r} set twice, on lines {set_on[key]} and {lineno}"
                )
            values[key], set_on[key] = raw, lineno
    for key, value in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value
    env_seed = os.environ.get("KDIA_SEED")
    if env_seed is not None:
        values["seeds"] = (_typed("KDIA_SEED", "int", env_seed),)
    return ExperimentConfig(**values)
