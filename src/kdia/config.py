"""Experiment configuration: defaults, a flat key=value file format, and
typed overrides shared by the library API and the CLI.

Only one environment variable is honored: ``KDIA_SEED`` replaces the seed
list with a single master seed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ConfigError
from .freqs import WEIGHT_MODES
from .generator import GenTrainConfig
from .trainer import TrainConfig

# generator-loss weight presets keyed by the Dirichlet concentration
GEN_WEIGHT_BY_BETA = {0.1: 0.01, 0.5: 1.0, 5.0: 0.01}
GEN_WEIGHT_FALLBACK = 0.01


@dataclass
class ExperimentConfig:
    """Flat experiment settings with the protocol's reference defaults."""

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
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ConfigError(f"sample_ratio must be in (0, 1], got {self.sample_ratio}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.n_clients < 1:
            raise ConfigError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.mode not in WEIGHT_MODES:
            raise ConfigError(f"mode must be one of {WEIGHT_MODES}, got {self.mode!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0, 1)")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if self.gen_weight < 0.0 and self.gen_weight != -1.0:
            raise ConfigError(f"gen_weight must be >= 0, got {self.gen_weight}")
        if self.gen_weight == -1.0:
            self.gen_weight = GEN_WEIGHT_BY_BETA.get(self.beta, GEN_WEIGHT_FALLBACK)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            local_epochs=self.local_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            kd_weight=0.0 if self.disable_kd else self.kd_weight,
            gen_weight=0.0 if self.disable_gen else self.gen_weight,
            temperature=self.temperature,
            kd_tau_squared=self.kd_tau_squared,
            syn_per_batch=self.syn_per_batch,
        )

    def gen_config(self) -> GenTrainConfig:
        return GenTrainConfig(
            gen_epochs=self.gen_epochs,
            gen_batches=self.gen_batches,
            batch_size=self.gen_batch_size,
            diversity_weight=self.diversity_weight,
            diversity_epsilon=self.diversity_epsilon,
            learning_rate=self.gen_learning_rate,
            weight_decay=self.gen_weight_decay,
            eq3_literal=self.eq3_literal,
        )

    @property
    def teacher_enabled(self) -> bool:
        # the teacher exists to distill; without the KD term it is unused
        return not self.disable_kd

    @property
    def generator_enabled(self) -> bool:
        return not self.disable_gen


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


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _convert(key: str, raw: str):
    f = _FIELDS[key]
    text = raw.strip()
    try:
        if f.type in ("int",):
            return int(text)
        if f.type in ("float",):
            return float(text)
        if f.type in ("bool",):
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if key == "seeds":
            return tuple(int(v) for v in text.split(",") if v.strip())
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def apply_overrides(values: dict, overrides: dict) -> None:
    for key, raw in overrides.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _convert(key, raw) if isinstance(raw, str) else raw


def parse_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config from an optional key=value file plus overrides.

    Unknown keys are rejected by name. ``KDIA_SEED`` in the environment
    replaces the seed list.
    """
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key not in _FIELDS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _convert(key, raw)
    if overrides:
        apply_overrides(values, overrides)
    env_seed = os.environ.get("KDIA_SEED")
    if env_seed is not None:
        try:
            values["seeds"] = (int(env_seed),)
        except ValueError as exc:
            raise ConfigError(f"KDIA_SEED must be an integer, got {env_seed!r}") from exc
    return ExperimentConfig(**values)
