"""Client participation bookkeeping and triple-frequency aggregation weights.

The teacher model is aggregated over *all* clients with weights built from
three per-client frequencies:

* interval frequency  -- exp(-(t - t_k)) normalized, where t_k is the last
  round client k participated in (-1 before any participation);
* participation frequency -- share of total participation counts;
* volume frequency    -- share of total sample counts (constant over rounds).

The default combination is their normalized geometric mean, which sends the
weight of never-participated clients to exactly zero. The student weights are
plain data-volume shares over the currently selected set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, ProtocolError

WEIGHT_MODES = ("intv", "part", "num", "tri-am", "tri-gm")


class ClientLedger:
    """Per-client bookkeeping, mutated only between rounds by the round loop.

    ``last_round[k]`` is the last round client k was selected (-1 for never),
    ``part_counts[k]`` how many rounds it has participated in, and
    ``sample_counts[k]`` its fixed local dataset size.
    """

    def __init__(self, sample_counts):
        counts = np.asarray(sample_counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size < 1:
            raise ConfigError("sample_counts must be a non-empty vector")
        if counts.min() < 1:
            raise ConfigError("every client needs at least one sample")
        self.sample_counts = counts
        self.n_clients = counts.size
        self.last_round = np.full(self.n_clients, -1, dtype=np.int64)
        self.part_counts = np.zeros(self.n_clients, dtype=np.int64)

    def record_round(self, selected, t: int) -> None:
        sel = np.sort(np.asarray(selected, dtype=np.int64))
        if sel.size == 0:
            raise ConfigError("selected set must be nonempty")
        # sorted, so a repeated id sits next to itself
        if (sel[1:] == sel[:-1]).any():
            raise ConfigError("duplicate client ids in selected set")
        if sel[0] < 0 or sel[-1] >= self.n_clients:
            raise ConfigError("client id outside [0, N)")
        self.last_round[sel] = t
        self.part_counts[sel] += 1

    def interval_freqs(self, t: int) -> np.ndarray:
        """exp(-(t - t_k)) over all clients, normalized with a max-shift."""
        if t < 0:
            raise ParameterError(f"round must be >= 0, got {t}")
        u = (self.last_round - t).astype(np.float64)  # -(t - t_k), all <= 0
        e = np.exp(u - u.max())
        return e / e.sum()

    def participation_freqs(self) -> np.ndarray:
        total = self.part_counts.sum()
        if total == 0:
            raise ParameterError(
                "participation frequencies undefined before the first round"
            )
        return self.part_counts / total

    def volume_freqs(self) -> np.ndarray:
        return self.sample_counts / self.sample_counts.sum()


@dataclass
class FreqWeights:
    """All weight vectors of one round: the three frequencies, the normalized
    teacher weights over all N, and the student weights over the selected set
    (ascending client id)."""

    interval: np.ndarray
    participation: np.ndarray
    volume: np.ndarray
    teacher: np.ndarray
    student: np.ndarray


def combine_freqs(
    f_intv: np.ndarray,
    f_part: np.ndarray,
    f_num: np.ndarray,
    mode: str,
    part_floor: float = 0.0,
) -> np.ndarray:
    """Combine the three frequency vectors into normalized teacher weights.

    ``part_floor`` optionally lifts zero participation frequencies before
    combining (0 keeps the literal geometric mean, which zeroes
    never-participated clients).
    """
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weighting mode {mode!r}; expected {WEIGHT_MODES}")
    vectors = {
        name: np.asarray(v, dtype=np.float64)
        for name, v in (("intv", f_intv), ("part", f_part), ("num", f_num))
    }
    for name, v in vectors.items():
        if v.shape != vectors["intv"].shape:
            raise ConfigError("frequency vectors must share one length")
        if not (v >= 0).all():
            raise ConfigError(f"NaN or negative entries in {name} frequencies")
    f_intv, f_part, f_num = vectors.values()
    if part_floor > 0.0:
        f_part = np.maximum(f_part, part_floor)
    if mode == "tri-gm":
        tri = np.cbrt(f_intv * f_part * f_num)
    elif mode == "tri-am":
        tri = (f_intv + f_part + f_num) / 3.0
    else:
        tri = vectors[mode]
    total = tri.sum()
    if total <= 0.0:
        raise ProtocolError("combined frequency vector sums to zero")
    return tri / total


def student_weights(selected, sample_counts) -> np.ndarray:
    """Data-volume weights over the selected set, ascending client id."""
    sel = np.asarray(sorted(selected), dtype=np.int64)
    if sel.size == 0:
        raise ConfigError("selected set must be nonempty")
    sizes = np.asarray(sample_counts, dtype=np.float64)[sel]
    return sizes / sizes.sum()


def round_weights(
    ledger: ClientLedger,
    selected,
    t: int,
    mode: str = "tri-gm",
    part_floor: float = 0.0,
) -> FreqWeights:
    """All weight vectors for round ``t``; call after ``record_round``."""
    f_intv = ledger.interval_freqs(t)
    f_part = ledger.participation_freqs()
    f_num = ledger.volume_freqs()
    teacher = combine_freqs(f_intv, f_part, f_num, mode, part_floor)
    p = student_weights(selected, ledger.sample_counts)
    return FreqWeights(f_intv, f_part, f_num, teacher, p)
