"""Client participation bookkeeping and triple-frequency aggregation weights.

The teacher model is aggregated over *all* clients with weights built from
three per-client frequencies:

* interval frequency  -- exp(-(t - t_k)) normalized, where t_k is the last
  round client k participated in (-1 before any participation);
* participation frequency -- share of total participation counts;
* volume frequency    -- share of total sample counts (constant over rounds).

The default combination is their normalized geometric mean, which sends the
weight of never-participated clients to exactly zero. The student weights are
plain data-volume shares over the currently selected set. ``ClientLedger``
holds the state, and ``round_weights`` computes every vector of a round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError

WEIGHT_MODES = ("intv", "part", "num", "tri-am", "tri-gm")


def _selected_ids(selected, n_clients: int) -> np.ndarray:
    """The ids, ascending; ``ConfigError`` unless nonempty, distinct and in range."""
    sel = np.sort(np.asarray(selected, dtype=np.int64))
    if sel.size == 0:
        raise ConfigError("selected set must be nonempty")
    # sorted, so a repeated id sits next to itself
    if (sel[1:] == sel[:-1]).any():
        raise ConfigError("duplicate client ids in selected set")
    if sel[0] < 0 or sel[-1] >= n_clients:
        raise ConfigError("client id outside [0, N)")
    return sel


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
        sel = _selected_ids(selected, self.n_clients)
        self.last_round[sel] = t
        self.part_counts[sel] += 1


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


def round_weights(
    ledger: ClientLedger,
    selected,
    t: int,
    mode: str = "tri-gm",
    part_floor: float = 0.0,
) -> FreqWeights:
    """All weight vectors for round ``t``; call after ``record_round``.

    ``part_floor`` lifts participation frequencies below it before ``mode``
    combines them (0 keeps the literal geometric mean, which zeroes
    never-participated clients); ``participation`` stays unfloored.
    """
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weighting mode {mode!r}; expected {WEIGHT_MODES}")
    if t < 0:
        raise ParameterError(f"round must be >= 0, got {t}")
    sel = _selected_ids(selected, ledger.n_clients)
    total = ledger.part_counts.sum()
    if total == 0:
        raise ParameterError("participation frequencies undefined before the first round")
    u = (ledger.last_round - t).astype(np.float64)  # -(t - t_k), all <= 0
    e = np.exp(u - u.max())
    f_intv = e / e.sum()
    f_part = ledger.part_counts / total
    f_num = ledger.sample_counts / ledger.sample_counts.sum()
    f_floor = np.maximum(f_part, part_floor) if part_floor > 0.0 else f_part
    if mode == "tri-gm":
        tri = np.cbrt(f_intv * f_floor * f_num)
    elif mode == "tri-am":
        tri = (f_intv + f_floor + f_num) / 3.0
    else:
        tri = {"intv": f_intv, "part": f_floor, "num": f_num}[mode]
    teacher = tri / tri.sum()
    sizes = ledger.sample_counts[sel].astype(np.float64)
    return FreqWeights(f_intv, f_part, f_num, teacher, sizes / sizes.sum())
