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
holds the state, checks each round's ids in ``record_round`` and keeps the
last round it recorded; ``round_weights`` computes every vector of that round.

In every mode a client's teacher weight is a sum of terms, each a per-round
coefficient times a factor read from the client's own last round t_k, count
c_k and size n_k (and, with a participation floor, from which side of it the
client sits). So only the round's participants and the clients crossing the
floor change their factors, which lets ``aggregate`` keep the teacher as a
running sum per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError

WEIGHT_MODES = ("intv", "part", "num", "tri-am", "tri-gm")


def _int_vector(values, name: str) -> np.ndarray:
    """``values`` as an int64 vector; ``ConfigError`` unless a nonempty vector
    of an integer dtype (a cast would silently truncate floats and bools)."""
    arr = np.asarray(values)
    # checked first: an empty list converts to float64
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a nonempty vector")
    if arr.dtype.kind not in "iu":
        raise ConfigError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64)


class ClientLedger:
    """Per-client bookkeeping, mutated only between rounds by the round loop.

    ``last_round[k]`` is the last round client k was selected (-1 for never),
    ``part_counts[k]`` how many rounds it has participated in, and
    ``sample_counts[k]`` its fixed local dataset size. ``round`` and
    ``selected`` (ascending) are the last recorded round and its clients.
    """

    def __init__(self, sample_counts):
        counts = _int_vector(sample_counts, "sample_counts")
        if counts.min() < 1:
            raise ConfigError("every client needs at least one sample")
        self.sample_counts = counts
        self.last_round = np.full(counts.size, -1, dtype=np.int64)
        self.part_counts = np.zeros(counts.size, dtype=np.int64)
        self.round = -1
        self.selected = np.zeros(0, dtype=np.int64)

    def record_round(self, selected, t: int) -> None:
        """Record round ``t``'s clients; ``ConfigError`` unless the ids are
        distinct integers in ``[0, N)``, ``ParameterError`` if ``t < 0``."""
        if t < 0:
            raise ParameterError(f"round must be >= 0, got {t}")
        sel = np.sort(_int_vector(selected, "selected set"))
        # sorted, so a repeated id sits next to itself
        if (sel[1:] == sel[:-1]).any():
            raise ConfigError("duplicate client ids in selected set")
        if sel[0] < 0 or sel[-1] >= self.sample_counts.size:
            raise ConfigError("client id outside [0, N)")
        self.last_round[sel] = t
        self.part_counts[sel] += 1
        self.round, self.selected = t, sel


@dataclass
class FreqWeights:
    """All weight vectors of one round: the three frequencies, the normalized
    teacher weights over all N, the student weights over the selected set
    (ascending client id), and the teacher's terms.

    Client k's teacher weight is proportional to
    ``sum_j exp(log_coefs[j] + log_factors[j, k])``; a factor of -inf is a
    zero. ``teacher`` is that sum, normalized.
    """

    interval: np.ndarray
    participation: np.ndarray
    volume: np.ndarray
    teacher: np.ndarray
    student: np.ndarray
    log_coefs: np.ndarray
    log_factors: np.ndarray


def round_weights(
    ledger: ClientLedger, mode: str = "tri-gm", part_floor: float = 0.0
) -> FreqWeights:
    """All weight vectors of the ledger's last recorded round.

    ``part_floor`` lifts participation frequencies below it before ``mode``
    combines them (0 keeps the literal geometric mean, which zeroes
    never-participated clients); ``participation`` stays unfloored.
    """
    if mode not in WEIGHT_MODES:
        raise ConfigError(f"unknown weighting mode {mode!r}; expected {WEIGHT_MODES}")
    total = ledger.part_counts.sum()
    if total == 0:
        raise ParameterError("participation frequencies undefined before the first round")
    u = (ledger.last_round - ledger.round).astype(np.float64)  # -(t - t_k), all <= 0
    top = u.max()
    e = np.exp(u - top)
    f_intv = e / e.sum()
    f_part = ledger.part_counts / total
    f_num = ledger.sample_counts / ledger.sample_counts.sum()
    # (log coefficient, log factor) of each term; the factors of client k read
    # only its t_k, c_k and n_k, and the coefficients are the normalizers
    t_k = ledger.last_round.astype(np.float64)
    with np.errstate(divide="ignore"):
        log_c = np.log(ledger.part_counts.astype(np.float64))  # -inf if never selected
    log_n = np.log(ledger.sample_counts.astype(np.float64))
    a_t = -(ledger.round + top + math.log(e.sum()))  # -log sum_k e^(t_k)
    a_n = -math.log(ledger.sample_counts.sum())
    part = [(-math.log(total), log_c)]
    if part_floor > 0.0:
        # max(c_k / C, floor) is one of two terms: c_k / C, or the floor itself
        floored = f_part < part_floor
        part = [
            (part[0][0], np.where(floored, -np.inf, log_c)),
            (math.log(part_floor), np.where(floored, 0.0, -np.inf)),
        ]
    if mode == "tri-gm":
        terms = [((a_t + a + a_n) / 3.0, (t_k + g + log_n) / 3.0) for a, g in part]
    elif mode == "tri-am":
        terms = [(a_t, t_k), *part, (a_n, log_n)]  # the common 1/3 cancels
    else:
        terms = {"intv": [(a_t, t_k)], "part": part, "num": [(a_n, log_n)]}[mode]
    log_coefs = np.array([a for a, _ in terms])
    log_factors = np.stack([g for _, g in terms])
    lead = (log_coefs + log_factors.max(axis=1)).max()
    tri = np.exp(log_factors + (log_coefs - lead)[:, None]).sum(axis=0)
    sizes = ledger.sample_counts[ledger.selected].astype(np.float64)
    return FreqWeights(
        f_intv, f_part, f_num, tri / tri.sum(), sizes / sizes.sum(), log_coefs, log_factors
    )
