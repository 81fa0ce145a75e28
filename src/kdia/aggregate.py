"""Teacher-side model registry and weighted parameter aggregation.

The registry holds one stored snapshot per client; a round replaces only the
snapshots of clients that participated, so stale entries keep contributing
old knowledge to the teacher.

The student is a plain convex combination of the round's fresh updates,
summed in ascending client order, so its bits are fixed and the plain-FedAvg
degeneration is exact.

The teacher weighs all N snapshots, yet a round changes only the snapshots of
its participants and the factors of the clients that take part or cross the
participation floor (``freqs``). So the registry keeps one running sum per
weight term, in a max-shifted log scale so that e^(t_k) cannot overflow:
``update`` takes a row's old contribution out before it overwrites the row,
and ``aggregate_teacher`` folds in every row whose snapshot or factor changed
and rescales a sum when its shift moves. That is O(|S| P) work a round
rather than O(N P). The teacher is therefore not the bits of an ascending
loop over the rows: it stays within about 1e-14 relative of the exact
weighted sum over thousands of rounds (the tests bound it to 1e-12), and a
rerun repeats its bits, since every fold runs in a fixed order. A row whose
factor is zero never enters a sum. A non-finite snapshot with a non-zero
factor poisons its sum for the rest of the run; the round loop stops at
that round's teacher evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ProtocolError, ShapeError
from .nn import ModelParams

WEIGHT_SUM_TOL = 1e-6


class ModelRegistry:
    """Stored per-client model snapshots in one layout: row ``k`` of the
    ``(N, P)`` array ``stored`` is client k's flat parameter vector.

    It also keeps the teacher's running sums: for term j, ``_sums[j]`` is
    ``sum_k exp(_folded[j, k] - _shifts[j]) * stored[k]``, where ``_folded``
    holds the log factors last folded in (-inf for a row left out)."""

    def __init__(self, theta0: ModelParams, n_clients: int):
        if n_clients < 1:
            raise ProtocolError(f"registry needs >= 1 clients, got {n_clients}")
        self.layout = theta0.layout
        self.stored = np.tile(theta0.flat, (n_clients, 1))
        self._start_sums(0)

    def _start_sums(self, n_terms: int) -> None:
        self._folded = np.full((n_terms, len(self.stored)), -np.inf)
        self._shifts = np.full(n_terms, -np.inf)
        self._sums = np.zeros((n_terms, self.stored.shape[1]))

    def _fold(self, log_factors: np.ndarray) -> None:
        """Bring every term's sum to ``log_factors``: take out and put back
        the rows whose factor moved, and shift each sum to its largest factor.
        A new number of terms starts the sums over."""
        if self._folded.shape != log_factors.shape:
            self._start_sums(len(log_factors))
        for j, (factors, folded, total) in enumerate(zip(log_factors, self._folded, self._sums)):
            moved = np.flatnonzero(factors != folded)
            old = moved[folded[moved] > -np.inf]
            for w, k in zip(np.exp(folded[old] - self._shifts[j]), old):
                total -= w * self.stored[k]
            top = factors.max()
            if top == -np.inf:
                total[:] = 0.0  # an empty term sums to exactly zero
            elif top != self._shifts[j]:
                total *= np.exp(self._shifts[j] - top)
            self._shifts[j] = top
            new = moved[factors[moved] > -np.inf]
            for w, k in zip(np.exp(factors[new] - top), new):
                total += w * self.stored[k]
            folded[moved] = factors[moved]

    def update(self, client_id: int, new_params: ModelParams) -> None:
        """Replace client ``client_id``'s snapshot, taking its old one out of
        the teacher's sums first."""
        # a negative id would index from the end and overwrite another client
        if not 0 <= client_id < len(self.stored):
            raise ProtocolError(f"client id {client_id} outside [0, {len(self.stored)})")
        if new_params.layout != self.layout:
            raise ShapeError("replacement snapshot has a different architecture")
        row = self.stored[client_id]
        for j, factor in enumerate(self._folded[:, client_id]):
            if factor > -np.inf:
                self._sums[j] -= math.exp(factor - self._shifts[j]) * row
        self._folded[:, client_id] = -np.inf
        row[:] = new_params.flat


def _convex_combination(rows, weights) -> np.ndarray:
    """``sum_k weights[k] * rows[k]`` over flat parameter vectors, summed in
    row order over the non-zero weights only. ``weights`` must be finite,
    non-negative and sum to 1 within 1e-6."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(rows) != weights.shape[0]:
        raise ShapeError(f"{len(rows)} models vs {weights.shape[0]} weights")
    if not len(rows):
        raise ProtocolError("nothing to aggregate")
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights >= 0.0)))
    if bad.size:
        raise ProtocolError(
            f"weight {bad[0]} is {weights[bad[0]]}, expected finite and >= 0"
        )
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ProtocolError(f"weights sum to {weights.sum():.9f}, expected 1")
    # a zero-weight row would add only a signed zero
    first, *rest = np.flatnonzero(weights)
    out = weights[first] * rows[first]
    for k in rest:
        out += weights[k] * rows[k]
    return out


def aggregate_student(client_models, p) -> ModelParams:
    """Student aggregate: the convex combination of the selected clients'
    fresh, shape-identical updates with weights ``p``, which must sum to 1
    within 1e-6. Summation runs in input order, which callers fix to
    ascending client id.
    """
    models = list(client_models)
    if any(m.layout != models[0].layout for m in models[1:]):
        raise ShapeError("models have different architectures")
    flat = _convex_combination([m.flat for m in models], p)
    return ModelParams.from_flat(flat, models[0].layout)


def aggregate_teacher(reg: ModelRegistry, log_coefs, log_factors) -> ModelParams:
    """Teacher aggregate over all stored snapshots: client k's weight is
    proportional to ``sum_j exp(log_coefs[j] + log_factors[j, k])`` (the
    terms of ``freqs.round_weights``). Folds into the registry's running sums
    only the rows whose snapshot or factor changed since the last call."""
    log_coefs = np.asarray(log_coefs, dtype=np.float64)
    log_factors = np.asarray(log_factors, dtype=np.float64)
    if log_factors.shape != (log_coefs.size, len(reg.stored)):
        raise ShapeError(
            f"{log_factors.shape} factors for {log_coefs.size} terms of {len(reg.stored)} clients"
        )
    reg._fold(log_factors)
    # sum_j beta_j sums[j] / sum_j beta_j mass_j, with beta_j each term's
    # coefficient times e^shift, scaled by the largest
    live = np.flatnonzero(reg._shifts > -np.inf)
    if not live.size:
        raise ProtocolError("every teacher factor is zero")
    shifts = reg._shifts[live]
    scaled = log_coefs[live] + shifts
    beta = np.exp(scaled - scaled.max())
    mass = np.exp(log_factors[live] - shifts[:, None]).sum(axis=1)
    scale = beta / (beta @ mass)
    out = scale[0] * reg._sums[live[0]]
    for w, j in zip(scale[1:], live[1:]):
        out += w * reg._sums[j]
    return ModelParams.from_flat(out, reg.layout)
