"""Teacher-side model registry and weighted parameter aggregation.

The registry holds one stored snapshot per client; a round replaces only the
snapshots of clients that participated, so stale entries keep contributing
old knowledge to the teacher. Aggregation itself is a plain convex
combination of every weight and bias, summed in ascending client order so
serial and parallel runs produce identical bits. Only clients with a
non-zero weight are read: the default teacher weights are exactly zero for
every client never selected, which in a large federation is most of them.
A skipped row would add only a signed zero, so the sum is unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolError, ShapeError
from .nn import ModelParams

WEIGHT_SUM_TOL = 1e-6


class ModelRegistry:
    """Stored per-client model snapshots in one layout: row ``k`` of the
    ``(N, P)`` array ``stored`` is client k's flat parameter vector."""

    def __init__(self, theta0: ModelParams, n_clients: int):
        if n_clients < 1:
            raise ProtocolError(f"registry needs >= 1 clients, got {n_clients}")
        self.layout = theta0.layout
        self.stored = np.tile(theta0.flat, (n_clients, 1))

    def update(self, client_id: int, new_params: ModelParams) -> None:
        # a negative id would index from the end and overwrite another client
        if not 0 <= client_id < len(self.stored):
            raise ProtocolError(f"client id {client_id} outside [0, {len(self.stored)})")
        if new_params.layout != self.layout:
            raise ShapeError("replacement snapshot has a different architecture")
        self.stored[client_id] = new_params.flat


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


def aggregate_teacher(reg: ModelRegistry, teacher_weights) -> ModelParams:
    """Teacher aggregate over all stored snapshots, in ascending client id."""
    return ModelParams.from_flat(
        _convex_combination(reg.stored, teacher_weights), reg.layout
    )
