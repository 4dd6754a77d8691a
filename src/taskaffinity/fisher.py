"""Empirical Fisher diagonals and the task affinity score (TAS).

The Fisher diagonal of a network on a batch is the per-parameter mean of
squared per-sample loss gradients.  After normalizing two diagonals to unit
trace, the affinity score between them is

    s = (1/sqrt(2)) * || sqrt(F_aa) - sqrt(F_ab) ||_F

taken entrywise over the diagonals.  For unit-trace inputs the score lands in
[0, 1]: 0 for identical diagonals, 1 for disjoint support.  The tests
check it against an independent trace-form route to the same number
(sum of f_a + f_b - 2*sqrt(f_a*f_b)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnet

_TRACE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FisherDiagonal:
    """Nonnegative per-parameter curvature proxies; normalized means unit trace."""

    entries: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        e = np.ascontiguousarray(self.entries, dtype=np.float64)
        if e.ndim != 1:
            raise ValueError("entries must be a flat vector")
        if np.any(~np.isfinite(e)) or np.any(e < 0):
            raise ValueError("entries must be finite and nonnegative")
        if self.normalized and abs(float(e.sum()) - 1.0) > _TRACE_TOL:
            raise ValueError("normalized diagonal must sum to 1")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class AffinityScore:
    """Asymmetric distance s[a,b] between task a's and task b's Fisher diagonals."""

    value: float


def empirical_fisher_diag(net: nnet.Network, data: nnet.Batch) -> FisherDiagonal:
    """Fisher diagonal of a network over a batch; covers all parameters, head included."""
    return FisherDiagonal(nnet.fisher_diag(net, data))


def normalize_unit_trace(f: FisherDiagonal) -> FisherDiagonal:
    """Scale entries to sum to one.  An all-zero diagonal is an error, not smoothed."""
    total = float(f.entries.sum())
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero Fisher diagonal")
    return FisherDiagonal(f.entries / total, normalized=True)


def _check_pair(f_a: FisherDiagonal, f_b: FisherDiagonal) -> None:
    if f_a.entries.shape != f_b.entries.shape:
        raise ValueError("Fisher diagonals differ in length")
    if not (f_a.normalized and f_b.normalized):
        raise ValueError("affinity requires unit-trace diagonals; normalize first")


def tas(f_aa: FisherDiagonal, f_ab: FisherDiagonal) -> AffinityScore:
    """Affinity score via the Frobenius norm of the entrywise sqrt difference."""
    _check_pair(f_aa, f_ab)
    d = np.sqrt(f_aa.entries) - np.sqrt(f_ab.entries)
    return AffinityScore(float(np.sqrt(np.sum(d * d)) / np.sqrt(2.0)))


def to_doc(f: FisherDiagonal) -> dict:
    """JSON-able form, used by the verbose debugging output."""
    return {"entries": f.entries.tolist(), "normalized": f.normalized}

