"""Empirical Fisher diagonals and the task affinity score (TAS).

The Fisher diagonal of a network on a batch is the per-parameter mean of
squared per-sample loss gradients; nnet.fisher_diag takes it for a stack of
networks at once.  After normalizing two diagonals to unit trace, the
affinity score between them is

    s = (1/sqrt(2)) * || sqrt(F_aa) - sqrt(F_ab) ||_F

taken entrywise over the diagonals; unit_trace and tas take (..., P) stacks
and treat each row as they would treat it alone.  For unit-trace inputs the
score lands in [0, 1]: 0 for identical diagonals, 1 for disjoint support.
The tests check it against an independent trace-form route to the same
number (sum of f_a + f_b - 2*sqrt(f_a*f_b)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class AffinityScore:
    """Asymmetric distance s[a,b] between task a's and task b's Fisher diagonals."""

    value: float


class DegenerateFisherError(ValueError):
    """A Fisher diagonal unit_trace cannot scale: .row is its index in the
    stack (() for a single diagonal) and .reason what is wrong with it."""

    def __init__(self, row: tuple[int, ...], reason: str):
        super().__init__(f"row {row[0] if len(row) == 1 else row}: {reason}" if row else reason)
        self.row, self.reason = row, reason


def unit_trace(f: np.ndarray) -> np.ndarray:
    """Scale each row of a (..., P) stack to sum to one.  A row with a
    negative or non-finite entry, or whose trace is zero or overflows, is an
    error naming the first such row in C order, not smoothed."""
    f = np.asarray(f, dtype=np.float64)
    total = f.sum(axis=-1, keepdims=True)
    t = total[..., 0]
    bad_entries = ~np.all(np.isfinite(f) & (f >= 0), axis=-1)
    bad = bad_entries | (t == 0.0) | ~np.isfinite(t)
    if bad.any():
        row = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DegenerateFisherError(row, (
            "entries must be finite and nonnegative" if bad_entries[row]
            else "cannot normalize an all-zero Fisher diagonal" if t[row] == 0.0
            else "the trace overflows"
        ))
    return f / total


def tas(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Affinity scores of two (..., P) stacks of unit-trace diagonals, row by
    row, via the Frobenius norm of the entrywise sqrt difference."""
    u_a, u_b = np.asarray(u_a, dtype=np.float64), np.asarray(u_b, dtype=np.float64)
    if u_a.shape != u_b.shape:
        raise ValueError("Fisher diagonals differ in shape")
    for u in (u_a, u_b):
        if not (np.all(u >= 0) and np.all(np.abs(u.sum(axis=-1) - 1.0) <= _TRACE_TOL)):
            raise ValueError("affinity requires nonnegative unit-trace diagonals; normalize first")
    d = np.sqrt(u_a) - np.sqrt(u_b)
    return np.sqrt(np.sum(d * d, axis=-1)) / np.sqrt(2.0)
