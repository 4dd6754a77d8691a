"""Class-centroid extraction and minimum-cost bipartite matching.

Source classes are matched to target classes by the Hungarian algorithm on
the Euclidean distance matrix between class centroids in embedding space.
Classes are named by slot, their index among the task's ascending class ids
(tasks.task_slots labels source rows that way, tasks.batch_of whole sets).

hungarian solves one (n, n) cost matrix or an (S, n, n) stack: each gets the
minimal row-ordered total, ties resolved to the lexicographically smallest
mapping tuple, by one of two routes chosen from the size n:

- n <= SCAN_MAX_N: an exhaustive scan.  The n! mappings are listed once, in
  lexicographic order, and one argmin over the stack's (S, n!) row-ordered
  sums keeps each matrix's first minimum, its smallest tied mapping: a few
  numpy calls, where the refinement below makes n(n+1)/2 - 1 Python-level
  solves per matrix.
- larger n: the O(n^3) potentials formulation, with a lexicographic
  refinement that re-solves each residual matrix to reach the same
  canonical answer.  It is the only route that scales.

Both routes compare mappings by their row-ordered sum (the scan's last-axis
sums are the same reduction, value for value, as total_cost_of) and report
it as the total, so they break ties alike and their totals agree bit for
bit.  The tests check each route against a factorial brute-force scan with
the same tie-break.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# largest n the exhaustive scan takes: 720 mappings of 6 slots
SCAN_MAX_N = 6
# gathered cost entries per scan call (512 KiB); bounds the memory of a long stack
SCAN_BLOCK = 1 << 16

# every mapping of n slots, (n!, n) in lexicographic order, for n = 1..SCAN_MAX_N
_MAPPINGS = {
    n: np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    for n in range(1, SCAN_MAX_N + 1)
}


@dataclass(frozen=True)
class Assignment:
    """Bijection from source slots to target slots with its total matching cost."""

    mapping: tuple[int, ...]
    total_cost: float

    def __post_init__(self) -> None:
        m = tuple(int(j) for j in self.mapping)
        if sorted(m) != list(range(len(m))):
            raise ValueError("mapping must be a bijection on slot indices")
        object.__setattr__(self, "mapping", m)


class CostError(ValueError):
    """A cost matrix hungarian cannot solve; .index is its place in a stack, None alone."""

    def __init__(self, message: str, index: int | None):
        super().__init__(message if index is None else f"cost matrix {index}: {message}")
        self.index = index


def class_centroids(emb: np.ndarray, slots: np.ndarray, n: int,
                    rows: np.ndarray | None = None) -> np.ndarray:
    """Mean embedding of each class slot 0..n-1, shape (n, d), of emb's rows
    or, given rows, of emb[rows], read with no (rows, d) copy; slots names
    each row's slot.  Each slot's rows are summed in row order (one bincount
    per column).  An empty slot's row is NaN, which the solvers reject."""
    sums = np.stack([np.bincount(slots, col if rows is None else col[rows], n)
                     for col in emb.T], axis=1)
    with np.errstate(invalid="ignore"):
        return sums / np.bincount(slots, minlength=n)[:, None]


def cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of a and b, shape
    (..., len(a), len(b)); leading axes of a or b index a stack."""
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _check_cost(cost: np.ndarray) -> np.ndarray:
    """cost as float64: one (n, n) matrix or an (S, n, n) stack, n >= 1."""
    c = np.ascontiguousarray(cost, dtype=np.float64)
    where = 0 if c.ndim == 3 else None
    if c.ndim not in (2, 3) or c.shape[-1] != c.shape[-2] or c.shape[-1] < 1:
        raise CostError("cost must be a nonempty square matrix", where)
    flat = c.reshape(-1, c.shape[-1] ** 2)
    non_finite = ~np.isfinite(flat).all(axis=1)
    bad = non_finite | (flat < 0).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        reason = "finite" if non_finite[k] else "nonnegative"
        raise CostError(f"cost entries must be {reason}", None if where is None else k)
    return c


def total_cost_of(cost: np.ndarray, mapping: np.ndarray) -> float:
    """Row-ordered sum of matched entries; the one summation both solver routes share."""
    n = cost.shape[0]
    return float(cost[np.arange(n), np.asarray(mapping)].sum())


def _solve_min_cost(cost: np.ndarray) -> np.ndarray:
    """Potentials/shortest-augmenting-path Hungarian core, O(n^3).

    Indices are shifted by one internally (slot 0 is the virtual unmatched
    column), following the classic formulation: maintain dual potentials
    u, v; for each row grow an alternating tree of tight edges until a free
    column is reached, then augment along it.
    """
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j]: row matched to column j (1-based), 0 if free
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = int(p[j0])
            free = np.flatnonzero(~used[1:]) + 1
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            minv[free] = np.where(better, cur, minv[free])
            way[free[better]] = j0
            k = int(np.argmin(minv[free]))
            j1 = int(free[k])
            delta = float(minv[j1])
            rows = p[used]
            u[rows] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j_prev = int(way[j0])
            p[j0] = p[j_prev]
            j0 = j_prev
    mapping = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        mapping[int(p[j]) - 1] = j - 1
    return mapping


def hungarian(cost: np.ndarray) -> Assignment | list[Assignment]:
    """Minimum-total-cost assignment; ties resolved to the lexicographically smallest mapping.

    One (n, n) cost matrix gives an Assignment, an (S, n, n) stack a list of
    S.  Up to SCAN_MAX_N slots every mapping is scored at once and the first
    minimum in lexicographic order is kept; above it _canonical_hungarian
    runs per matrix.  Either way the total is total_cost_of(mapping).
    """
    c = _check_cost(cost)
    stack, n = (c if c.ndim == 3 else c[None]), c.shape[-1]
    if n > SCAN_MAX_N:
        out = [_canonical_hungarian(m) for m in stack]
    else:
        mappings, out = _MAPPINGS[n], []
        step = max(1, SCAN_BLOCK // mappings.size)
        for lo in range(0, len(stack), step):
            sums = stack[lo : lo + step, np.arange(n), mappings].sum(axis=-1)
            best = np.argmin(sums, axis=1)
            totals = sums[np.arange(len(best)), best].tolist()
            out += [Assignment(tuple(mappings[b].tolist()), t) for b, t in zip(best, totals)]
    return out if c.ndim == 3 else out[0]


def _canonical_hungarian(cost: np.ndarray) -> Assignment:
    """hungarian by repeated Hungarian solves, for any n.

    Canonicalization fixes rows top-down: for each row, every still-free
    column is tried with an optimal completion of the residual matrix, and
    the smallest column reaching the row's best total is kept.
    """
    c = _check_cost(cost)
    n = c.shape[0]
    chosen = np.full(n, -1, dtype=np.int64)
    free_cols = list(range(n))
    for i in range(n):
        rest_rows = np.arange(i + 1, n)
        best_total = np.inf
        best_j = -1
        for j in free_cols:
            cand = chosen.copy()
            cand[i] = j
            if rest_rows.size:
                rest_cols = np.array([col for col in free_cols if col != j], dtype=np.int64)
                sub = c[np.ix_(rest_rows, rest_cols)]
                cand[rest_rows] = rest_cols[_solve_min_cost(sub)]
            total = total_cost_of(c, cand)
            if total < best_total:
                best_total = total
                best_j = j
        chosen[i] = best_j
        free_cols.remove(best_j)
    return Assignment(tuple(int(j) for j in chosen), total_cost_of(c, chosen))

