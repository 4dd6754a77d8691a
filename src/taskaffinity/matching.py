"""Class-centroid extraction and minimum-cost bipartite matching.

Source classes are matched to target classes by the Hungarian algorithm on
the Euclidean distance matrix between class centroids in embedding space.
Classes are named by slot, their index among the task's ascending class ids
(tasks.batch_of labels rows that way).
The solver is the O(n^3) potentials formulation; on top of it a
lexicographic refinement guarantees a canonical answer when several
assignments tie on total cost (smallest mapping tuple wins).  The tests
check it against a factorial brute-force scan with the same tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def class_centroids(emb: np.ndarray, slots: np.ndarray, n: int) -> np.ndarray:
    """Mean embedding of each class slot 0..n-1, shape (n, d).

    Every slot needs at least one row; an empty slot's row is NaN, which
    the solvers reject.
    """
    return np.stack([emb[slots == k].mean(axis=0) for k in range(n)])


def cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of a and b, shape (len(a), len(b))."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _check_cost(cost: np.ndarray) -> np.ndarray:
    c = np.ascontiguousarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] < 1:
        raise ValueError("cost must be a nonempty square matrix")
    if np.any(~np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    if np.any(c < 0):
        raise ValueError("cost entries must be nonnegative")
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


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-total-cost assignment; ties resolved to the lexicographically smallest mapping.

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

