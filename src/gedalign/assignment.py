"""Exact linear assignment and rounding of relaxed alignments to permutations.

The solver is the O(n^3) shortest-augmenting-path method on dense costs, in
two phases (Jonker & Volgenant 1987). The first reduces the costs to feasible
duals and matches rows greedily along zero reduced cost; the second inserts
only the rows left free, one shortest augmenting path each. On small-integer
costs with many ties the first phase leaves only a few rows free.

The two phases have two implementations, chosen by the matrix order alone:
up to ``SCALAR_MAX_ORDER`` (96) they run one float at a time on Python
lists, above it on numpy arrays, row by row. Both do the same floating-point
operations on the same operands in the same order, so they return the same
assignment and the same dual bits; the array path is the reference. At small
orders numpy's per-call overhead dominates. Measured on a 2-vCPU Xeon with
one BLAS thread, cold starts and the solver's warm-started directions alike,
the lists are about 7 times faster at order 8 and 1.5 times at 96, break
even near 160 and lose by 1.1-1.25 times at 192; the border keeps a margin
below the break-even point.

Determinism contract: among all optimal assignments, the lexicographically
smallest mapping is returned. The augmenting search alone does not guarantee
that, so a second pass refines the solution inside the graph of tight edges
(zero reduced cost under the optimal duals), one breadth-first search per row
in index order. By complementary slackness every optimal assignment lives in
the tight graph of any optimal dual pair, so the refined result does not
depend on which optimum the search found. The solver's Frank–Wolfe directions
skip the refine: any optimal vertex will do.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Permutation:
    """Bijection on ``0..n-1``; ``mapping[i]`` is the image of ``i``. Integer
    entries, numpy's included, are stored as Python ints; floats and bools are
    refused."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            mapping = tuple(map(operator.index, self.mapping))
        except TypeError:
            mapping = None
        if mapping is None or bool in map(type, self.mapping):
            raise ValueError(f"entries must be integers: {self.mapping!r}")
        n = len(mapping)
        if sorted(mapping) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {self.mapping!r}")
        object.__setattr__(self, "mapping", mapping)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(n)))

    @property
    def order(self) -> int:
        return len(self.mapping)

    def matrix(self) -> np.ndarray:
        """0/1 matrix ``P`` with ``P[i, mapping[i]] = 1``."""
        n = self.order
        p = np.zeros((n, n), dtype=np.float64)
        p[np.arange(n), list(self.mapping)] = 1.0
        return p

    def inverse(self) -> Permutation:
        inv = [0] * self.order
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))


#: Orders up to this run the LAP's two phases on Python lists, larger ones on
#: numpy arrays; both give the same bits (see the module docstring).
SCALAR_MAX_ORDER = 96


def _augmenting_path_lap(
    cost: np.ndarray, v: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize a square assignment; returns (row_to_col, row duals, column duals).

    Phase one starts from feasible duals: the column duals ``v`` (by default
    the column minima ``cost.min(axis=0)``) and ``u = (cost - v).min(axis=1)``.
    Any ``v`` will do, since this ``u`` keeps every reduced cost
    ``cost - u - v`` non-negative and gives every row a zero; the column
    duals of a similar matrix leave fewer rows for phase two. Each row in
    index order then takes its lowest-index free column of zero reduced
    cost, if any. Phase two inserts each row left free, in index order, by a
    Dijkstra search for a shortest augmenting path over reduced costs; its
    dual updates keep every reduced cost non-negative and every matched edge
    at zero. The duals stay feasible and the matching stays tight, so the
    final assignment is optimal by complementary slackness. Every scan over columns runs in index order
    with strict-improvement comparisons, so the outcome is deterministic.
    The caller's ``v`` is not written.
    """
    n = cost.shape[0]
    # initial=inf lets an empty matrix through and changes no other minimum
    v = cost.min(axis=0, initial=np.inf) if v is None else np.array(v, dtype=np.float64)
    slack = cost - v
    u = slack.min(axis=1, initial=np.inf)
    phases = _phases_on_lists if n <= SCALAR_MAX_ORDER else _phases_on_arrays
    col_to_row = phases(cost, slack, u, v)
    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[col_to_row[:n]] = np.arange(n)
    return row_to_col, u, v


def _phases_on_arrays(
    cost: np.ndarray, slack: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Both phases with numpy operations over whole rows; updates ``u`` and
    ``v`` in place and returns ``col_to_row`` (entry ``n`` is scratch)."""
    n = cost.shape[0]
    col_to_row = np.full(n + 1, -1, dtype=np.int64)  # index n is the virtual start column
    free_rows = []
    for i in range(n):
        zero = (slack[i] == u[i]) & (col_to_row[:n] == -1)
        j = int(np.argmax(zero))
        if zero[j]:
            col_to_row[j] = i
        else:
            free_rows.append(i)
    way = np.full(n, -1, dtype=np.int64)
    for i in free_rows:
        col_to_row[n] = i
        j0 = n
        minv = np.full(n, np.inf, dtype=np.float64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            free = ~used[:n]
            idx = np.nonzero(free)[0]
            reduced = cost[i0, idx] - u[i0] - v[idx]
            better = reduced < minv[idx]
            sel = idx[better]
            minv[sel] = reduced[better]
            way[sel] = j0
            k = int(np.argmin(minv[idx]))
            j1 = int(idx[k])
            delta = minv[j1]
            used_cols = np.nonzero(used[:n])[0]
            u[col_to_row[used_cols]] += delta
            u[i] += delta  # the virtual column is always in use and carries row i
            v[used_cols] -= delta
            minv[idx] -= delta
            j0 = j1
            if col_to_row[j0] == -1:
                break
        while j0 != n:
            j1 = int(way[j0])
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    return col_to_row


def _phases_on_lists(
    cost: np.ndarray, slack: np.ndarray, u: np.ndarray, v: np.ndarray
) -> list[int]:
    """:func:`_phases_on_arrays` one float at a time on Python lists: the same
    operations on the same operands in the same order, so the same bits,
    without numpy's per-call overhead."""
    n = cost.shape[0]
    uu, vv = u.tolist(), v.tolist()
    col_to_row = [-1] * (n + 1)
    free_rows = []
    for i, row in enumerate(slack.tolist()):
        ui = uu[i]
        for j in range(n):
            if row[j] == ui and col_to_row[j] == -1:
                col_to_row[j] = i
                break
        else:
            free_rows.append(i)
    rows = cost.tolist() if free_rows else []
    way = [-1] * n
    for i in free_rows:
        col_to_row[n] = i
        j0 = n
        minv = [math.inf] * n
        free = list(range(n))
        used: list[int] = []
        while True:
            if j0 < n:
                used.append(j0)
                free.remove(j0)
            i0 = col_to_row[j0]
            row, ui0 = rows[i0], uu[i0]
            j1, delta = free[0], math.inf  # np.argmin's pick when every entry is inf
            for j in free:
                reduced = row[j] - ui0 - vv[j]
                if reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if minv[j] < delta:
                    j1, delta = j, minv[j]
            for j in used:
                uu[col_to_row[j]] += delta
                vv[j] -= delta
            uu[i] += delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if col_to_row[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    u[:] = uu
    v[:] = vv
    return col_to_row


def _lexicographic_refine(tight: np.ndarray, row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the tight-edge graph.

    Rows in index order take their smallest column that a perfect matching
    keeping the earlier rows in place allows. Row ``i``'s candidates are its
    tight columns left of its current one ``c`` that later rows hold. One
    breadth-first search back from ``c`` over the later rows finds the holders
    that can give theirs up (Tassa 2012): a row joins when it can take, on a
    tight edge, the column of a row already reached, which becomes its parent.
    Row ``i`` takes the smallest reached candidate by a rotation along the
    parent chain.
    """
    n = tight.shape[0]
    col_of = row_to_col.copy()
    row_of = np.empty(n, dtype=np.int64)
    row_of[col_of] = np.arange(n)
    leftmost = tight.argmax(axis=1).tolist() if n else []
    parent = np.empty(n, dtype=np.int64)
    for i in range(n):
        current = int(col_of[i])
        if leftmost[i] == current:
            continue
        candidates = np.flatnonzero(tight[i, :current] & (row_of[:current] > i))
        if not candidates.size:
            continue
        first_holder = int(row_of[candidates[0]])
        reached = np.arange(n) <= i  # earlier rows are pinned; row i is the root
        queue = [i]
        for row in queue:
            joins = np.flatnonzero(tight[:, col_of[row]] & ~reached)
            reached[joins] = True
            parent[joins] = row
            queue.extend(joins.tolist())
            if reached[first_holder]:
                break
        taken = candidates[reached[row_of[candidates]]]
        if not taken.size:
            continue
        chain = [int(row_of[taken[0]])]
        while chain[-1] != i:
            chain.append(int(parent[chain[-1]]))
        # each row on the chain takes its parent's column; row i takes the candidate
        col_of[chain] = col_of[chain[1:] + chain[:1]]
        row_of[col_of[chain]] = chain
    return col_of


def solve_assignment(cost: np.ndarray) -> Permutation:
    """Minimum-cost assignment for a square cost matrix; to maximize, pass the
    negated matrix. Among optimal assignments the lexicographically smallest
    mapping wins.

    Phase one's duals are at most ``s = max |cost|`` (``v``) and ``2 s``
    (``u``); each of at most ``n`` insertions moves them by its path length,
    at most ``4 s`` (the reduced cost of an edge to a column no search has
    lowered). So every reduced cost stays within ``12 n s``, and a matrix for
    which that is not finite is refused.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    n = cost.shape[0]
    scale = float(np.abs(cost).max(initial=1.0))
    if not math.isfinite(12 * n * scale):  # NaN and inf fail too
        raise ValueError("cost matrix has non-finite entries or entries too large to solve")
    row_to_col, u, v = _augmenting_path_lap(cost)
    tight = (cost - u[:, None] - v[None, :]) <= 1e-9 * scale
    tight[np.arange(n), row_to_col] = True  # matched edges are tight up to roundoff
    refined = _lexicographic_refine(tight, row_to_col)
    return Permutation(tuple(refined.tolist()))


def round_to_permutation(p: np.ndarray) -> Permutation:
    """Nearest permutation to a relaxed alignment: maximize the total overlap
    ``sum_i p[i, mapping[i]]``."""
    return solve_assignment(-np.asarray(p, dtype=np.float64))
