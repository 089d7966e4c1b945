"""Exact linear assignment and rounding of relaxed alignments to permutations.

The solver is the O(n^3) shortest-augmenting-path method on dense costs, in
two phases (Jonker & Volgenant 1987). The first reduces the costs to feasible
duals and matches rows greedily along zero reduced cost; the second inserts
only the rows left free, one shortest augmenting path each. On small-integer
costs with many ties the first phase leaves only a few rows free.

Determinism contract: among all optimal assignments, the lexicographically
smallest mapping is returned. The augmenting search alone does not guarantee
that, so a second pass refines the solution inside the graph of tight edges
(zero reduced cost under the optimal duals). By complementary slackness every
optimal assignment lives in the tight graph of any optimal dual pair, so the
refined result does not depend on which optimum the search found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Permutation:
    """Bijection on ``0..n-1``; ``mapping[i]`` is the image of ``i``."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {self.mapping!r}")

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


def _augmenting_path_lap(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize a square assignment; returns (row_to_col, row duals, column duals).

    Phase one starts from feasible duals, ``v = cost.min(axis=0)`` and
    ``u = (cost - v).min(axis=1)``, so every reduced cost ``cost - u - v`` is
    non-negative and every row has a zero. Each row in index order then takes
    its lowest-index free column of zero reduced cost, if any. Phase two
    inserts each row left free, in index order, by a Dijkstra search for a
    shortest augmenting path over reduced costs; its dual updates keep every
    reduced cost non-negative and every matched edge at zero. The duals stay
    feasible and the matching stays tight, so the final assignment is optimal
    by complementary slackness. Every scan over columns runs in index order
    with strict-improvement comparisons, so the outcome is deterministic.
    """
    n = cost.shape[0]
    v = cost.min(axis=0)
    slack = cost - v
    u = slack.min(axis=1)
    col_to_row = np.full(n + 1, -1, dtype=np.int64)  # index n is the virtual start column
    free_rows = []
    for i in range(n):
        zero = (slack[i] == u[i]) & (col_to_row[:n] == -1)
        j = int(np.argmax(zero))
        if zero[j]:
            col_to_row[j] = i
        else:
            free_rows.append(i)
    del slack
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
    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[col_to_row[:n]] = np.arange(n)
    return row_to_col, u, v


def _lexicographic_refine(tight: np.ndarray, row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching inside the tight-edge graph.

    Starting from a known perfect matching, rows are pinned in index order to
    their smallest feasible tight column; feasibility of a candidate column is
    checked by rerouting the displaced row through an alternating path that
    avoids pinned rows and columns.
    """
    n = tight.shape[0]
    col_of = row_to_col.copy()
    row_of = np.empty(n, dtype=np.int64)
    row_of[col_of] = np.arange(n)
    pinned_col = np.zeros(n, dtype=bool)

    def reroute(row: int, visited: np.ndarray) -> bool:
        # Depth-first search for an alternating path from ``row`` to a free
        # column, with an explicit stack so that its depth is not bounded by
        # the recursion limit. Each row scans its tight, unpinned columns in
        # index order and skips those visited by then; on success every row
        # on the stack takes the column it went through.
        unpinned = ~pinned_col
        rows = [row]
        cols: list[int] = []
        scans = [iter(np.flatnonzero(tight[row] & unpinned).tolist())]
        while scans:
            j = next((c for c in scans[-1] if not visited[c]), -1)
            if j == -1:
                scans.pop()
                rows.pop()
                if cols:
                    cols.pop()
                continue
            visited[j] = True
            cols.append(j)
            nxt = int(row_of[j])
            if nxt == -1:
                for r, c in zip(rows, cols):
                    col_of[r] = c
                    row_of[c] = r
                return True
            rows.append(nxt)
            scans.append(iter(np.flatnonzero(tight[nxt] & unpinned).tolist()))
        return False

    for i in range(n):
        current = int(col_of[i])
        for j in range(current):
            if not tight[i, j] or pinned_col[j]:
                continue
            displaced = int(row_of[j])
            col_of[i] = j
            row_of[j] = i
            row_of[current] = -1
            visited = np.zeros(n, dtype=bool)
            visited[j] = True
            if reroute(displaced, visited):
                break
            # a failed reroute writes nothing, so undoing the three writes
            # above restores the matching
            col_of[i] = current
            row_of[j] = displaced
            row_of[current] = i
        pinned_col[int(col_of[i])] = True
    return col_of


def solve_assignment(cost: np.ndarray) -> Permutation:
    """Minimum-cost assignment for a square cost matrix; to maximize, pass the
    negated matrix. Among optimal assignments the lexicographically smallest
    mapping wins.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    n = cost.shape[0]
    if n == 0:
        return Permutation(())
    row_to_col, u, v = _augmenting_path_lap(cost)
    scale = max(1.0, float(np.abs(cost).max()))
    tight = (cost - u[:, None] - v[None, :]) <= 1e-9 * scale
    tight[np.arange(n), row_to_col] = True  # matched edges are tight up to roundoff
    refined = _lexicographic_refine(tight, row_to_col)
    return Permutation(tuple(int(j) for j in refined))


def round_to_permutation(p: np.ndarray) -> Permutation:
    """Nearest permutation to a relaxed alignment: maximize the total overlap
    ``sum_i p[i, mapping[i]]``."""
    return solve_assignment(-np.asarray(p, dtype=np.float64))
