"""Exact linear assignment and rounding of relaxed alignments to permutations.

The solver is the O(n^3) shortest-augmenting-path method on dense costs, in
two phases (Jonker & Volgenant 1987). The first reduces the costs to feasible
duals and matches rows greedily along zero reduced cost; the second inserts
only the rows left free, one shortest augmenting path each. On small-integer
costs with many ties the first phase leaves only a few rows free.

A search for an augmenting path settles columns by distance, the lowest index
first among equals, and has two stops. The index-order stop ends when the
column settled is unmatched. On costs with many ties it settles nearly every
column at one distance before an unmatched one comes first. The tie stop,
Jonker and Volgenant's, ends as soon as an unmatched column is at the least
distance, at the lowest-index one: on random {0,1,2} matrices of order 300
to 400 a search takes 2 to 4 steps in place of about n. ``solve_assignment``
uses the tie stop, since its refine (below) makes the mapping independent of
the optimum the search finds. The solver's Frank–Wolfe directions keep the
index-order stop: they use the vertex as found, so another optimum would
move the iterates and the estimates.

The two phases have two implementations, chosen by the matrix order alone:
up to ``SCALAR_MAX_ORDER`` (96) they run one float at a time on Python
lists, above it on numpy arrays, whole rows at a time under boolean masks.
Both do the same floating-point operations on the same operands in the same
order, so they return the same assignment and the same dual bits; the array
path is the reference. At small orders numpy's per-call overhead dominates.
Milliseconds per call, lists / arrays, medians on a 2-vCPU Xeon with one BLAS
thread; the directions are the first 40 of a solve on two unrelated n-node
case1 graphs (warm-started, index-order stop)::

    order   cold normals   directions    {0,1,2} ties, tie stop
        8    0.04 / 0.07   0.03 / 0.11     0.02 / 0.06
       32    0.70 / 1.87   0.89 / 2.15     0.18 / 0.24
       64    2.78 / 3.88    3.9 / 5.5      0.44 / 0.27
       96    6.47 / 5.51   11.3 / 13.4     0.72 / 0.22
      128    15.7 / 15.4   28.4 / 21.4     2.25 / 0.78
      160    34.8 / 23.4   43.2 / 25.3     3.47 / 0.81
      192    77.0 / 40.2     88 / 39       4.52 / 1.03

The directions, most of a solve's LAP calls, set the border: there the lists
still win at 96 and lose at 128. On tie-heavy costs under the tie stop the
arrays win from about 64.

Determinism contract: among all optimal assignments, the lexicographically
smallest mapping is returned. The augmenting search alone does not guarantee
that, so a second pass refines the solution inside the graph of tight edges
(zero reduced cost under the optimal duals). It holds the tight rows and
columns as Python-int bitsets and runs one breadth-first search for each row,
in index order, that has a tight column left of its own held by a later row;
when every row sits at its leftmost tight column it returns at once. On the
{0,1,2} matrices above (order 300 to 400) it takes 1.0 ms of a 3.2 ms solve
(same machine, best of 9).
By complementary slackness every optimal assignment lives in the tight graph
of any optimal dual pair, so the refined result does not depend on which
optimum the search found. The solver's Frank–Wolfe directions skip the
refine: any optimal vertex will do.
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


_NOT_FINITE = "augmenting search found no finite distance: the costs are not finite"

#: Orders up to this run the LAP's two phases on Python lists, larger ones on
#: numpy arrays; both give the same bits (see the module docstring).
SCALAR_MAX_ORDER = 96


def _augmenting_path_lap(
    cost: np.ndarray, v: np.ndarray | None = None, *, stop_at_unmatched_tie: bool = False
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
    at zero. Each step settles the lowest-index column at the least distance
    and the search ends when that column is unmatched (the index-order stop).
    With ``stop_at_unmatched_tie`` the search ends as soon as an unmatched
    column is at the least distance, at the lowest-index one (the tie stop):
    that path is as short and the duals move alike, so either stop gives an
    optimum, though not always the same one. The duals stay feasible and the
    matching stays tight, so the final assignment is optimal by complementary
    slackness. Every scan over columns runs in index order with
    strict-improvement comparisons, so the outcome is deterministic. The
    caller's ``v`` is not written.

    Every reduced cost must stay finite (:func:`solve_assignment` refuses
    costs that might not; the ``costs`` docstring bounds the gradients), so
    a search's root row gives every column left to settle a finite distance.
    A search whose least distance is not finite, as a NaN or infinite cost
    makes it, raises ``ValueError``: its path could not be traced back.
    """
    n = cost.shape[0]
    # initial=inf lets an empty matrix through and changes no other minimum
    v = cost.min(axis=0, initial=np.inf) if v is None else np.array(v, dtype=np.float64)
    slack = cost - v
    u = slack.min(axis=1, initial=np.inf)
    phases = _phases_on_lists if n <= SCALAR_MAX_ORDER else _phases_on_arrays
    col_to_row = phases(cost, slack, u, v, stop_at_unmatched_tie)
    row_to_col = np.empty(n, dtype=np.int64)
    row_to_col[col_to_row[:n]] = np.arange(n)
    return row_to_col, u, v


def _phases_on_arrays(
    cost: np.ndarray, slack: np.ndarray, u: np.ndarray, v: np.ndarray, tie_stop: bool
) -> np.ndarray:
    """Both phases with numpy operations over whole rows; updates ``u`` and
    ``v`` in place and returns ``col_to_row`` (entry ``n`` is scratch).

    Boolean masks over the columns (unmatched, left to settle, settled) and
    over the rows (in the search tree) select the entries to update, through
    ufuncs with ``out=`` and ``where=``, so no step gathers or scatters by
    index. A settled column's ``minv`` is set to infinity, so that ``argmin``
    over the whole row picks among the columns left to settle."""
    n = cost.shape[0]
    col_to_row = np.full(n + 1, -1, dtype=np.int64)  # index n is the virtual start column
    unmatched = np.ones(n, dtype=bool)
    zero = slack == u[:, None]
    free_rows = []
    for i in range(n):
        row = np.logical_and(zero[i], unmatched, out=zero[i])
        j = int(row.argmax())
        if row[j]:
            col_to_row[j] = i
            unmatched[j] = False
        else:
            free_rows.append(i)
    way = np.full(n, -1, dtype=np.int64)
    minv, reduced = np.empty(n), np.empty(n)
    to_settle, settled, tree_rows, better = (np.empty(n, dtype=bool) for _ in range(4))
    for i in free_rows:
        col_to_row[n] = i
        j0 = n
        minv.fill(np.inf)
        to_settle.fill(True)
        settled.fill(False)
        tree_rows.fill(False)
        while True:
            i0 = int(col_to_row[j0])
            tree_rows[i0] = True  # at j0 = n, the virtual column's row i
            if j0 < n:
                to_settle[j0] = False
                settled[j0] = True
                minv[j0] = np.inf
            np.subtract(cost[i0], u[i0], out=reduced)
            np.subtract(reduced, v, out=reduced)
            np.less(reduced, minv, out=better)
            better &= to_settle
            np.copyto(minv, reduced, where=better)
            np.copyto(way, j0, where=better)
            j1 = int(minv.argmin())
            delta = minv[j1]
            if not math.isfinite(delta):
                raise ValueError(_NOT_FINITE)
            if tie_stop and not unmatched[j1]:
                tie = np.equal(minv, delta, out=better)
                tie &= unmatched
                k = int(tie.argmax())
                if tie[k]:
                    j1 = k
            np.add(u, delta, out=u, where=tree_rows)
            np.subtract(v, delta, out=v, where=settled)
            np.subtract(minv, delta, out=minv, where=to_settle)
            j0 = j1
            if unmatched[j0]:
                break
        unmatched[j0] = False
        while j0 != n:
            j1 = int(way[j0])
            col_to_row[j0] = col_to_row[j1]
            j0 = j1
    return col_to_row


def _phases_on_lists(
    cost: np.ndarray, slack: np.ndarray, u: np.ndarray, v: np.ndarray, tie_stop: bool
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
            j1, delta = free[0], math.inf
            for j in free:
                reduced = row[j] - ui0 - vv[j]
                if reduced < minv[j]:
                    minv[j] = reduced
                    way[j] = j0
                if minv[j] < delta:
                    j1, delta = j, minv[j]
            if not math.isfinite(delta):
                raise ValueError(_NOT_FINITE)
            if tie_stop and col_to_row[j1] != -1:
                j1 = next((j for j in free if minv[j] == delta and col_to_row[j] == -1), j1)
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
    The search expands rows in queue order, each batch of joins in ascending
    row order, and stops once the first candidate's holder has joined. Row
    ``i`` takes the smallest reached candidate by a rotation along the parent
    chain.

    Rows, columns and sets of either are Python-int bitsets (bit ``k`` is
    index ``k``), so a look-up or an expansion is a few integer operations
    rather than numpy calls over whole rows. When every row already sits at
    its leftmost tight column, the matching is returned as it is.
    """
    n = tight.shape[0]
    col_of = row_to_col.tolist()
    if not n or tight.argmax(axis=1).tolist() == col_of:
        return row_to_col.copy()
    width = (n + 7) // 8
    packed = np.packbits(tight, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[k : k + width], "little") for k in range(0, n * width, width)]
    packed = np.packbits(np.ascontiguousarray(tight.T), axis=1, bitorder="little").tobytes()
    cols = [int.from_bytes(packed[k : k + width], "little") for k in range(0, n * width, width)]
    row_of = [0] * n
    for row, col in enumerate(col_of):
        row_of[col] = row
    parent = [0] * n
    unpinned = (1 << n) - 1  # rows after the one being placed
    open_cols = unpinned  # the columns of the rows not yet pinned
    for i in range(n):
        current = col_of[i]
        unpinned ^= 1 << i
        candidates = rows[i] & open_cols & ((1 << current) - 1)
        if candidates:
            first_holder = row_of[(candidates & -candidates).bit_length() - 1]
            unreached = unpinned
            joined = [(i, 1 << i)]  # batches of rows, each with the row that reached it
            for owner, batch in joined:
                while batch and unreached >> first_holder & 1:
                    low = batch & -batch
                    batch ^= low
                    row = low.bit_length() - 1
                    parent[row] = owner
                    joins = cols[col_of[row]] & unreached
                    if joins:
                        unreached ^= joins
                        joined.append((row, joins))
                if not unreached >> first_holder & 1:
                    parent[first_holder] = joined[-1][0]
                    break
            # row i takes the smallest candidate whose holder was reached, if any
            while candidates:
                taken = (candidates & -candidates).bit_length() - 1
                row = row_of[taken]
                if not unreached >> row & 1:
                    break
                candidates &= candidates - 1
            if candidates:
                # each row on the chain takes its parent's column; row i takes the candidate
                while row != i:
                    col_of[row] = col_of[parent[row]]
                    row_of[col_of[row]] = row
                    row = parent[row]
                col_of[i] = taken
                row_of[taken] = i
        open_cols ^= 1 << col_of[i]
    return np.array(col_of, dtype=row_to_col.dtype)


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
    # max |cost|, at least 1, without an n x n temporary; np.maximum keeps a NaN
    scale = float(np.maximum(cost.max(initial=1.0), -cost.min(initial=-1.0)))
    if not math.isfinite(12 * n * scale):  # NaN and inf fail too
        raise ValueError("cost matrix has non-finite entries or entries too large to solve")
    row_to_col, u, v = _augmenting_path_lap(cost, stop_at_unmatched_tie=True)
    reduced = np.subtract(cost, u[:, None])
    reduced -= v
    tight = reduced <= 1e-9 * scale
    tight[np.arange(n), row_to_col] = True  # matched edges are tight up to roundoff
    refined = _lexicographic_refine(tight, row_to_col)
    return Permutation(tuple(refined.tolist()))


def round_to_permutation(p: np.ndarray) -> Permutation:
    """Nearest permutation to a relaxed alignment: maximize the total overlap
    ``sum_i p[i, mapping[i]]``."""
    return solve_assignment(-np.asarray(p, dtype=np.float64))
