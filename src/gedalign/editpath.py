"""Exact edit accounting under a fixed mapping, swap descent from a mapping,
edit-path extraction, and the exact oracle.

The distance realized by a mapping ``pi`` over a pair, aligned over
``max(n1, n2)`` indices, is the node term plus the edge term::

    sum_v cost(label(v) -> label(pi(v)))
    + sum_{v1 < v2} edge_cost_squared * [exactly one of (v1,v2), (pi(v1),pi(v2)) is an edge]

Mapping a node onto a padding index (one at or past the second graph's order)
is a deletion, a padding index of the first graph onto a node an insertion,
and two differently labeled nodes a substitution.
One function, ``_mapping_costs``, evaluates this sum for the oracle, the
solver and the edit path, adding node costs in index order so that a mapping
gets the same bits wherever it is scored.

``lower_bound`` gives a cheap bound that no mapping can undercut, from the
node-cost minima, the sorted degree sequences and the edge-count parity. When
every cost is an integer and every sum stays below ``2**53``, all of these
sums are exact, so a mapping whose cost reaches the bound is provably
optimal; the solver stops there, and so does the oracle.

The oracle, ``exact_ged``, is a depth-first branch and bound over partial
mappings that returns the first cheapest mapping in lexicographic order,
bit for bit what scoring all ``n!`` mappings in that order would return. Its
running time depends on the pair: at padded order 9, from under a
millisecond to about 2 s on the pairs measured, where scoring all ``n!``
mappings took about 0.45 s on every pair. The slowest is the complement of
the 9-cycle onto the path under fractional costs, whose many mappings tied
in exact arithmetic must all be scored.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .assignment import Permutation
from .costs import CostModel, build_cost_matrix
from .errors import BudgetExceededError
from .graphs import GraphPair, LabeledGraph, adjacency, pad_pair

#: Default cap on the padded order accepted by the exact oracle.
DEFAULT_NODE_BUDGET = 9


@dataclass(frozen=True)
class NodeInsert:
    target: int  # node index in g2
    label: str
    cost: float
    kind = "node_insert"


@dataclass(frozen=True)
class NodeDelete:
    node: int  # node index in g1
    label: str
    cost: float
    kind = "node_delete"


@dataclass(frozen=True)
class NodeSubstitute:
    node: int
    target: int
    from_label: str
    to_label: str
    cost: float
    kind = "node_substitute"


@dataclass(frozen=True)
class EdgeInsert:
    node_a: int  # endpoints in g1 index space
    node_b: int
    target_a: int  # the inserted edge's endpoints in g2 index space
    target_b: int
    cost: float
    kind = "edge_insert"


@dataclass(frozen=True)
class EdgeDelete:
    node_a: int
    node_b: int
    cost: float
    kind = "edge_delete"


EditOp = Union[NodeInsert, NodeDelete, NodeSubstitute, EdgeInsert, EdgeDelete]


@dataclass(frozen=True)
class EditPath:
    """Ordered edit operations realizing a mapping, with their exact total."""

    ops: tuple[EditOp, ...]
    total_cost: float

    def to_json(self) -> dict:
        return {
            "ops": [_op_json(op) for op in self.ops],
            "total_cost": self.total_cost,
        }


def _op_json(op: EditOp) -> dict:
    doc = {"kind": op.kind}
    for key, value in vars(op).items():
        doc[key] = value
    return doc


@dataclass(frozen=True)
class ExactResult:
    """True minimum distance and a mapping attaining it."""

    ged: float
    optimal_mapping: Permutation


def _mapping_costs(
    node_costs: Iterable[float | np.ndarray], edited_slots: int | np.ndarray, k2: float
) -> float | np.ndarray:
    """Exact cost of a mapping, or of a block of mappings at once; the one
    definition of a mapping's cost.

    ``node_costs`` yields, in node-index order, each node's cost under the
    mapping (a float) or under every mapping of a block (an array), and
    ``edited_slots`` counts the vertex pairs that are an edge on exactly one
    side. The node costs are added one at a time in that order, then ``k2``
    times the count. Python floats and float64 arrays round alike, so a
    mapping gets the same bits alone and in every block; ``ndarray.sum`` may
    add pairwise and would not.
    """
    total = 0.0
    for cost in node_costs:
        total = total + cost
    return total + k2 * edited_slots


def _score_mapping(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, mapping: tuple[int, ...], k2: float
) -> float:
    """Cost of one mapping from the node-cost matrix ``d`` and the raw
    adjacency matrices ``a`` and ``b``.

    The edited slots are counted over whole matrices: both are symmetric, so
    a vertex pair that differs counts twice, and graphs refuse self-loops, so
    both diagonals are zero and add nothing; half the count is exact. The
    node costs go to :func:`_mapping_costs` as Python floats, one gather for
    each kind of term and no per-call numpy wrapper.
    """
    m = np.array(mapping, dtype=np.int64)
    edited = int((a != b[m[:, None], m]).sum()) // 2
    return _mapping_costs(d[np.arange(len(m)), m].tolist(), edited, k2)


def _swap_deltas(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, m: np.ndarray, k2: float
) -> np.ndarray:
    """The predicted change in a mapping's cost from swapping the images of
    ``i`` and ``j``, for every ``i`` and ``j``, with one matmul.

    With ``Bm = b[m][:, m]`` and ``C = a @ Bm`` on the raw 0/1 adjacency
    matrices, the swap changes the edited-slot count by
    ``-2 (C_ij + C_ji - C_ii - C_jj) - 4 a_ij Bm_ij`` and the node cost by
    ``d[i, m_j] + d[j, m_i] - d[i, m_i] - d[j, m_j]``. The result is exactly
    symmetric with a +0.0 diagonal; under integer costs every entry is exact.
    """
    bm = b[m[:, None], m]
    c = a @ bm
    dm = d[:, m]
    c_diag = c.diagonal()
    node_diag = dm.diagonal()
    slots = (c_diag[:, None] + c_diag) - (c + c.T)
    slots *= 2.0
    slots -= 4.0 * (a * bm)
    delta = (dm + dm.T) - (node_diag[:, None] + node_diag)
    delta += k2 * slots
    return delta


def _swap_descent(
    d: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    mapping: tuple[int, ...],
    cost: float,
    k2: float,
) -> tuple[tuple[int, ...], float]:
    """Best-improving swap descent from ``mapping``, whose cost is ``cost``
    (Riesen, Fischer & Bunke, Pattern Recognition 2015).

    Each pass predicts every swap's change (:func:`_swap_deltas`) and takes
    the most negative, the first in row-major order over ``i < j`` on a tie.
    The swapped mapping is re-scored by :func:`_score_mapping` and kept only
    when that cost is strictly lower, so the returned cost is always the exact
    cost of the returned mapping and never above ``cost``. Stops when no
    predicted change is negative or the re-score does not improve; returns
    ``mapping`` itself when no swap is kept.
    """
    n = len(mapping)
    if n < 2:
        return mapping, cost
    m = np.array(mapping, dtype=np.int64)
    while True:
        # each delta is built by commutative IEEE sums and products of terms
        # symmetric in i and j, so the matrix equals its transpose bit for bit
        # and has a +0.0 diagonal: a negative minimum first occurs at i < j
        delta = _swap_deltas(d, a, b, m, k2)
        best = int(delta.argmin())
        if not delta.flat[best] < 0.0:
            break
        i, j = divmod(best, n)
        m[i], m[j] = m[j], m[i]
        swapped = _score_mapping(d, a, b, m, k2)
        if not swapped < cost:
            break
        mapping, cost = tuple(m.tolist()), swapped
    return mapping, cost


def _sums_are_exact(d: np.ndarray, k2: float) -> bool:
    """Whether every sum of node costs from ``d`` and multiples of ``k2`` that
    a mapping's cost or a bound on it forms is exact in float64: every node
    cost and ``k2`` are integers (costs are nonnegative by construction) and
    ``d.sum() + k2 * n**2`` stays below ``2**53``."""
    n = d.shape[0]
    k2 = float(k2)
    return (
        k2.is_integer()
        # so the sum cannot overflow
        and bool(np.logical_and.reduce((np.floor(d) == d) & (d < 2.0**53), None))
        and bool(np.add.reduce(d, None) + k2 * n * n < 2.0**53)
    )


def lower_bound(d: np.ndarray, a: np.ndarray, b: np.ndarray, k2: float) -> float | None:
    """Certified lower bound on the cost of every mapping, or ``None``.

    A bijection pays at least each row's minimum of the node-cost matrix ``d``
    and at least each column's minimum. Each edited edge slot changes two node
    degrees by one, so a bijection ``pi`` edits at least
    ``ceil(sum_v |deg_a(v) - deg_b(pi(v))| / 2)`` slots; the sum is smallest
    when both degree sequences, the row sums of the 0/1 adjacency matrices
    ``a`` and ``b`` (padding rows count as degree 0), are sorted. The count
    of edited slots, ``|E_a| + |E_b| - 2 |common|``, has the parity of
    ``|E_a| + |E_b|``, so the slot bound is rounded up to that parity; it is
    never below ``| |E_a| - |E_b| |``. The bound is the larger node sum plus
    ``k2`` times the slot bound.

    It is returned only when it is exact in float64 and so is the cost of
    every mapping (:func:`_sums_are_exact`). A mapping whose cost is at most
    the bound is then optimal, bit for bit. Otherwise ``None``. Every sum is
    then exact, so the order in which the sums run does not change the bits;
    they call the ufunc reductions without numpy's per-call wrappers.
    """
    n = d.shape[0]
    if not _sums_are_exact(d, k2):
        return None
    if n == 0:
        return 0.0
    total = np.add.reduce
    node = max(total(np.minimum.reduce(d, 1)), total(np.minimum.reduce(d, 0)))
    deg_a = total(a, 1)
    deg_b = total(b, 1)
    deg_a.sort()
    deg_b.sort()
    slots = (int(total(abs(deg_a - deg_b))) + 1) // 2
    edges = int(total(deg_a) + total(deg_b)) // 2
    slots += (slots - edges) % 2
    return float(node + k2 * slots)


def _slot(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def ged_under_mapping(pair: GraphPair, perm: Permutation, cm: CostModel) -> float:
    """Exact edit cost realized by ``perm`` on a pair."""
    return extract_edit_path(pair, perm, cm).total_cost


def extract_edit_path(pair: GraphPair, perm: Permutation, cm: CostModel) -> EditPath:
    """Edit operations realized by ``perm``, with their exact total.

    Edge operations are reported in the first graph's index space, ordered by
    endpoints; insertions additionally name the inserted edge's endpoints in
    the second graph.
    """
    n = pair.order
    if perm.order != n:
        raise ValueError(f"mapping order {perm.order} does not match pair order {n}")
    pool = pair.label_pool()
    labels1 = pair.g1.labels
    labels2 = pair.g2.labels
    n1, n2 = len(labels1), len(labels2)
    m = perm.mapping
    ops: list[EditOp] = []
    node_costs = [0.0] * n
    for v, w in enumerate(m):
        if v >= n1:
            op = NodeInsert(target=w, label=labels2[w], cost=cm.node_insert_cost(labels2[w]))
        elif w >= n2:
            op = NodeDelete(node=v, label=labels1[v], cost=cm.node_delete_cost(labels1[v]))
        elif labels1[v] != labels2[w]:
            l1, l2 = labels1[v], labels2[w]
            cost = cm.node_substitute_cost(l1, l2, pool)
            op = NodeSubstitute(node=v, target=w, from_label=l1, to_label=l2, cost=cost)
        else:
            continue
        ops.append(op)
        node_costs[v] = op.cost
    # the edited slots are the symmetric difference of the first graph's
    # edges, carried into the second graph's index space, and the second's
    e1 = set(pair.g1.edges)
    inv = perm.inverse().mapping
    carried = {_slot(m[v1], m[v2]) for v1, v2 in e1}
    edited = sorted(
        _slot(inv[w1], inv[w2]) for w1, w2 in carried.symmetric_difference(pair.g2.edges)
    )
    k2 = cm.edge_cost_squared
    for v1, v2 in edited:
        if (v1, v2) in e1:
            ops.append(EdgeDelete(node_a=v1, node_b=v2, cost=k2))
        else:
            w1, w2 = _slot(m[v1], m[v2])
            ops.append(EdgeInsert(node_a=v1, node_b=v2, target_a=w1, target_b=w2, cost=k2))
    total = _mapping_costs(node_costs, len(edited), k2)
    return EditPath(ops=tuple(ops), total_cost=total)


def _twins(rows: list[list[float]], adj: list[list[bool]]) -> list[list[int]]:
    """For each index ``u``, the smaller indices ``v`` whose row of ``rows``
    equals ``u``'s and whose adjacency row agrees with ``u``'s outside ``u``
    and ``v``. Swapping the preimages of two such columns keeps the
    edited-slot count and every node's cost; swapping the images of two such
    rows keeps the count and exchanges the two rows' node costs."""
    masks = [sum(bit << t for t, bit in enumerate(row)) for row in adj]
    return [
        [
            v
            for v in range(u)
            if rows[v] == rows[u] and not (masks[v] ^ masks[u]) & ~(1 << u | 1 << v)
        ]
        for u in range(len(rows))
    ]


def _branch_and_bound(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, k2: float
) -> tuple[float, tuple[int, ...]]:
    """The cost of the cheapest mapping of order ``n >= 1`` and the first such
    mapping in lexicographic order, from the node-cost matrix ``d`` and the
    adjacency matrices ``a`` and ``b``.

    A depth-first search assigns node ``k`` after nodes ``0..k-1``, trying
    the free images in increasing order, so complete mappings come in
    lexicographic order; one is kept only when it costs strictly less than
    the best so far. It is scored by :func:`_mapping_costs` from the node
    costs, summed in index order, and the count of edited slots. The stack
    holds one frame per assigned node.

    For a partial mapping ``pi`` let ``c[v, w] = d[v, w] + k2 * #{assigned u :
    a[v, u] != b[w, pi(u)]}`` over the free rows and columns. Every completion
    pays the partial mapping's own cost, at least the sum of the row minima
    of ``c``, and ``k2`` times at least ``| |E_a(free rows)| - |E_b(free
    columns)| |`` for the slots between free nodes; the column minima bound
    it too, but their pass costs more than its pruning saves. A child is
    expanded only while that bound leaves room for a cheaper completion.
    When :func:`_sums_are_exact`, every sum is exact and a bound equal to the
    best prunes. Otherwise the bound and a mapping's cost round differently.
    All terms are nonnegative and total at most ``S = d.sum() + k2 * n**2``;
    the bound takes at most ``2n + 3`` roundings and a mapping's cost
    ``n + 1``, so the bound prunes only above the best plus
    ``8 * n**2 * 2**-52 * S``, which covers both errors and the rounding of
    that sum.

    A child is also skipped when each of its completions has an earlier
    mapping of the same cost, bit for bit, so the first cheapest mapping
    never is:
    - its image has a free twin column of smaller index, or its node has a
      twin row of smaller index whose image is larger and whose node cost
      is the same at both images, or any node cost when every sum is exact
      (:func:`_twins`);
    - an earlier partial mapping of the same depth reached its state: the
      same free images, node-cost sum and edited-slot count, and the same
      images for the assigned nodes with edges to unassigned ones. Any other
      assigned node adds to a free row's cost at an image only whether that
      image is adjacent to its own, and the free images fix which images
      those nodes hold, so the state fixes every completion's cost. States
      are kept only where at least two assigned nodes are such others, as
      no two partial mappings can share one elsewhere. No workload or test
      shows this skip, but it pays under per-label fractional costs: an
      empty graph against nine nodes of nine labels, each with its own
      insertion cost, takes 0.02 s with it and 5.5 s without (2-vCPU Xeon).
    """
    n = d.shape[0]
    lb = lower_bound(d, a, b, k2)
    tol = 8 * n * n * 2.0**-52 * float(d.sum() + k2 * n * n)
    al = (a != 0).tolist()
    bl = (b != 0).tolist()
    dl = d.tolist()
    twin_cols = _twins(d.T.tolist(), bl)
    twin_rows = _twins(dl, al)
    # along[s][x][w]: what assigning a node to image x adds to c[v, w] for a
    # free row v whose edge to that node is s
    along = [[[k2 if s != bx[w] else 0.0 for w in range(n)] for bx in bl] for s in (False, True)]
    edges_a_from = [0] * (n + 1)  # edges of a among nodes k..n-1
    for k in range(n - 1, -1, -1):
        edges_a_from[k] = edges_a_from[k + 1] + sum(al[k][k + 1 :])
    # boundary[k]: the nodes below k with an edge to a node at or past k
    boundary = [[u for u in range(k) if any(al[u][k:])] for k in range(n + 1)]
    seen = set()

    best, best_mapping = math.inf, ()
    cutoff = math.inf  # a child whose bound reaches it is not expanded
    image = [0] * n
    stack = [(0, 0.0, 0, dl, list(range(n)), int(np.count_nonzero(b)) // 2, iter(range(n)))]
    while stack:
        k, node_sum, edited, rows, free, edges_b, images = stack[-1]
        x = next(images, None)
        if x is None:
            stack.pop()
            continue
        if any(w in free for w in twin_cols[x]) or any(
            image[v] > x and (lb is not None or dl[v][x] == dl[v][image[v]])
            for v in twin_rows[k]
        ):
            continue
        image[k] = x
        ak, bx = al[k], bl[x]
        child_sum = node_sum + dl[k][x]
        child_edited = edited + sum([ak[u] != bx[image[u]] for u in range(k)])
        if k == n - 1:
            total = _mapping_costs((child_sum,), child_edited, k2)
            if total < best:
                best, best_mapping = total, tuple(image)
                if total == lb:
                    break  # no later mapping can cost less
                cutoff = best if lb is not None else math.nextafter(best + tol, math.inf)
            continue
        child_free = [w for w in free if w != x]
        if k + 1 - len(boundary[k + 1]) >= 2:
            links = [image[u] for u in boundary[k + 1]]
            state = (tuple(child_free), child_sum, child_edited, *links)
            if state in seen:
                continue
            seen.add(state)
        child_edges_b = edges_b - sum([bx[w] for w in child_free])
        child_rows = []
        for v in range(k + 1, n):
            row = list(map(operator.add, rows[v - k], along[al[v][k]][x]))
            row[x] = math.inf
            child_rows.append(row)
        rest = sum(map(min, child_rows))
        edge_gap = abs(edges_a_from[k + 1] - child_edges_b)
        bound = child_sum + k2 * child_edited + rest + k2 * edge_gap
        if bound < cutoff:
            stack.append(
                (k + 1, child_sum, child_edited, child_rows, child_free, child_edges_b,
                 iter(child_free))
            )
    return best, best_mapping


def exact_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    cm: CostModel,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """True distance by a depth-first branch and bound over partial mappings.

    Ties are broken toward the lexicographically smallest mapping. Refuses
    pairs whose padded order exceeds ``node_budget`` rather than approximating.

    Mappings are scored with the same accounting as
    :func:`ged_under_mapping`, so the reported value is the winner's cost,
    bit for bit. A partial mapping is abandoned once a lower bound on every
    completion shows that none can cost less than the best mapping found
    (DF-GED, Abu-Aisheh et al., ICPRAM 2015), so the running time depends on
    the pair, not on its order alone.
    """
    pair = pad_pair(g1, g2)
    n = pair.order
    if n > node_budget:
        raise BudgetExceededError(
            f"padded order {n} exceeds the exact-search budget {node_budget}"
        )
    if n == 0:
        return ExactResult(ged=0.0, optimal_mapping=Permutation(()))
    d = build_cost_matrix(pair, cm)
    a = adjacency(pair.g1, n)
    b = adjacency(pair.g2, n)
    ged, mapping = _branch_and_bound(d, a, b, cm.edge_cost_squared)
    return ExactResult(ged=ged, optimal_mapping=Permutation(mapping))
