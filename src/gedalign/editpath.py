"""Exact edit accounting under a fixed mapping, edit-path extraction, and the
brute-force oracle.

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
optimal; the solver stops there. The oracle does not: it always scores all
``n!`` mappings, so its running time depends on the order alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .assignment import Permutation
from .costs import CostModel, build_cost_matrix
from .errors import BudgetExceededError
from .graphs import GraphPair, LabeledGraph, adjacency, pad_pair

#: Default cap on the padded order accepted by the exhaustive oracle.
DEFAULT_NODE_BUDGET = 9

_PERM_TAIL = 7  # trailing positions enumerated within one block of 7! or fewer rows


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


def _score_block(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, perms: np.ndarray, k2: float
) -> np.ndarray:
    """Costs of the mappings in ``perms`` (one per row) from the node-cost
    matrix ``d`` and the raw adjacency matrices ``a`` and ``b``."""
    n = d.shape[0]
    v1, v2 = np.triu_indices(n, 1)
    edited = (a[v1, v2] != b[perms[:, v1], perms[:, v2]]).sum(axis=1)
    return _mapping_costs(d[np.arange(n), perms].T, edited, k2)


def lower_bound(d: np.ndarray, a: np.ndarray, b: np.ndarray, k2: float) -> float | None:
    """Certified lower bound on the cost of every mapping, or ``None``.

    A bijection pays at least each row's minimum of the node-cost matrix ``d``
    and at least each column's minimum. Each edited edge slot changes two node
    degrees by one, so a bijection ``pi`` edits at least
    ``ceil(sum_v |deg_a(v) - deg_b(pi(v))| / 2)`` slots; the sum is smallest
    when both degree sequences of the adjacency matrices ``a`` and ``b``
    (padding rows count as degree 0) are sorted. The count of edited slots,
    ``|E_a| + |E_b| - 2 |common|``, has the parity of ``|E_a| + |E_b|``, so
    the slot bound is rounded up to that parity; it is never below
    ``| |E_a| - |E_b| |``. The bound is the larger node sum plus ``k2`` times
    the slot bound.

    It is returned only when it is exact in float64 and so is the cost of
    every mapping: every node cost and ``k2`` are integers (costs are
    nonnegative by construction) and ``d.sum() + k2 * n**2`` stays below
    ``2**53``. A mapping whose cost is at most the bound is then optimal, bit
    for bit. Otherwise ``None``.
    """
    n = d.shape[0]
    k2 = float(k2)
    exact = (
        k2.is_integer()
        and bool(np.all(np.floor(d) == d))
        and d.sum() + k2 * n * n < 2.0**53
    )
    if not exact:
        return None
    if n == 0:
        return 0.0
    node = max(d.min(axis=1).sum(), d.min(axis=0).sum())
    deg_a = np.sort(np.count_nonzero(a, axis=1))
    deg_b = np.sort(np.count_nonzero(b, axis=1))
    slots = (int(np.abs(deg_a - deg_b).sum()) + 1) // 2
    edges = (int(deg_a.sum()) + int(deg_b.sum())) // 2
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


@functools.lru_cache(maxsize=None)
def _lex_table(k: int) -> np.ndarray:
    """All permutations of ``0..k-1`` in lexicographic order, one per row.

    The tables are read-only because every caller shares them; only orders up
    to ``_PERM_TAIL`` are ever asked for, so the cache stays small.
    """
    count = math.factorial(k)
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    table = np.fromiter(flat, dtype=np.int64, count=count * k).reshape(count, k)
    table.setflags(write=False)
    return table


def _permutation_blocks(n: int) -> Iterator[np.ndarray]:
    """Lexicographically ordered permutations of ``0..n-1`` in bounded blocks.

    Each block fixes one prefix of ``n - _PERM_TAIL`` values, taken in
    lexicographic order, and runs the cached table of the tail over the
    remaining values in increasing order. Up to ``_PERM_TAIL`` nodes the
    prefix is empty and the one block is the whole enumeration.
    """
    tail = _lex_table(min(n, _PERM_TAIL))
    head = n - tail.shape[1]
    for prefix in itertools.permutations(range(n), head):
        rest = np.ones(n, dtype=bool)
        rest[list(prefix)] = False
        block = np.empty((len(tail), n), dtype=np.int64)
        block[:, :head] = prefix
        block[:, head:] = np.flatnonzero(rest)[tail]
        yield block


def exact_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    cm: CostModel,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExactResult:
    """True distance by exhaustive enumeration of all mappings.

    Ties are broken toward the lexicographically smallest mapping. Refuses
    pairs whose padded order exceeds ``node_budget`` rather than approximating.

    Mappings are scored in vectorized blocks, in lexicographic order, with the
    same accounting as :func:`ged_under_mapping`, so the reported value is the
    winner's cost. Every mapping is scored, whatever the pair, so the cost
    of a call is fixed by the padded order.
    """
    pair = pad_pair(g1, g2)
    n = pair.order
    if n > node_budget:
        raise BudgetExceededError(
            f"padded order {n} exceeds the exact-search budget {node_budget}"
        )
    d = build_cost_matrix(pair, cm)
    a = adjacency(pair.g1, n)
    b = adjacency(pair.g2, n)
    best_total = np.inf
    best_perm: np.ndarray | None = None
    for perms in _permutation_blocks(n):
        totals = _score_block(d, a, b, perms, cm.edge_cost_squared)
        k = int(np.argmin(totals))
        if totals[k] < best_total:
            best_total = float(totals[k])
            best_perm = perms[k].copy()
    assert best_perm is not None
    mapping = Permutation(tuple(int(j) for j in best_perm))
    return ExactResult(ged=best_total, optimal_mapping=mapping)
