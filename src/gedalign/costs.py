"""Edit-cost semantics: built-in settings, custom cost files, node-cost matrices.

A cost model fixes the price of every node edit (insert, delete, substitute)
and a single squared edge-edit cost. The node-cost matrix ``D`` of a pair of
orders ``n1`` and ``n2`` is ``max(n1, n2)`` square; entry ``(i, j)`` prices
mapping index ``i`` of the first graph onto index ``j`` of the second. It is
filled in blocks (Riesen & Bunke, IVC 2009):

* ``i < n1`` and ``j < n2``  ->  substitution cost (0 for equal labels)
* ``j >= n2`` (padding)      ->  deletion cost of ``i``'s label
* ``i >= n1`` (padding)      ->  insertion cost of ``j``'s label

Every cost, ``k2`` included, and the solver's ``lambda_step`` are at most
``M = MAX_COST``, so nothing downstream overflows. Entries of the scaled
adjacency matrices, and for doubly stochastic ``P`` of ``A P``, ``P B`` and
``R = A P - P B``, are at most ``sqrt(M)``; the regularizer weight (19 steps
at most) is below ``20 M``. At padded order ``n``, kernel values are below
``n^2 M + 21 n M`` and gradient entries below ``2 n M + 21 M``. The
Frank–Wolfe slope adds ``n^2`` gradient entries times entries of ``S - P``
(at most 1 in size); the curvature adds ``n^2`` squares of at most ``4 M``
and a regularizer term below ``40 n M``. The direction assignment moves its
duals by one augmenting path, a few gradient entries long, per free row and
step. Mapping costs, edit-path totals and lower-bound sums add at most
``n^2`` costs. No term multiplies two costs, so each quantity is ``M`` times
a low-degree polynomial in ``n``: far below the float maximum (``1.8e308``)
for any ``n`` that fits in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, AbstractSet, Mapping

import numpy as np

from .errors import CostModelError
from .graphs import GraphPair, _load_json_object

BUILTIN_SETTINGS = ("case1", "case2", "case3")

#: Largest accepted cost: every value computed from costs is at most a small
#: polynomial in the order times this, finite at any order (module docstring).
MAX_COST = 1e100


@dataclass(frozen=True)
class CostModel:
    """Node edit costs plus the squared edge insertion/deletion cost.

    Per-label tables override the defaults. With ``nearest_label_substitution``
    set, substitution is priced by integer-id proximity instead of the tables:
    cost 1 when the target label is a nearest neighbor of the source label
    within the supplied label pool (ties inclusive), cost 2 otherwise.
    """

    edge_cost_squared: float
    insert_default: float
    delete_default: float
    substitute_default: float = 0.0
    insert_costs: Mapping[str, float] = field(default_factory=dict)
    delete_costs: Mapping[str, float] = field(default_factory=dict)
    substitute_costs: Mapping[tuple[str, str], float] = field(default_factory=dict)
    nearest_label_substitution: bool = False

    def __post_init__(self) -> None:
        _check_cost("edge_cost_squared", self.edge_cost_squared)
        if self.edge_cost_squared == 0:
            raise CostModelError("edge_cost_squared must be a positive finite number")
        for name, value in (
            ("insert_default", self.insert_default),
            ("delete_default", self.delete_default),
            ("substitute_default", self.substitute_default),
        ):
            _check_cost(name, value)
        for table_name, table in (
            ("node_insert", self.insert_costs),
            ("node_delete", self.delete_costs),
        ):
            for label, value in table.items():
                _check_cost(f"{table_name}[{label!r}]", value)
        for (l1, l2), value in self.substitute_costs.items():
            _check_cost(f"node_substitute[{l1!r}, {l2!r}]", value)
            if l1 == l2 and value != 0:
                raise CostModelError(
                    f"substitution cost for identical label {l1!r} must be 0"
                )

    def node_insert_cost(self, label: str) -> float:
        return float(self.insert_costs.get(label, self.insert_default))

    def node_delete_cost(self, label: str) -> float:
        return float(self.delete_costs.get(label, self.delete_default))

    def node_substitute_cost(
        self, from_label: str, to_label: str, label_pool: AbstractSet[str] | None = None
    ) -> float:
        if from_label == to_label:
            return 0.0
        if self.nearest_label_substitution:
            if label_pool is None:
                raise CostModelError(
                    "nearest-label substitution needs the pair's label pool"
                )
            return _nearest_label_cost(from_label, to_label, label_pool)
        return float(
            self.substitute_costs.get((from_label, to_label), self.substitute_default)
        )


def _check_cost(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CostModelError(f"{name}: cost must be a number, got {value!r}")
    # int-float comparisons are exact, and NaN fails both
    if not 0 <= value <= MAX_COST:
        msg = f"cost must be nonnegative and at most {MAX_COST:g}, well inside float range"
        raise CostModelError(f"{name}: {msg}")


def _label_id(label: str) -> int:
    try:
        return int(label, 10)
    except ValueError:
        raise CostModelError(
            f"label {label!r} is not an integer id; nearest-label substitution "
            "requires integer labels"
        ) from None


def _nearest_label_cost(from_label: str, to_label: str, pool: AbstractSet[str]) -> float:
    """Substitution price under the integer-id nearest-neighbor rule.

    Candidates are the pool's labels other than the source label itself.
    The target costs 1 when its id distance attains the candidate minimum
    (ties count as nearest), otherwise 2. A pool with no other candidate
    cannot rank the target, which then costs 2.
    """
    src = _label_id(from_label)
    dst = _label_id(to_label)
    best: int | None = None
    for label in pool:
        if label == from_label:
            continue
        dist = abs(_label_id(label) - src)
        if best is None or dist < best:
            best = dist
    if best is None:
        return 2.0
    return 1.0 if abs(dst - src) == best else 2.0


def builtin_cost_model(setting: str) -> CostModel:
    """One of the three built-in cost settings.

    * ``case1``: insert 3, delete 1, substitution free, squared edge cost 2.
    * ``case2``: as ``case1`` but substitution costs 1 for a nearest-neighbor
      label (by integer-id distance over the pair's labels) and 2 otherwise.
    * ``case3``: every insert/delete costs 1, substitution free, squared edge
      cost 1.
    """
    if setting == "case1":
        return CostModel(edge_cost_squared=2.0, insert_default=3.0, delete_default=1.0)
    if setting == "case2":
        return CostModel(
            edge_cost_squared=2.0,
            insert_default=3.0,
            delete_default=1.0,
            nearest_label_substitution=True,
        )
    if setting == "case3":
        return CostModel(edge_cost_squared=1.0, insert_default=1.0, delete_default=1.0)
    raise CostModelError(
        f"unknown cost setting {setting!r}; expected one of {', '.join(BUILTIN_SETTINGS)}"
    )


def load_cost_model(source: bytes | str | IO) -> CostModel:
    """Parse a cost file.

    Schema::

        {"edge_cost_squared": 1.0,
         "node_insert":     {"default": 2.0, "C": 3.0, ...},
         "node_delete":     {"default": 2.0, ...},
         "node_substitute": {"default": 0.0, "pairs": [["C", "N", 1.0], ...]}}

    ``node_insert`` and ``node_delete`` must declare a ``default``; extra keys
    are per-label overrides. Substitution pairs are ordered; missing pairs fall
    back to the declared default. Any other key, top-level or in
    ``node_substitute``, a ``(from, to)`` pair listed twice and a key repeated
    in one object are refused, since each would otherwise be dropped silently.
    """
    doc = _load_json_object(source, CostModelError, "cost")
    if "edge_cost_squared" not in doc:
        raise CostModelError("cost document missing 'edge_cost_squared'")
    unknown = doc.keys() - {"edge_cost_squared", "node_insert", "node_delete", "node_substitute"}
    if unknown:
        raise CostModelError(f"unknown cost document keys: {sorted(unknown)}")

    def _table(section: str, missing: dict | None = None) -> tuple[float, dict]:
        raw = doc.get(section, missing)
        if not isinstance(raw, dict) or "default" not in raw:
            raise CostModelError(f"{section!r} must be an object with a 'default' cost")
        table = {k: v for k, v in raw.items() if k != "default"}
        return raw["default"], table

    insert_default, insert_costs = _table("node_insert")
    delete_default, delete_costs = _table("node_delete")
    substitute_default, sub_table = _table("node_substitute", {"default": 0.0})
    unknown = sub_table.keys() - {"pairs"}
    if unknown:
        raise CostModelError(f"unknown node_substitute keys: {sorted(unknown)}")
    raw_pairs = sub_table.get("pairs", [])
    if not isinstance(raw_pairs, list):
        raise CostModelError("'node_substitute.pairs' must be a list")
    sub_pairs: dict[tuple[str, str], float] = {}
    for pos, entry in enumerate(raw_pairs):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], str)
        ):
            raise CostModelError(
                f"node_substitute.pairs[{pos}]: expected [from_label, to_label, cost]"
            )
        if (entry[0], entry[1]) in sub_pairs:
            raise CostModelError(
                f"node_substitute.pairs[{pos}]: pair {entry[0]!r} -> {entry[1]!r} listed twice"
            )
        sub_pairs[(entry[0], entry[1])] = entry[2]
    return CostModel(
        edge_cost_squared=doc["edge_cost_squared"],
        insert_default=insert_default,
        delete_default=delete_default,
        substitute_default=substitute_default,
        insert_costs=insert_costs,
        delete_costs=delete_costs,
        substitute_costs=sub_pairs,
    )


def build_cost_matrix(pair: GraphPair, cm: CostModel) -> np.ndarray:
    """Node-cost matrix ``D`` of a pair; entry ``(i, j)`` prices ``i -> j``.

    The rows are built as Python lists and become one array: one numpy call
    in place of one per entry. One of the two graphs has the padded order,
    so no entry pairs two padding nodes.
    """
    pool = pair.label_pool()
    labels1 = pair.g1.labels
    labels2 = pair.g2.labels
    n = pair.order
    rows = []
    for l1 in labels1:
        row = [cm.node_substitute_cost(l1, l2, pool) for l2 in labels2]
        row += [cm.node_delete_cost(l1)] * (n - len(labels2))
        rows.append(row)
    inserts = [cm.node_insert_cost(l2) for l2 in labels2]
    rows += [inserts] * (n - len(labels1))
    return np.array(rows, dtype=np.float64).reshape(n, n)
