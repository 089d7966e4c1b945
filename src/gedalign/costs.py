"""Edit-cost semantics: built-in settings, custom cost files, node-cost matrices.

A cost model fixes the price of every node edit (insert, delete, substitute)
and a single squared edge-edit cost. The node-cost matrix ``D`` of a pair of
orders ``n1`` and ``n2`` is ``max(n1, n2)`` square; entry ``(i, j)`` prices
mapping index ``i`` of the first graph onto index ``j`` of the second. It is
filled in blocks (Riesen & Bunke, IVC 2009):

* ``i < n1`` and ``j < n2``  ->  substitution cost (0 for equal labels)
* ``j >= n2`` (padding)      ->  deletion cost of ``i``'s label
* ``i >= n1`` (padding)      ->  insertion cost of ``j``'s label
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO, AbstractSet, Mapping

import numpy as np

from .errors import CostModelError
from .graphs import GraphPair

BUILTIN_SETTINGS = ("case1", "case2", "case3")


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
    try:
        valid = math.isfinite(value) and value >= 0
    except OverflowError:
        raise CostModelError(f"{name}: cost is an integer past float range") from None
    if not valid:
        raise CostModelError(f"{name}: cost must be finite and nonnegative, got {value}")


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
    back to the declared default.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise CostModelError(f"cost JSON parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise CostModelError("cost document must be a JSON object")
    if "edge_cost_squared" not in doc:
        raise CostModelError("cost document missing 'edge_cost_squared'")

    def _table(section: str) -> tuple[float, dict[str, float]]:
        raw = doc.get(section)
        if not isinstance(raw, dict) or "default" not in raw:
            raise CostModelError(f"{section!r} must be an object with a 'default' cost")
        table = {k: v for k, v in raw.items() if k != "default"}
        return raw["default"], table

    insert_default, insert_costs = _table("node_insert")
    delete_default, delete_costs = _table("node_delete")
    sub_raw = doc.get("node_substitute", {"default": 0.0})
    if not isinstance(sub_raw, dict) or "default" not in sub_raw:
        raise CostModelError("'node_substitute' must be an object with a 'default' cost")
    raw_pairs = sub_raw.get("pairs", [])
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
        sub_pairs[(entry[0], entry[1])] = entry[2]
    return CostModel(
        edge_cost_squared=doc["edge_cost_squared"],
        insert_default=insert_default,
        delete_default=delete_default,
        substitute_default=sub_raw["default"],
        insert_costs=insert_costs,
        delete_costs=delete_costs,
        substitute_costs=sub_pairs,
    )


def build_cost_matrix(pair: GraphPair, cm: CostModel) -> np.ndarray:
    """Node-cost matrix ``D`` of a pair; entry ``(i, j)`` prices ``i -> j``."""
    pool = pair.label_pool()
    labels1 = pair.g1.labels
    labels2 = pair.g2.labels
    n1, n2 = len(labels1), len(labels2)
    d = np.zeros((pair.order, pair.order), dtype=np.float64)
    for i, l1 in enumerate(labels1):
        for j, l2 in enumerate(labels2):
            d[i, j] = cm.node_substitute_cost(l1, l2, pool)
        d[i, n2:] = cm.node_delete_cost(l1)
    for j, l2 in enumerate(labels2):
        d[n1:, j] = cm.node_insert_cost(l2)
    return d
