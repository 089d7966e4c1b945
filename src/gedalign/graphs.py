"""Labeled undirected graphs: model, validation, pairs, adjacency, JSON I/O.

A pair of graphs is aligned over ``max(n1, n2)`` node indices. An index at or
past a graph's own order is padding: mapping a node onto it deletes the node,
mapping it onto a node inserts one. Padding is implicit in the index; no node,
label or edge represents it, so every string is a valid label.

Graph JSON schema::

    {"nodes": [{"id": 0, "label": "a"}, ...],   # sorted by id, ids contiguous from 0
     "edges": [[0, 1], ...]}                    # unordered pairs, stored with first < second

Serialization is canonical (sorted keys, nodes by id, sorted edges) so that a
saved graph is byte-stable and usable as a golden file.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import GedError, GraphFormatError


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable node-labeled simple undirected graph.

    ``labels[i]`` is the label of node ``i``; node ids are the contiguous range
    ``0..order-1``. ``edges`` holds ``(i, j)`` pairs of ``int`` with ``i < j``,
    sorted; :func:`make_graph` converts other integer types.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        for pos, label in enumerate(self.labels):
            if not isinstance(label, str):
                raise GraphFormatError(f"labels[{pos}]: {label!r} is not a string")
        prev = (-1, -1)
        for edge in self.edges:
            i, j = edge
            if type(i) is not int or type(j) is not int:  # bool is refused too
                raise GraphFormatError(f"edge {edge!r}: endpoints must be ints")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge {edge!r}: endpoint out of range 0..{n - 1}")
            if i == j:
                raise GraphFormatError(f"edge {edge!r}: self-loop")
            if i > j:
                raise GraphFormatError(f"edge {edge!r}: endpoints must be ordered")
            if edge <= prev:  # sorted edges are strictly increasing
                raise GraphFormatError(
                    f"edge {edge!r}: duplicate" if edge == prev else "edges are not sorted"
                )
            prev = edge

    @property
    def order(self) -> int:
        return len(self.labels)


def make_graph(labels: Sequence[str], edges: Iterable[Sequence[int]]) -> LabeledGraph:
    """Build a graph from unnormalized parts, rejecting invariant violations.

    Edge pairs may come in either orientation; they are normalized to
    ``first < second`` and sorted. Duplicates (in any orientation),
    self-loops and endpoints that are not integers (floats, strings, bools)
    are errors; numpy integers are stored as ``int``.
    """
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n = len(labels)
    for pos, edge in enumerate(edges):
        try:  # floats and strings have no __index__; bools do, so they are tested
            first, second = edge
            i, j = operator.index(first), operator.index(second)
        except (TypeError, ValueError):
            i = j = None
        if i is None or type(first) is bool or type(second) is bool:
            raise GraphFormatError(
                f"edges[{pos}]: expected a pair of integer node ids, got {edge!r}"
            )
        if i == j:
            raise GraphFormatError(f"edges[{pos}]: self-loop on node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphFormatError(f"edges[{pos}]: endpoint out of range 0..{n - 1}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphFormatError(f"edges[{pos}]: duplicate edge {key}")
        seen.add(key)
        normalized.append(key)
    normalized.sort()
    return LabeledGraph(labels=tuple(labels), edges=tuple(normalized))


@dataclass(frozen=True)
class GraphPair:
    """Two unpadded graphs, aligned over ``order = max(g1.order, g2.order)``
    indices; the indices past a graph's own order are its padding."""

    g1: LabeledGraph
    g2: LabeledGraph

    @property
    def order(self) -> int:
        return max(self.g1.order, self.g2.order)

    def label_pool(self) -> frozenset[str]:
        """Union of the two graphs' label sets; padding carries no label."""
        return frozenset(self.g1.labels) | frozenset(self.g2.labels)


def pad_pair(g1: LabeledGraph, g2: LabeledGraph) -> GraphPair:
    """Pair two graphs for alignment; the smaller one is padded implicitly."""
    return GraphPair(g1=g1, g2=g2)


def adjacency(g: LabeledGraph, order: int) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix of ``g`` padded to ``order`` nodes;
    padding rows and columns are zero."""
    a = np.zeros((order, order), dtype=np.float64)
    for i, j in g.edges:
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def _load_json_object(source: bytes | str | IO, error: type[GedError], what: str) -> dict:
    """The JSON object in ``source`` (bytes, text, or a readable stream);
    anything else raises ``error``, naming the document ``what``."""
    data = source.read() if hasattr(source, "read") else source
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    # not UTF-8, not JSON, an integer past the digit limit, or nesting past
    # the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} JSON parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} document must be a JSON object")
    return doc


def _dump_json(doc: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, a final newline."""
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def load_graph(source: bytes | str | IO) -> LabeledGraph:
    """Parse and validate a graph document (bytes, text, or a readable stream).

    Every violation is reported with the offending location.
    """
    doc = _load_json_object(source, GraphFormatError, "graph")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise GraphFormatError(f"graph document missing {key!r}")
        if not isinstance(doc[key], list):
            raise GraphFormatError(f"{key!r} must be an array")
    labels: list[str] = []
    for pos, node in enumerate(doc["nodes"]):
        if not isinstance(node, dict) or "id" not in node or "label" not in node:
            raise GraphFormatError(f"nodes[{pos}]: expected an object with 'id' and 'label'")
        if not isinstance(node["id"], int) or isinstance(node["id"], bool):
            raise GraphFormatError(f"nodes[{pos}]: 'id' must be an integer")
        if node["id"] != pos:
            raise GraphFormatError(
                f"nodes[{pos}]: id {node['id']} out of order; ids must be contiguous from 0"
            )
        if not isinstance(node["label"], str):
            raise GraphFormatError(f"nodes[{pos}]: 'label' must be a string")
        labels.append(node["label"])
    for pos, edge in enumerate(doc["edges"]):
        if not isinstance(edge, list):  # make_graph checks the rest
            raise GraphFormatError(f"edges[{pos}]: expected a pair of integer node ids")
    return make_graph(labels, doc["edges"])


def save_graph(g: LabeledGraph) -> str:
    """Canonical JSON text for a graph."""
    doc = {
        "nodes": [{"id": i, "label": label} for i, label in enumerate(g.labels)],
        "edges": [list(edge) for edge in g.edges],
    }
    return _dump_json(doc)
