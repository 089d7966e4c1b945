"""Shared test helpers: small graph builders and randomized fixtures."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from gedalign import LabeledGraph, adjacency, build_cost_matrix, make_graph, pad_pair
from gedalign.editpath import _mapping_costs
from gedalign.kernel import objective


def graph(labels, edges=()) -> LabeledGraph:
    return make_graph(list(labels), list(edges))


def random_graph(rng: np.random.Generator, n: int, labels, edge_prob: float = 0.35):
    node_labels = [labels[int(rng.integers(len(labels)))] for _ in range(n)]
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    ]
    return make_graph(node_labels, edges)


def shuffle_nodes(g: LabeledGraph, perm) -> LabeledGraph:
    """``g`` with node ``i`` renamed ``perm[i]``; no edit distance changes."""
    labels = [""] * g.order
    for i, j in enumerate(perm):
        labels[j] = g.labels[i]
    return make_graph(labels, [(perm[i], perm[j]) for i, j in g.edges])


def shuffled_cases(cases, seed: int = 7):
    """The cases with each second graph shuffled by a permutation drawn from
    one ``default_rng(seed)`` in case order, so that the generator's alignment
    is no longer the identity. Truths and applied costs stay valid."""
    rng = np.random.default_rng(seed)
    return [replace(c, g2=shuffle_nodes(c.g2, rng.permutation(c.g2.order))) for c in cases]


def regularizer(p: np.ndarray) -> float:
    """``tr(P^T (J - P))``, read off the kernel with every other term zeroed."""
    z = np.zeros_like(p)
    return objective(z, z, z, p, 1.0)


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.random((n, n)) * scale
    return (m + m.T) / 2.0


def brute_force_assignment(cost: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Reference minimum by enumerating all permutations in lexicographic order."""
    n = cost.shape[0]
    best_total = None
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if best_total is None or total < best_total:
            best_total, best_perm = total, perm
    assert best_perm is not None
    return best_total, best_perm


def score_block(
    d: np.ndarray, a: np.ndarray, b: np.ndarray, perms: np.ndarray, k2: float
) -> np.ndarray:
    """Costs of the mappings in ``perms`` (one per row) from the node-cost
    matrix ``d`` and the raw adjacency matrices ``a`` and ``b``, all at once:
    the block reference for ``editpath._score_mapping``.

    The edited slots are counted over whole matrices: both are symmetric, so
    a vertex pair that differs counts twice, and graphs refuse self-loops, so
    both diagonals are zero and add nothing; half the count is exact.
    """
    n = d.shape[0]
    edited = np.count_nonzero(a != b[perms[:, :, None], perms[:, None, :]], axis=(1, 2)) // 2
    return _mapping_costs(d[np.arange(n), perms].T, edited, k2)


def brute_force_ged(g1, g2, cm) -> tuple[float, tuple[int, ...]]:
    """Reference oracle: every mapping in lexicographic order, scored by
    ``score_block``; the first of the cheapest is kept."""
    pair = pad_pair(g1, g2)
    n = pair.order
    d = build_cost_matrix(pair, cm)
    a, b = adjacency(pair.g1, n), adjacency(pair.g2, n)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = score_block(d, a, b, perms, cm.edge_cost_squared)
    k = int(np.argmin(totals))  # the first occurrence of the minimum
    return float(totals[k]), tuple(perms[k].tolist())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
