"""Shared test helpers: small graph builders and randomized fixtures."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gedalign import LabeledGraph, make_graph
from gedalign.kernel import value_and_grad


def graph(labels, edges=()) -> LabeledGraph:
    return make_graph(list(labels), list(edges))


def random_graph(rng: np.random.Generator, n: int, labels, edge_prob: float = 0.35):
    node_labels = [labels[int(rng.integers(len(labels)))] for _ in range(n)]
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob
    ]
    return make_graph(node_labels, edges)


def regularizer(p: np.ndarray) -> float:
    """``tr(P^T (J - P))``, read off the kernel with every other term zeroed."""
    z = np.zeros_like(p)
    return value_and_grad(z, z, z, p, 0.0, 1.0, 0.0)[0]


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
