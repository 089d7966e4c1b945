"""Relaxed objective, value-and-gradient kernel, regularizer, and change of variables."""

import numpy as np
import pytest

from gedalign import Permutation
from gedalign.kernel import gradient, objective
from conftest import random_symmetric, regularizer

K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.zeros((2, 2))


def random_instance(rng, n, kappa_sq=None):
    """Random scaled adjacency pair, cost matrix and relaxed alignment of order n."""
    a = (rng.random((n, n)) < 0.4).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    b = (rng.random((n, n)) < 0.4).astype(float)
    b = np.triu(b, 1)
    b = b + b.T
    if kappa_sq is None:
        kappa_sq = float(rng.uniform(0.5, 4.0))
    kappa = np.sqrt(kappa_sq)
    d = rng.random((n, n)) * 3.0
    p = rng.random((n, n))
    return kappa * a, kappa * b, d, p


def finite_difference(a, b, d, p, lam, h=1e-5):
    fd = np.zeros_like(p)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            plus = p.copy()
            plus[i, j] += h
            minus = p.copy()
            minus[i, j] -= h
            fd[i, j] = (
                objective(a, b, d, plus, lam)
                - objective(a, b, d, minus, lam)
            ) / (2.0 * h)
    return fd


class TestObjective:
    def test_zero_at_identity_on_equal_matrices(self):
        assert objective(K2, K2, Z2, np.eye(2), 5.0) == 0.0

    def test_frobenius_term_only(self):
        value = objective(K2, Z2, Z2, np.eye(2), 0.0)
        assert value == 1.0  # half of the two unit entries' squares, times P = I

    def test_regularizer_term_closed_form(self):
        value = objective(Z2, Z2, Z2, np.full((2, 2), 0.5), 1.0)
        assert value == pytest.approx(1.0, abs=1e-15)


class TestGradient:
    def test_stationary_at_identity_on_equal_matrices(self):
        g = gradient(K2, K2, Z2, np.eye(2), 0.0)
        assert not g.any()

    def test_pure_linear_term_is_cost_matrix(self, rng):
        d = rng.random((3, 3))
        z = np.zeros((3, 3))
        g = gradient(z, z, d, z, 0.0)
        assert np.array_equal(g, d)

    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(15):
            n = int(rng.integers(2, 7))
            a, b, d, p = random_instance(rng, n)
            mu, lam = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 2.0))
            g = gradient(a, b, mu * d, p, lam)
            fd = finite_difference(a, b, mu * d, p, lam)
            rel = np.abs(g - fd) / np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
            worst = max(worst, float(rel.max()))
        assert worst <= 1e-5


class TestQuasiPermResidual:
    """The regularizer term ``tr(P^T (J - P))`` of the kernel."""

    def test_zero_on_permutations(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            p = Permutation(tuple(int(x) for x in rng.permutation(n))).matrix()
            assert regularizer(p) == 0.0

    def test_uniform_matrices(self):
        assert regularizer(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-15)
        assert regularizer(np.full((3, 3), 1.0 / 3.0)) == pytest.approx(2.0, abs=1e-12)

    def test_positive_on_non_permutation_doubly_stochastic(self, rng):
        # strict convex combinations of two distinct permutations stay doubly
        # stochastic but are not permutations, so the regularizer is positive
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p1 = Permutation(tuple(int(x) for x in rng.permutation(n))).matrix()
            p2 = Permutation(tuple(int(x) for x in rng.permutation(n))).matrix()
            if np.array_equal(p1, p2):
                continue
            w = float(rng.uniform(0.1, 0.9))
            mix = w * p1 + (1.0 - w) * p2
            assert regularizer(mix) > 0.0


class TestRelabelTransform:
    def test_objective_preserved_under_variable_change(self, rng):
        # relabeling the first graph by h maps (A, D, P) to
        # (A[inv][:, inv], D[inv, :], P[inv, :]); the value is unchanged and
        # the gradient only has its rows permuted
        for _ in range(25):
            n = int(rng.integers(2, 7))
            a, b = random_symmetric(rng, n), random_symmetric(rng, n)
            d = rng.random((n, n))
            p = rng.random((n, n))
            h = Permutation(tuple(int(x) for x in rng.permutation(n)))
            inv = np.array(h.inverse().mapping)
            a2 = a[np.ix_(inv, inv)]
            d2 = d[inv, :]
            p2 = p[inv, :]
            value, grad = objective(a, b, d, p, 0.6), gradient(a, b, d, p, 0.6)
            value2, grad2 = objective(a2, b, d2, p2, 0.6), gradient(a2, b, d2, p2, 0.6)
            assert value2 == pytest.approx(value, abs=1e-12)
            assert np.max(np.abs(grad2 - grad[inv, :])) <= 1e-12
