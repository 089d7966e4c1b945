"""Numerical core of the relaxed alignment problem.

All operations work on a pair of kappa-scaled adjacency matrices ``(A, B)``,
a node-cost matrix ``D`` and a relaxed alignment ``P`` with entries in
``[0, 1]``. The relaxed objective is::

    f(P) = 0.5 * ||A P - P B||_F^2  +  mu * tr(P^T D)  +  lam * tr(P^T (J - P))

where ``J`` is the all-ones matrix. The last term is the permutation-inducing
regularizer: it vanishes exactly on permutation matrices and is positive on
every other doubly stochastic matrix. Row/column-sum feasibility is enforced
by a quadratic penalty with weight ``sigma``; the box constraint ``[0, 1]`` is
handled by projection in the optimizer, not here.

Everything in this module is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ScaledPair:
    """Kappa-scaled adjacency matrices of a padded graph pair."""

    a_scaled: np.ndarray
    b_scaled: np.ndarray

    def __post_init__(self) -> None:
        for name, m in (("a_scaled", self.a_scaled), ("b_scaled", self.b_scaled)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if not np.array_equal(m, m.T):
                raise ValueError(f"{name} must be symmetric")
        if self.a_scaled.shape != self.b_scaled.shape:
            raise ValueError(
                f"scaled pair shapes differ: {self.a_scaled.shape} vs {self.b_scaled.shape}"
            )

    @property
    def order(self) -> int:
        return self.a_scaled.shape[0]


def scale_pair(a: np.ndarray, b: np.ndarray, edge_cost_squared: float) -> ScaledPair:
    """Scale raw adjacency matrices by ``sqrt(edge_cost_squared)``."""
    kappa = math.sqrt(edge_cost_squared)
    return ScaledPair(a_scaled=kappa * np.asarray(a, dtype=np.float64),
                      b_scaled=kappa * np.asarray(b, dtype=np.float64))


@dataclass(frozen=True)
class ObjectiveParams:
    """Weights of the relaxed objective: node-cost weight ``mu``, regularizer
    weight ``lam``, penalty coefficient ``sigma``."""

    mu: float = 1.0
    lam: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("mu", self.mu), ("lam", self.lam), ("sigma", self.sigma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def _check_shapes(sp: ScaledPair, d: np.ndarray, p: np.ndarray) -> None:
    n = sp.order
    if d.shape != (n, n) or p.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: matrices {sp.a_scaled.shape}, D {d.shape}, P {p.shape}"
        )


def objective(sp: ScaledPair, d: np.ndarray, p: np.ndarray, params: ObjectiveParams) -> float:
    """Relaxed objective value (no feasibility penalty)."""
    value, _ = value_and_grad(sp, d, p, replace(params, sigma=0.0))
    return value


def value_and_grad(
    sp: ScaledPair, d: np.ndarray, p: np.ndarray, params: ObjectiveParams
) -> tuple[float, np.ndarray]:
    """Penalized objective and its analytic gradient with respect to ``P``.

    The value is the objective plus ``sigma * (||P 1 - 1||^2 + ||P^T 1 - 1||^2)``.
    Using symmetry of the scaled matrices, with ``R = A P - P B``::

        grad = A R - R B + mu * D + lam * (J - 2 P)
             + 2 * sigma * ((P 1 - 1) 1^T + 1 (P^T 1 - 1)^T)

    ``R`` is formed once and serves both.
    """
    _check_shapes(sp, d, p)
    a = sp.a_scaled
    b = sp.b_scaled
    r = a @ p - p @ b
    value = 0.5 * float(np.sum(r * r))
    value += params.mu * float(np.sum(p * d))
    value += params.lam * float(np.sum(p * (1.0 - p)))
    g = a @ r - r @ b
    if params.mu != 0.0:
        g += params.mu * d
    if params.lam != 0.0:
        g += params.lam * (1.0 - 2.0 * p)
    if params.sigma != 0.0:
        row = p.sum(axis=1) - 1.0
        col = p.sum(axis=0) - 1.0
        value += params.sigma * float(np.sum(row * row) + np.sum(col * col))
        g += (2.0 * params.sigma) * (row[:, None] + col[None, :])
    return value, g


def quasi_perm_residual(p: np.ndarray) -> float:
    """``tr(P^T (J - P)) = sum p_ij (1 - p_ij)``.

    Zero exactly on permutation matrices; positive on every doubly stochastic
    matrix that is not a permutation.
    """
    p = np.asarray(p, dtype=np.float64)
    return float(np.sum(p * (1.0 - p)))

