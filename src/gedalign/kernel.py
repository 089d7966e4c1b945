"""Numerical core of the relaxed alignment problem.

Functions of plain float64 arrays: a pair of kappa-scaled symmetric
adjacency matrices ``(A, B)``, a node-cost matrix ``D`` and a relaxed
alignment ``P``, all of one square shape. The relaxed objective is::

    f(P) = 0.5 * ||A P - P B||_F^2  +  tr(P^T D)  +  lam * tr(P^T (J - P))

where ``J`` is the all-ones matrix. The node costs enter as the plain linear
term, so at a permutation the objective is the edit cost of that mapping. The
last term is the permutation-inducing regularizer: it vanishes exactly on
permutation matrices and is positive on every other doubly stochastic matrix.
The optimizer keeps ``P`` doubly stochastic, so the objective carries no
feasibility term. Costs at most ``costs.MAX_COST`` keep value and gradient
finite (bounds in the ``costs`` module docstring); nothing here checks.

The Frank–Wolfe loop reads the gradient at every step and the value only at
the iterate it returns, so the two are separate functions; each forms
``R = A P - P B`` itself, in the same operations. Shapes are not checked:
the caller builds all four matrices from one pair. The sums call
``np.add.reduce``, the reduction ``np.sum`` dispatches to, without its
per-call wrapper.
"""

from __future__ import annotations

import numpy as np


def objective(a: np.ndarray, b: np.ndarray, d: np.ndarray, p: np.ndarray, lam: float) -> float:
    """Relaxed objective ``f(P)``."""
    total = np.add.reduce
    r = a @ p - p @ b
    value = 0.5 * float(total(r * r, None))
    value += float(total(p * d, None))
    if lam != 0.0:  # as in gradient; the value is never -0.0, so the bits stay
        value += lam * float(total(p * (1.0 - p), None))
    return value


def gradient(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, p: np.ndarray, lam: float
) -> np.ndarray:
    """Analytic gradient of ``f`` with respect to ``P``. Using symmetry of
    the scaled matrices, with ``R = A P - P B``::

        grad = A R - R B + D + lam * (J - 2 P)
    """
    r = a @ p - p @ b
    g = a @ r - r @ b
    g += d
    if lam != 0.0:  # skips the work in every solve's first round, run at lam = 0
        g += lam * (1.0 - 2.0 * p)
    return g


def value_and_grad(
    a: np.ndarray, b: np.ndarray, d: np.ndarray, p: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """:func:`objective` and :func:`gradient` at one ``P``, with their bits."""
    return objective(a, b, d, p, lam), gradient(a, b, d, p, lam)
