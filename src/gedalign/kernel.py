"""Numerical core of the relaxed alignment problem.

One function of plain float64 arrays: a pair of kappa-scaled symmetric
adjacency matrices ``(A, B)``, a node-cost matrix ``D`` and a relaxed
alignment ``P`` with entries in ``[0, 1]``, all of one square shape. The
relaxed objective is::

    f(P) = 0.5 * ||A P - P B||_F^2  +  mu * tr(P^T D)  +  lam * tr(P^T (J - P))

where ``J`` is the all-ones matrix. The last term is the permutation-inducing
regularizer: it vanishes exactly on permutation matrices and is positive on
every other doubly stochastic matrix. Row/column-sum feasibility is enforced
by a quadratic penalty with weight ``sigma``; the box constraint ``[0, 1]`` is
handled by projection in the optimizer, not here. With ``sigma=0`` the value
is ``f`` itself.
"""

from __future__ import annotations

import numpy as np


def value_and_grad(
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    p: np.ndarray,
    mu: float,
    lam: float,
    sigma: float,
) -> tuple[float, np.ndarray]:
    """Penalized objective and its analytic gradient with respect to ``P``.

    The value is the objective plus ``sigma * (||P 1 - 1||^2 + ||P^T 1 - 1||^2)``.
    Using symmetry of the scaled matrices, with ``R = A P - P B``::

        grad = A R - R B + mu * D + lam * (J - 2 P)
             + 2 * sigma * ((P 1 - 1) 1^T + 1 (P^T 1 - 1)^T)

    ``R`` is formed once and serves both. Shapes are not checked: the caller
    builds all four matrices from one pair. The sums call ``np.add.reduce``,
    the reduction ``np.sum`` dispatches to, without its per-call wrapper.
    """
    total = np.add.reduce
    r = a @ p - p @ b
    value = 0.5 * float(total(r * r, None))
    value += mu * float(total(p * d, None))
    value += lam * float(total(p * (1.0 - p), None))
    g = a @ r - r @ b
    if mu != 0.0:
        g += mu * d
    if lam != 0.0:
        g += lam * (1.0 - 2.0 * p)
    if sigma != 0.0:
        row = total(p, 1) - 1.0
        col = total(p, 0) - 1.0
        value += sigma * float(total(row * row, None) + total(col * col, None))
        g += (2.0 * sigma) * (row[:, None] + col[None, :])
    return value, g
