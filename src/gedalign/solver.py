"""Outer/inner optimization loop producing a GED upper bound and its mapping.

One solve runs rounds of Frank–Wolfe on the relaxed objective over the
doubly stochastic matrices (the Birkhoff polytope), as IPFP for GED (Bougleux
et al., PRL 2017) and FAQ for graph matching (Vogelstein et al., PLoS ONE
2015). Each round ends by rounding the relaxed alignment to a permutation
(exact assignment on the overlap) and scoring that mapping with the exact
edit accounting. The regularizer weight grows by a fixed step per round. The
best scored mapping over all rounds is reported; by construction it can only
overestimate the true distance. The trace records, per round, the relaxed
objective at the iterate it rounded. The kernel takes plain arrays, all
built once per solve from one pair, and the problem keeps its original node
coordinates for the whole solve.

Before the first round the solve computes the certified lower bound of
:func:`editpath.lower_bound`. When the costs make every sum exact, a mapping
that costs no more than the bound is optimal, and the solve stops with
``converged_reason="certified_optimal"`` as soon as it has one: at a round's
end, or inside a round, where the iterate is rounded and scored after each
step count in :data:`CHECK_STEPS`. Step 0 is checked in round 1 only: the
identity start's rounding is the identity, scored without an assignment,
and a start that meets the bound ends the solve before any gradient. A check
that does not certify changes nothing, so a solve that never certifies
inside a round is the solve without checks, bit for bit. A solve that does
returns the bound, the true distance; its estimate is never above the one
without checks, and its mapping may be a different optimal one. The checks
come at step 0 and at powers of two from step 1: at n=8 the step-0 check
takes about 9 µs, a later one, one rounding and one score, about 33 µs, and
a step about 39 µs (2-vCPU Xeon, one BLAS thread). On corpus_n8 the identity
start meets the bound on about nine pairs in ten.

Every cost and ``lambda_step`` is at most :data:`costs.MAX_COST`, so every
objective, gradient, step and score of a solve is finite (the ``costs``
module docstring bounds each) and the loop needs no finiteness check.

A solve is strictly single-threaded and bit-for-bit deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .assignment import Permutation, _augmenting_path_lap, round_to_permutation
from .costs import MAX_COST, CostModel, build_cost_matrix
from .editpath import EditPath, _score_mapping, extract_edit_path, lower_bound
from .graphs import LabeledGraph, adjacency, pad_pair
from .kernel import gradient, objective

logger = logging.getLogger(__name__)

#: converged_reason values
PATIENCE_EXHAUSTED = "patience_exhausted"
LAMBDA_ROUNDS_EXHAUSTED = "lambda_rounds_exhausted"
CERTIFIED_OPTIMAL = "certified_optimal"


#: A round's inner loop stops once the Frank–Wolfe gap is at most this.
INNER_TOL = 1e-7

#: With a certified lower bound, a round rounds and scores its iterate after
#: each of these step counts, and ends the solve when the mapping meets the
#: bound. Step 0 is checked in round 1 only, on the identity start, whose
#: rounding needs no assignment; later rounds start from an iterate whose
#: rounding already failed the bound. Costs in the module docstring.
CHECK_STEPS = (0, 1, 2, 4, 8, 16)


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; the defaults are the production setting.

    ``lambda_step=0`` keeps the regularizer weight at zero for the whole
    solve, so every round just rounds the relaxed solution (the ablation).
    ``lambda_max_rounds``, ``patience`` and ``inner_max_iters`` are class
    constants, not fields.
    """

    lambda_step: float = 0.5
    lambda_max_rounds: ClassVar[int] = 20  # round cap
    patience: ClassVar[int] = 3  # rounds without improvement before the solve stops
    inner_max_iters: ClassVar[int] = 30  # Frank–Wolfe steps per round

    def __post_init__(self) -> None:
        if not 0 <= self.lambda_step <= MAX_COST:
            raise ValueError(f"lambda_step must be from 0 to {MAX_COST:g}")


def inner_minimize(
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    p0: np.ndarray,
    lam: float,
    certify: Callable[[np.ndarray], tuple[Permutation, float] | None] | None = None,
) -> tuple[np.ndarray, int, float, tuple[Permutation, float] | None]:
    """Run Frank–Wolfe from the doubly stochastic ``p0``.

    ``a`` and ``b`` are the kappa-scaled adjacency matrices, ``d`` the
    node-cost matrix and ``lam`` the regularizer weight. Each step takes the
    permutation ``S`` minimizing ``<g, S>`` for the gradient ``g``, an
    assignment warm-started from the previous step's column duals, and moves
    to ``P + gamma (S - P)``. Along that segment the objective is the
    quadratic ``f(P) + gamma <g, Δ> + gamma^2 (0.5 ||A Δ - Δ B||^2 - lam ||Δ||^2)``
    with ``Δ = S - P``, so the ``gamma`` in ``[0, 1]`` minimizing it is exact:
    1 when the curvature is not positive, else the parabola's vertex capped
    at 1. Every iterate is a convex combination of permutations, hence doubly
    stochastic. Stops when the Frank–Wolfe gap ``<g, P - S>`` is at most
    ``INNER_TOL`` or after ``SolverConfig.inner_max_iters`` steps. Only the
    gradient is computed at each step, and none at the last iterate of a
    capped round; the objective is evaluated once, at the returned iterate.

    With ``certify``, the iterate after each step count in ``CHECK_STEPS`` is
    passed to it; it returns a scored mapping that meets the lower bound, or
    ``None`` and changes nothing. On a mapping the loop stops at once. Returns
    the last iterate, the number of steps taken, the objective there and the
    certified mapping with its cost, or ``None``.
    """
    total = np.add.reduce
    p = np.asarray(p0, dtype=np.float64)
    rows = np.arange(p.shape[0])
    v = None
    steps = 0
    certified = None
    while steps < SolverConfig.inner_max_iters:
        g = gradient(a, b, d, p, lam)
        cols, _, v = _augmenting_path_lap(g, v)
        delta = -p
        delta[rows, cols] += 1.0
        slope = float(total(g * delta, None))
        if slope >= -INNER_TOL:
            break
        q = a @ delta - delta @ b
        curvature = 0.5 * float(total(q * q, None)) - lam * float(total(delta * delta, None))
        gamma = 1.0 if curvature <= 0.0 else min(1.0, -slope / (2.0 * curvature))
        p = p + gamma * delta
        steps += 1
        if certify is not None and steps in CHECK_STEPS:
            certified = certify(p)
            if certified is not None:
                break
    return p, steps, objective(a, b, d, p, lam), certified


@dataclass(frozen=True)
class RoundRecord:
    """Per-round trace entry. ``objective_value`` is the relaxed objective
    the round minimized, at the iterate it rounded; in a round ended by a
    check inside it, ``inner_iterations`` counts the steps up to the check."""

    round_index: int
    lam: float
    inner_iterations: int
    candidate_ged: float
    objective_value: float


@dataclass(frozen=True)
class SolveReport:
    """Result of one solve: the distance bound, the mapping explaining it,
    its edit path, the per-round trace, and the certified lower bound
    (``None`` when the costs do not allow an exact one)."""

    estimated_ged: float
    permutation: Permutation
    edit_path: EditPath
    trace: tuple[RoundRecord, ...]
    converged_reason: str
    lower_bound: float | None = None


def estimate_ged(
    g1: LabeledGraph,
    g2: LabeledGraph,
    cm: CostModel,
    cfg: SolverConfig | None = None,
) -> SolveReport:
    """Estimate the edit distance of two graphs.

    The report's mapping runs over ``max(n1, n2)`` indices; an index past a
    graph's own order is padding, and mapping to or from it encodes a deletion
    or an insertion in the edit path.

    The alignment starts at the identity with the regularizer off. Every
    round: minimize from the previous round's iterate, round it to a
    permutation, and score that mapping exactly. A round that takes no step
    keeps its start's scored rounding: the previous round's candidate, or in
    round 1 the identity, whose matrix has no other optimal rounding, scored
    without an assignment. The problem itself never
    changes during a solve. The regularizer weight increases by
    ``lambda_step`` per round. Stops when a score meets the certified lower
    bound, at a round's end or at one of its ``CHECK_STEPS``, when the best
    score has not improved for ``patience`` rounds, or at the round cap.
    """
    if cfg is None:
        cfg = SolverConfig()
    pair = pad_pair(g1, g2)
    n = pair.order
    a = adjacency(pair.g1, n)
    b = adjacency(pair.g2, n)
    d = build_cost_matrix(pair, cm)
    lb = lower_bound(d, a, b, cm.edge_cost_squared)

    kappa = math.sqrt(cm.edge_cost_squared)
    a_scaled = kappa * a
    b_scaled = kappa * b

    def score(mapping: Permutation) -> tuple[Permutation, float]:
        return mapping, _score_mapping(d, a, b, mapping.mapping, cm.edge_cost_squared)

    def certify(p: np.ndarray) -> tuple[Permutation, float] | None:
        mapping, cost = score(round_to_permutation(p))
        return (mapping, cost) if cost <= lb else None

    p = np.eye(n, dtype=np.float64)
    # the scored rounding of p, once known; -I has one optimal assignment, so
    # the identity start's rounding is the identity
    rounded = score(Permutation.identity(n)) if lb is not None and 0 in CHECK_STEPS else None
    lam = 0.0
    best_ged = math.inf  # round 1's candidate is finite, so it sets best_mapping
    stall = 0
    trace: list[RoundRecord] = []
    rounds = 0
    while True:
        rounds += 1
        if rounds == 1 and rounded is not None and rounded[1] <= lb:  # the step-0 check
            inner_iters, value, certified = 0, objective(a_scaled, b_scaled, d, p, lam), rounded
        else:
            p, inner_iters, value, certified = inner_minimize(
                a_scaled, b_scaled, d, p, lam, None if lb is None else certify
            )
        if certified is not None:
            rounded = certified
        elif inner_iters:
            rounded = score(round_to_permutation(p))
        elif rounded is None:  # the identity start
            rounded = score(Permutation.identity(n))
        candidate_mapping, candidate = rounded
        trace.append(
            RoundRecord(
                round_index=rounds,
                lam=lam,
                inner_iterations=inner_iters,
                candidate_ged=candidate,
                objective_value=value,
            )
        )
        logger.debug(
            "round %d: lam=%.3g inner=%d candidate=%.6g", rounds, lam, inner_iters, candidate
        )
        if candidate < best_ged:
            best_ged = candidate
            best_mapping = candidate_mapping
            stall = 0
        else:
            stall += 1
        if lb is not None and best_ged <= lb:
            reason = CERTIFIED_OPTIMAL
            break
        if stall >= cfg.patience:
            reason = PATIENCE_EXHAUSTED
            break
        if rounds >= cfg.lambda_max_rounds:
            reason = LAMBDA_ROUNDS_EXHAUSTED
            break
        lam += cfg.lambda_step
    path = extract_edit_path(pair, best_mapping, cm)
    return SolveReport(
        estimated_ged=best_ged,
        permutation=best_mapping,
        edit_path=path,
        trace=tuple(trace),
        converged_reason=reason,
        lower_bound=lb,
    )
