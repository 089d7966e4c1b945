"""Outer/inner optimization loop producing a GED upper bound and its mapping.

One solve runs rounds of Frank–Wolfe on the relaxed objective over the
doubly stochastic matrices (the Birkhoff polytope), as IPFP for GED (Bougleux
et al., PRL 2017) and FAQ for graph matching (Vogelstein et al., PLoS ONE
2015). Each round ends by rounding the relaxed alignment to a permutation
(exact assignment on the overlap) and scoring that mapping with the exact
edit accounting. A rounding that does not meet the certified lower bound is
then improved by best-improving swap descent (:func:`editpath._swap_descent`;
Riesen, Fischer & Bunke, Pattern Recognition 2015), whose every kept swap is
re-scored exactly. The regularizer weight grows by a fixed step per round.
The best descended mapping over all rounds is reported; by construction it
can only overestimate the true distance. Patience and the trace count the
undescended rounding's cost, so a solve runs the rounds of the solve without
descent unless a descended mapping certifies sooner. The trace records, per
round, the relaxed objective at the iterate it rounded. The kernel takes
plain arrays, all built once per solve from one pair, and the problem keeps
its original node coordinates for the whole solve.

Before the first round the solve computes the certified lower bound of
:func:`editpath.lower_bound`. When the costs make every sum exact, a mapping
that costs no more than the bound is optimal, and the solve stops with
``converged_reason="certified_optimal"`` as soon as it has one: at a round's
end, or inside a round, where the iterate is rounded, scored and descended
after each step count in :data:`CHECK_STEPS`. Step 0 is checked in round 1
only: the identity start's rounding is the identity, scored without an
assignment, and a start whose descent meets the bound ends the solve before
any gradient. A check that does not certify changes nothing, its descended
mapping included, so a solve that never certifies inside a round is the
solve without checks, bit for bit. A solve that does returns the bound, the
true distance; its estimate is never above the one without checks, and its
mapping may be a different optimal one. The checks come at step 0 and at
powers of two from step 1. At n=8 the step-0 check takes about 7 µs, a
later one, one rounding and one score, about 60 µs, a descent about 85 µs
(25 µs a pass) and a step about 55 µs (2-vCPU Xeon, one BLAS thread). On
corpus_n8 at seed 20240501 the identity meets the bound on 181 pairs of 200
and its descent on 193.

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
from .editpath import EditPath, _score_mapping, _swap_descent, extract_edit_path, lower_bound
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
        # as costs._check_cost: a bool is no weight, and a non-number no operand
        if not isinstance(self.lambda_step, (int, float)) or isinstance(self.lambda_step, bool):
            raise ValueError(f"lambda_step must be a number, got {self.lambda_step!r}")
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
    the round minimized, at the iterate it rounded; ``candidate_ged`` is the
    score of that rounding before swap descent. In a round ended by a check,
    ``inner_iterations`` counts the steps up to the check and
    ``candidate_ged`` is the certified, descended cost."""

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
    permutation, score that mapping exactly and, unless it meets the
    certified lower bound, descend from it by swaps. A round that takes no
    step keeps its start's rounding cost and descent: the previous round's,
    or in round 1 the identity's, whose matrix has no other optimal rounding,
    scored without an assignment. The problem itself never changes during a
    solve. The regularizer weight increases by ``lambda_step`` per round.
    Stops when a descended score meets the bound, at a round's end or at one
    of its ``CHECK_STEPS``, when the best undescended score has not improved
    for ``patience`` rounds, or at the round cap. Reports the best descended
    mapping; each round's ``candidate_ged`` is its undescended score, or the
    certified cost where a check certified.
    """
    if cfg is None:
        cfg = SolverConfig()
    pair = pad_pair(g1, g2)
    n = pair.order
    a = adjacency(pair.g1, n)
    b = adjacency(pair.g2, n)
    d = build_cost_matrix(pair, cm)
    k2 = cm.edge_cost_squared
    lb = lower_bound(d, a, b, k2)

    kappa = math.sqrt(k2)
    a_scaled = kappa * a
    b_scaled = kappa * b

    def scored(mapping: Permutation) -> tuple[float, tuple[Permutation, float]]:
        """The mapping's exact cost, and the mapping with that cost after swap
        descent unless the cost already meets the bound."""
        cost = _score_mapping(d, a, b, mapping.mapping, k2)
        if lb is not None and cost <= lb:
            return cost, (mapping, cost)
        descended, lowered = _swap_descent(d, a, b, mapping.mapping, cost, k2)
        return cost, (Permutation(descended), lowered)

    def certify(p: np.ndarray) -> tuple[Permutation, float] | None:
        mapping, cost = scored(round_to_permutation(p))[1]
        return (mapping, cost) if cost <= lb else None

    p = np.eye(n, dtype=np.float64)
    # the cost of p's rounding and that rounding's descent, once known; -I has
    # one optimal assignment, so the identity start's rounding is the identity
    candidate = certified = None
    if lb is not None and 0 in CHECK_STEPS:  # the step-0 check
        candidate, descended = scored(Permutation.identity(n))
        certified = descended if descended[1] <= lb else None
    lam = 0.0
    best_candidate = best_ged = math.inf  # round 1's scores are finite and set both
    stall = 0
    trace: list[RoundRecord] = []
    while True:
        if certified is None:
            p, inner_iters, value, certified = inner_minimize(
                a_scaled, b_scaled, d, p, lam, None if lb is None else certify
            )
        else:  # the step-0 check certified; a later certificate ends the solve
            inner_iters, value = 0, objective(a_scaled, b_scaled, d, p, lam)
        if certified is not None:
            candidate, descended = certified[1], certified
        elif inner_iters or candidate is None:
            candidate, descended = scored(
                round_to_permutation(p) if inner_iters else Permutation.identity(n)
            )
        trace.append(
            RoundRecord(
                round_index=len(trace) + 1,
                lam=lam,
                inner_iterations=inner_iters,
                candidate_ged=candidate,
                objective_value=value,
            )
        )
        logger.debug(
            "round %d: lam=%.3g inner=%d candidate=%.6g", len(trace), lam, inner_iters, candidate
        )
        if candidate < best_candidate:
            best_candidate = candidate
            stall = 0
        else:
            stall += 1
        if descended[1] < best_ged:
            best_mapping, best_ged = descended
        if lb is not None and best_ged <= lb:
            reason = CERTIFIED_OPTIMAL
            break
        if stall >= cfg.patience:
            reason = PATIENCE_EXHAUSTED
            break
        if len(trace) >= cfg.lambda_max_rounds:
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
