"""Outer/inner optimization loop producing a GED upper bound and its mapping.

One solve runs rounds of projected Adam on the penalized relaxed objective.
Each round ends by rounding the relaxed alignment to a permutation (exact
assignment on the overlap) and scoring that mapping with the exact edit
accounting. The regularizer weight grows by a fixed step per round, the
feasibility penalty by a growth factor up to a cap. The best scored mapping
over all rounds is reported; by construction it can only overestimate the
true distance. The trace records, per round, the smallest penalized
objective value the inner loop saw, at the iterate it rounded. The kernel
takes plain arrays, all built once per solve from one pair.

The problem keeps its original node coordinates for the whole solve:
recentering it around each rounding would only permute the rows of the
iterate and of the gradient, and Adam, restarted every round and updating
each entry on its own, would then take the same steps to the same roundings.

Before the first round the solve computes the certified lower bound of
:func:`editpath.lower_bound`. When the costs make every sum exact, a round
whose best mapping costs no more than the bound has found the optimum, and
the solve stops there with ``converged_reason="certified_optimal"``. The
incumbent only changes on strict improvement and no mapping scores below the
bound, so this stop changes no estimate, mapping or edit path; only the trace
gets shorter.

A solve is strictly single-threaded and bit-for-bit deterministic.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assignment import Permutation, round_to_permutation
from .costs import CostModel, build_cost_matrix
from .editpath import EditPath, _score_block, extract_edit_path, lower_bound
from .errors import DivergenceError
from .graphs import LabeledGraph, adjacency, pad_pair
from .kernel import value_and_grad

logger = logging.getLogger(__name__)

#: converged_reason values
PATIENCE_EXHAUSTED = "patience_exhausted"
LAMBDA_ROUNDS_EXHAUSTED = "lambda_rounds_exhausted"
DIVERGENCE_DETECTED = "divergence_detected"
CERTIFIED_OPTIMAL = "certified_optimal"


#: Projected Adam (Kingma & Ba, 2015) moment decays and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: A round's inner loop stops once successive objective values differ by less.
INNER_TOL = 1e-7
#: The feasibility penalty of the first round, and its growth per round.
SIGMA_INIT = 1.0
SIGMA_GROWTH = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters; the defaults are the production setting.

    ``lambda_step=0`` keeps the regularizer weight at zero for the whole
    solve, so every round just rounds the feasibility-penalized relaxed
    solution.
    """

    mu: float = 1.0
    alpha: float = 0.001
    lambda_step: float = 0.5
    lambda_max_rounds: int = 20
    patience: int = 3
    inner_max_iters: int = 500
    sigma_cap: float = 1e3

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("sigma_cap", self.sigma_cap)):
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.lambda_step >= 0) or not math.isfinite(self.lambda_step):
            raise ValueError(f"lambda_step must be >= 0 and finite, got {self.lambda_step}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        counts = (
            ("patience", self.patience),
            ("lambda_max_rounds", self.lambda_max_rounds),
            ("inner_max_iters", self.inner_max_iters),
        )
        for name, value in counts:
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def inner_minimize(
    a: np.ndarray,
    b: np.ndarray,
    d: np.ndarray,
    p0: np.ndarray,
    lam: float,
    sigma: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, float]:
    """Run projected Adam from ``p0`` until the penalized objective stalls.

    ``a`` and ``b`` are the kappa-scaled adjacency matrices; the node-cost
    weight is ``cfg.mu``. Each step is one bias-corrected Adam update followed
    by projection onto ``[0, 1]``; the moments start at zero and are updated
    in place, one ufunc per operation of the textbook update and in its
    order, so each step has the bits of the out-of-place update. Stops when the
    change between successive objective values drops below ``INNER_TOL`` or
    after ``cfg.inner_max_iters`` steps. Returns the best iterate seen (Adam
    is not monotone, so the last iterate may be worse than the start), the
    number of steps taken and the penalized objective at that iterate. Raises
    :class:`DivergenceError` on a non-finite gradient or objective.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    mu = cfg.mu
    p = np.asarray(p0, dtype=np.float64)
    m = np.zeros(p.shape)
    v = np.zeros(p.shape)
    s, t = np.empty(p.shape), np.empty(p.shape)  # scratch
    prev, g = value_and_grad(a, b, d, p, mu, lam, sigma)
    if not math.isfinite(prev):
        raise DivergenceError("non-finite objective at the inner start")
    best_p = p
    best_value = prev
    steps = 0
    for step in range(1, cfg.inner_max_iters + 1):
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient")
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=s), out=m)
        np.multiply(np.multiply(g, 1.0 - b2, out=t), g, out=t)
        np.add(np.multiply(v, b2, out=v), t, out=v)
        # p = p - alpha * m_hat / (sqrt(v_hat) + eps), a fresh array: best_p
        # may hold the previous iterate
        np.multiply(np.divide(m, 1.0 - b1**step, out=s), cfg.alpha, out=s)
        np.add(np.sqrt(np.divide(v, 1.0 - b2**step, out=t), out=t), ADAM_EPS, out=t)
        p = p - np.divide(s, t, out=s)
        # as np.clip, apart from the sign of a -0.0, which no iterate of a solve holds
        np.minimum(np.maximum(p, 0.0, out=p), 1.0, out=p)
        current, g = value_and_grad(a, b, d, p, mu, lam, sigma)
        steps = step
        if not math.isfinite(current):
            raise DivergenceError(f"non-finite objective at inner step {step}")
        if current < best_value:
            best_value = current
            best_p = p
        if abs(current - prev) < INNER_TOL:
            break
        prev = current
    return best_p, steps, best_value


@dataclass(frozen=True)
class RoundRecord:
    """Per-round trace entry. ``objective_value`` is the penalized objective
    the round minimized, at the iterate it rounded."""

    round_index: int
    lam: float
    sigma: float
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
    permutation, and score that mapping exactly. The problem itself never
    changes during a solve. The regularizer weight increases by
    ``lambda_step`` per round and the penalty coefficient by ``SIGMA_GROWTH``
    up to ``sigma_cap``. Stops when the best score meets the certified lower
    bound, when it has not improved for ``patience`` rounds, at the round cap,
    or on a non-finite objective.
    """
    if cfg is None:
        cfg = SolverConfig()
    pair = pad_pair(g1, g2)
    n = pair.order
    a = adjacency(pair.g1, n)
    b = adjacency(pair.g2, n)
    d = build_cost_matrix(pair, cm)
    lb = lower_bound(d, a, b, cm.edge_cost_squared)

    def score(mapping: Permutation) -> float:
        perms = np.array(mapping.mapping, dtype=np.int64)[None, :]
        return float(_score_block(d, a, b, perms, cm.edge_cost_squared)[0])

    kappa = math.sqrt(cm.edge_cost_squared)
    a_scaled = kappa * a
    b_scaled = kappa * b
    p = np.eye(n, dtype=np.float64)
    lam = 0.0
    sigma = SIGMA_INIT
    best_ged = math.inf
    best_mapping = Permutation.identity(n)
    stall = 0
    trace: list[RoundRecord] = []
    reason = LAMBDA_ROUNDS_EXHAUSTED
    rounds = 0
    while True:
        rounds += 1
        try:
            p, inner_iters, value = inner_minimize(a_scaled, b_scaled, d, p, lam, sigma, cfg)
        except DivergenceError:
            reason = DIVERGENCE_DETECTED
            if not math.isfinite(best_ged):
                best_ged = score(best_mapping)
            break
        candidate_mapping = round_to_permutation(p)
        candidate = score(candidate_mapping)
        trace.append(
            RoundRecord(
                round_index=rounds,
                lam=lam,
                sigma=sigma,
                inner_iterations=inner_iters,
                candidate_ged=candidate,
                objective_value=value,
            )
        )
        logger.debug(
            "round %d: lam=%.3g sigma=%.3g inner=%d candidate=%.6g",
            rounds, lam, sigma, inner_iters, candidate,
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
        sigma = min(sigma * SIGMA_GROWTH, cfg.sigma_cap)
    path = extract_edit_path(pair, best_mapping, cm)
    return SolveReport(
        estimated_ged=best_ged,
        permutation=best_mapping,
        edit_path=path,
        trace=tuple(trace),
        converged_reason=reason,
        lower_bound=lb,
    )
