"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

An operation goes through the package's public functions, looked up on the
``gedalign`` package at call time so that a traced run sees the call. The
checks run outside the timed call and use names bound here at import, so they
are never traced.

Every check that fails raises :class:`CheckFailed`. A passing check returns an
:class:`Outcome`: the operation's value, a digest of everything it returned
except timings, and its exact work counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import gedalign
from gedalign import SolverConfig, builtin_cost_model, ged_under_mapping, pad_pair

#: An estimate may undercut the oracle truth by at most this (it is an upper bound).
UPPER_BOUND_TOL = 1e-9

#: Distinct inputs per workload. A run cycles through them and always finishes
#: one full pass, so its counts and digest cover every input. With seed
#: 20240501 the first 100 corpus pairs are the acceptance standard corpus.
CORPUS_PAIRS = 200
EXACT_PAIRS = 12
LAP_MATRICES = 12
LARGE_PAIRS = 3

_INNER_CAP = SolverConfig().inner_max_iters


class CheckFailed(Exception):
    """An operation returned a wrong result."""


@dataclass(frozen=True)
class Item:
    """One distinct input. ``order`` is the padded problem order n."""

    key: int
    order: int
    data: Any


@dataclass
class Outcome:
    value: float
    digest: str
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """``setup(seed) -> (items, ctx)``; ``call(item, ctx)`` is the timed
    operation; ``check(item, ctx, result) -> Outcome`` raises on a wrong result."""

    setup: Callable[[int], tuple[list[Item], Any]]
    call: Callable[[Item, Any], Any]
    check: Callable[[Item, Any, Any], Outcome]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- estimate workloads (corpus_n8, large_n100) -------------------------------


def _estimate(item: Item, cm) -> Any:
    case = item.data
    return gedalign.estimate_ged(case.g1, case.g2, cm)


def _check_estimate(item: Item, cm, report) -> Outcome:
    case = item.data
    estimate = report.estimated_ged
    replay = ged_under_mapping(pad_pair(case.g1, case.g2), report.permutation, cm)
    if not (estimate == report.edit_path.total_cost == replay):
        raise CheckFailed(
            f"{case.case_id}: estimate {estimate!r}, path total "
            f"{report.edit_path.total_cost!r}, replayed mapping {replay!r} differ"
        )
    if case.true_ged is not None and estimate < case.true_ged - UPPER_BOUND_TOL:
        raise CheckFailed(
            f"{case.case_id}: estimate {estimate!r} is below the truth {case.true_ged!r}"
        )
    rounds = report.trace
    best = math.inf
    improving = 0
    for record in rounds:
        if record.candidate_ged < best:
            best = record.candidate_ged
            improving += 1
    counts = {
        "rounds": len(rounds),
        "inner_steps": sum(r.inner_iterations for r in rounds),
        "capped_rounds": sum(r.inner_iterations >= _INNER_CAP for r in rounds),
        "improving_rounds": improving,
        "lap_calls": len(rounds),
        f"converged_reason.{report.converged_reason}": 1,
    }
    digest = _sha(
        f"{estimate!r}|{report.permutation.mapping}|{len(report.edit_path.ops)}"
        f"|{[(r.candidate_ged, r.inner_iterations) for r in rounds]}"
    )
    return Outcome(value=estimate, digest=digest, counts=counts)


def _corpus_setup(seed: int):
    cm = builtin_cost_model("case3")
    cases = gedalign.generate_pairs(
        seed=seed,
        count=CORPUS_PAIRS,
        n_range=(5, 8),
        edit_range=(0, 2),
        label_alphabet=("0", "1", "2", "3"),
        cm=cm,
        max_order=8,
    )
    items = [Item(i, max(c.g1.order, c.g2.order), c) for i, c in enumerate(cases)]
    return items, cm


def _large_setup(seed: int):
    cm = builtin_cost_model("case1")
    labels = tuple(str(i) for i in range(10))
    seed_a, seed_b = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    common = dict(edit_range=(0, 0), label_alphabet=labels, cm=cm, edge_prob=0.1)
    firsts = gedalign.generate_pairs(seed=seed_a, count=LARGE_PAIRS, n_range=(100, 100), **common)
    seconds = gedalign.generate_pairs(seed=seed_b, count=LARGE_PAIRS, n_range=(96, 100), **common)
    items = [
        Item(i, 100, gedalign.PairCase(case_id=f"large-{i}", g1=a.g1, g2=b.g1))
        for i, (a, b) in enumerate(zip(firsts, seconds))
    ]
    return items, cm


# -- exact_n9 ------------------------------------------------------------------


def _exact_setup(seed: int):
    cm = builtin_cost_model("case1")
    cases = gedalign.generate_pairs(
        seed=seed,
        count=EXACT_PAIRS,
        n_range=(9, 9),
        edit_range=(1, 3),
        label_alphabet=("0", "1", "2", "3"),
        cm=cm,
        max_order=9,
        oracle_budget=0,  # the oracle is the operation, not set-up
    )
    return [Item(i, 9, c) for i, c in enumerate(cases)], cm


def _exact(item: Item, cm) -> Any:
    case = item.data
    return gedalign.exact_ged(case.g1, case.g2, cm)


def _check_exact(item: Item, cm, result) -> Outcome:
    case = item.data
    replay = ged_under_mapping(pad_pair(case.g1, case.g2), result.optimal_mapping, cm)
    if result.ged != replay:
        raise CheckFailed(f"{case.case_id}: oracle {result.ged!r} != its mapping's cost {replay!r}")
    if result.ged > case.applied_cost + UPPER_BOUND_TOL:
        raise CheckFailed(
            f"{case.case_id}: oracle {result.ged!r} exceeds the generator's "
            f"alignment cost {case.applied_cost!r}"
        )
    digest = _sha(f"{result.ged!r}|{result.optimal_mapping.mapping}")
    return Outcome(
        value=result.ged,
        digest=digest,
        counts={"oracle_calls": 1, "perms_scored": math.factorial(item.order)},
    )


# -- lap_ties ------------------------------------------------------------------


def lap_order(k: int) -> int:
    """Order of the k-th tie matrix: a low-discrepancy walk over 300..400, so
    every prefix of the sequence spreads evenly over the range whatever the
    seed."""
    frac = (0.5 + k * 0.6180339887498949) % 1.0
    return 300 + int(round(100 * frac))


def _lap_setup(seed: int):
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(seed)
    items = []
    for k in range(LAP_MATRICES):
        n = lap_order(k)
        cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        rows, cols = linear_sum_assignment(cost)
        items.append(Item(k, n, (cost, float(cost[rows, cols].sum()))))
    return items, None


def _lap(item: Item, _ctx) -> Any:
    cost, _ = item.data
    return gedalign.solve_assignment(cost)


def _check_lap(item: Item, _ctx, perm) -> Outcome:
    cost, optimum = item.data
    n = item.order
    mapping = perm.mapping
    if sorted(mapping) != list(range(n)):
        raise CheckFailed(f"matrix {item.key}: not a permutation of 0..{n - 1}")
    total = float(cost[np.arange(n), np.array(mapping)].sum())
    if total != optimum:
        raise CheckFailed(f"matrix {item.key}: total {total!r} != scipy optimum {optimum!r}")
    return Outcome(value=total, digest=_sha(repr(mapping)), counts={"lap_calls": 1})


#: Why each workload exists is in BENCHMARK.json (gated) and metric_map.json.
WORKLOADS = {
    "corpus_n8": Workload(_corpus_setup, _estimate, _check_estimate),
    "large_n100": Workload(_large_setup, _estimate, _check_estimate),
    "exact_n9": Workload(_exact_setup, _exact, _check_exact),
    "lap_ties": Workload(_lap_setup, _lap, _check_lap),
}
