"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Every expected value is either computed by an independent
oracle in this file (exhaustive enumeration, finite differences) or is an
exact identity.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gedalign import (
    CostModel,
    Permutation,
    adjacency,
    build_cost_matrix,
    builtin_cost_model,
    estimate_ged,
    exact_ged,
    extract_edit_path,
    ged_under_mapping,
    generate_pairs,
    pad_pair,
    report_to_csv,
    round_to_permutation,
    run_bench,
    solve_assignment,
)
from gedalign.kernel import gradient, objective
from gedalign.solver import SolverConfig
from conftest import random_graph, random_symmetric, regularizer, shuffled_cases

SETTINGS = ("case1", "case2", "case3")
INT_LABELS = ("0", "1", "2", "3", "4")

#: the standard corpus: the optimality-recovery and ablation criteria share it
STANDARD_SEED = 20240501


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_pair(rng, max_n=8):
    g1 = random_graph(rng, int(rng.integers(1, max_n + 1)), INT_LABELS)
    g2 = random_graph(rng, int(rng.integers(1, max_n + 1)), INT_LABELS)
    return pad_pair(g1, g2)


def random_permutation(rng, n):
    return Permutation(tuple(int(x) for x in rng.permutation(n)))


@pytest.fixture(scope="module")
def standard_cases():
    cm = builtin_cost_model("case3")
    return generate_pairs(
        seed=STANDARD_SEED,
        count=100,
        n_range=(5, 8),
        edit_range=(0, 2),
        label_alphabet=("0", "1", "2", "3"),
        cm=cm,
        max_order=8,
    )


@pytest.fixture(scope="module")
def standard_report(standard_cases):
    return run_bench(standard_cases, builtin_cost_model("case3"), SolverConfig())


def test_objective_equals_edit_accounting_at_permutations():
    """Objective at any permutation equals the exact edit accounting."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        pair = random_pair(rng)
        perm = random_permutation(rng, pair.order)
        p = perm.matrix()
        for setting in SETTINGS:
            cm = builtin_cost_model(setting)
            kappa = np.sqrt(cm.edge_cost_squared)
            a, b = kappa * adjacency(pair.g1, pair.order), kappa * adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            value = objective(a, b, d, p, 0.0)
            gap = abs(value - ged_under_mapping(pair, perm, cm))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    announce(
        "objective-accounting-identity",
        worst <= 1e-9 and elapsed < 10.0,
        f"600 instances, worst gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_alignment_norm_counts_edge_edits():
    """With free node edits and squared edge cost 2, the raw alignment
    objective counts edge edits exactly."""
    rng = np.random.default_rng(202)
    cm = CostModel(edge_cost_squared=2.0, insert_default=0.0, delete_default=0.0)
    start = time.perf_counter()
    exact_matches = 0
    for _ in range(200):
        pair = random_pair(rng)
        perm = random_permutation(rng, pair.order)
        p = perm.matrix()
        a = adjacency(pair.g1, pair.order)
        b = adjacency(pair.g2, pair.order)
        residual = a @ p - p @ b
        frobenius_sq = float(np.sum(residual * residual))
        path = extract_edit_path(pair, perm, cm)
        edge_cost = sum(op.cost for op in path.ops if op.kind in ("edge_insert", "edge_delete"))
        if frobenius_sq == edge_cost == path.total_cost:
            exact_matches += 1
    elapsed = time.perf_counter() - start
    announce(
        "edge-count-identity",
        exact_matches == 200 and elapsed < 5.0,
        f"{exact_matches}/200 exact, {elapsed:.1f}s",
    )


def test_upper_bound_and_self_consistency():
    """Estimates never undercut the oracle and always equal the cost of the
    returned mapping, bit for bit."""
    start = time.perf_counter()
    checked = 0
    for offset, setting in enumerate(SETTINGS):
        cm = builtin_cost_model(setting)
        cases = generate_pairs(
            seed=1000 + offset,
            count=100,
            n_range=(3, 8),
            edit_range=(0, 4),
            label_alphabet=INT_LABELS,
            cm=cm,
            max_order=8,
        )
        for case in cases:
            report = estimate_ged(case.g1, case.g2, cm)
            assert case.true_ged is not None
            assert report.estimated_ged >= case.true_ged - 1e-9, case.case_id
            pair = pad_pair(case.g1, case.g2)
            assert report.estimated_ged == ged_under_mapping(pair, report.permutation, cm)
            checked += 1
    elapsed = time.perf_counter() - start
    announce(
        "upper-bound+self-consistency",
        checked == 300 and elapsed < 300.0,
        f"{checked} pairs across {len(SETTINGS)} settings, {elapsed:.0f}s",
    )


def test_optimality_recovery(standard_report):
    """On the standard corpus the solver must find the true optimum for at
    least 70% of pairs with mean error at most 0.5."""
    report = standard_report
    ok = report.failures == 0 and report.si >= 0.70 and report.mae <= 0.5
    announce(
        "optimality-recovery",
        ok,
        f"SI {report.si:.2f} (>= 0.70), MAE {report.mae:.3f} (<= 0.5), failures {report.failures}",
    )


def test_optimality_recovery_under_node_shuffle(standard_cases):
    """The same bar with each second graph's nodes renamed at random, so that
    the identity start is no longer the generator's alignment."""
    cases = shuffled_cases(standard_cases)
    report = run_bench(cases, builtin_cost_model("case3"), SolverConfig())
    ok = report.failures == 0 and report.si >= 0.70 and report.mae <= 0.5
    announce(
        "optimality-recovery-shuffled",
        ok,
        f"SI {report.si:.2f} (>= 0.70), MAE {report.mae:.3f} (<= 0.5), failures {report.failures}",
    )


@pytest.mark.parametrize("seed, wrong_in_order, wrong_shuffled", [(20240501, 0, 1), (31337, 0, 1)])
def test_corpus_n8_wrong_counts(seed, wrong_in_order, wrong_shuffled):
    """Pins how many of the benchmark's 200 corpus_n8 estimates exceed the
    oracle truth, in generator order and shuffled. Swap descent took the
    shuffled counts from 8 and 8 to 1 and 1, and the count in generator order
    at 20240501 from 1 to 0."""
    cm = builtin_cost_model("case3")
    cases = generate_pairs(
        seed=seed,
        count=200,
        n_range=(5, 8),
        edit_range=(0, 2),
        label_alphabet=("0", "1", "2", "3"),
        cm=cm,
        max_order=8,
    )
    wrong = [
        sum(estimate_ged(c.g1, c.g2, cm).estimated_ged > c.true_ged for c in corpus)
        for corpus in (cases, shuffled_cases(cases))
    ]
    announce(
        f"corpus_n8-wrong-counts-{seed}",
        wrong == [wrong_in_order, wrong_shuffled],
        f"{wrong[0]} wrong in generator order (== {wrong_in_order}), "
        f"{wrong[1]} shuffled (== {wrong_shuffled}), of 200",
    )

def test_gradient_correctness():
    """Analytic gradient against central finite differences."""
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 8))
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        b = (rng.random((n, n)) < 0.4).astype(float)
        b = np.triu(b, 1)
        b = b + b.T
        kappa = np.sqrt(float(rng.uniform(0.5, 4.0)))
        a, b = kappa * a, kappa * b
        d = rng.random((n, n)) * 3.0
        p = rng.random((n, n))
        mu, lam = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 2.0))
        d = mu * d
        analytic = gradient(a, b, d, p, lam)
        for i in range(n):
            for j in range(n):
                plus = p.copy()
                plus[i, j] += h
                minus = p.copy()
                minus[i, j] -= h
                fd = (
                    objective(a, b, d, plus, lam)
                    - objective(a, b, d, minus, lam)
                ) / (2.0 * h)
                rel = abs(analytic[i, j] - fd) / max(1.0, abs(analytic[i, j]), abs(fd))
                worst = max(worst, rel)
    announce("gradient-correctness", worst <= 1e-5, f"max relative error {worst:.3e}")


def test_rounding_residual_characterization():
    """Roundings are exact permutations; non-permutation doubly stochastic
    matrices have strictly positive residual."""
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        h = round_to_permutation(rng.random((n, n))).matrix()
        assert np.array_equal(h.sum(axis=0), np.ones(n))
        assert np.array_equal(h.sum(axis=1), np.ones(n))
        assert regularizer(h) == 0.0
    positive = 0
    fixtures = [np.full((n, n), 1.0 / n) for n in range(2, 7)]
    while len(fixtures) < 55:
        n = int(rng.integers(2, 7))
        p1 = random_permutation(rng, n).matrix()
        p2 = random_permutation(rng, n).matrix()
        if np.array_equal(p1, p2):
            continue
        w = float(rng.uniform(0.15, 0.85))
        fixtures.append(w * p1 + (1.0 - w) * p2)
    for fixture in fixtures:
        if regularizer(fixture) > 0.0:
            positive += 1
    announce(
        "rounding-residual",
        positive == len(fixtures),
        f"100 roundings exact, {positive}/{len(fixtures)} fixtures positive",
    )


def test_relabel_equivalence_suite():
    """Relabeling the first graph leaves the objective value unchanged and
    permutes the rows of its gradient, so the solve needs no recentering."""
    rng = np.random.default_rng(505)
    worst = 0.0
    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a, b = random_symmetric(rng, n), random_symmetric(rng, n)
        d = rng.random((n, n))
        p = rng.random((n, n))
        h = random_permutation(rng, n)
        mu, lam = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 1.5))
        d = mu * d
        inv = np.array(h.inverse().mapping)
        value, grad = objective(a, b, d, p, lam), gradient(a, b, d, p, lam)
        relabeled = (a[np.ix_(inv, inv)], b, d[inv, :], p[inv, :], lam)
        value2, grad2 = objective(*relabeled), gradient(*relabeled)
        worst = max(worst, abs(value - value2))
        worst_grad = max(worst_grad, float(np.max(np.abs(grad2 - grad[inv, :]))))
    announce(
        "relabel-equivalence",
        worst <= 1e-12 and worst_grad <= 1e-12,
        f"worst objective gap {worst:.3e}, worst gradient gap {worst_grad:.3e}",
    )


def test_assignment_optimality():
    """Assignment totals match exhaustive enumeration exactly."""
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 8))
        cost = rng.random((n, n))
        perm = solve_assignment(cost)
        total = sum(cost[i, perm.mapping[i]] for i in range(n))
        best = min(
            sum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        if total != best:
            mismatches += 1
    announce("assignment-optimality", mismatches == 0, f"200 instances, {mismatches} mismatches")


def _strip_wall_ms(csv_text: str) -> str:
    # wall-clock timing is the one nondeterministic column by design
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.strip().split("\n"))


def test_determinism():
    """Same seed, same results: repeated runs and worker counts agree on
    every result byte; only wall-clock timings may differ."""
    cm = builtin_cost_model("case3")
    cases = generate_pairs(
        seed=777,
        count=30,
        n_range=(4, 7),
        edit_range=(0, 3),
        label_alphabet=("0", "1", "2"),
        cm=cm,
        max_order=8,
    )
    cases_again = generate_pairs(
        seed=777,
        count=30,
        n_range=(4, 7),
        edit_range=(0, 3),
        label_alphabet=("0", "1", "2"),
        cm=cm,
        max_order=8,
    )
    first = report_to_csv(run_bench(cases, cm, SolverConfig()))
    second = report_to_csv(run_bench(cases_again, cm, SolverConfig()))
    parallel = report_to_csv(run_bench(cases, cm, SolverConfig(), workers=8))
    same_generation = cases == cases_again
    same_runs = _strip_wall_ms(first) == _strip_wall_ms(second)
    same_workers = _strip_wall_ms(first) == _strip_wall_ms(parallel)
    announce(
        "determinism",
        same_generation and same_runs and same_workers,
        f"generation {same_generation}, rerun {same_runs}, workers-1-vs-8 {same_workers}",
    )


_BLAS_PROBE = """
import json, sys
import numpy as np
from conftest import random_graph
from gedalign import SolverConfig, builtin_cost_model, estimate_ged, generate_pairs

cm = builtin_cost_model("case3")
labels = ("0", "1", "2", "3")
cases = generate_pairs(seed=%d, count=20, n_range=(5, 8), edit_range=(0, 2),
                       label_alphabet=labels, cm=cm, max_order=8, oracle_budget=0)
rng = np.random.default_rng(150)
big = [random_graph(rng, 150, labels, edge_prob=0.1) for _ in range(2)]
out = []
for g1, g2 in [(c.g1, c.g2) for c in cases] + [big]:
    if g1 is big[0]:
        SolverConfig.lambda_max_rounds = 1  # one round at n=150 keeps the test fast
    r = estimate_ged(g1, g2, cm)
    rounds = [(rec.candidate_ged, rec.inner_iterations) for rec in r.trace]
    out.append([r.estimated_ged, r.permutation.mapping, r.edit_path.to_json(),
                r.converged_reason, r.lower_bound, rounds])
json.dump(out, sys.stdout)
""" % STANDARD_SEED


def test_determinism_under_blas_threads():
    """One and two BLAS threads give the same estimates, mappings, edit paths,
    stop reasons, bounds and per-round candidates and step counts. Objective
    values are left out: their last bits may differ with the thread count."""
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    results = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = path
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        results[threads] = json.loads(run.stdout)
    same = results["1"] == results["2"]
    announce(
        "determinism-blas-threads",
        same and len(results["1"]) == 21,
        f"{len(results['1'])} solves at n 5-8 and 150, 1 vs 2 threads identical: {same}",
    )


def test_ablation_direction(standard_cases, standard_report):
    """Disabling the regularizer must not improve MAE."""
    cm = builtin_cost_model("case3")
    no_reg = run_bench(standard_cases, cm, SolverConfig(lambda_step=0.0))
    mae = standard_report.mae
    announce(
        "ablation-direction",
        mae <= no_reg.mae,
        f"MAE default {mae:.3f} <= no-regularizer {no_reg.mae:.3f}",
    )


def test_scalability_smoke():
    """A 50-node pair solves end to end in under a minute, single-threaded."""
    rng = np.random.default_rng(909)
    g1 = random_graph(rng, 50, ("0", "1", "2", "3"), edge_prob=0.1)
    g2 = random_graph(rng, 50, ("0", "1", "2", "3"), edge_prob=0.1)
    cm = builtin_cost_model("case3")
    start = time.perf_counter()
    report = estimate_ged(g1, g2, cm)
    elapsed = time.perf_counter() - start
    pair = pad_pair(g1, g2)
    consistent = report.estimated_ged == ged_under_mapping(pair, report.permutation, cm)
    announce(
        "scalability-smoke",
        elapsed < 60.0 and consistent,
        f"n=50 solved in {elapsed:.1f}s, estimate {report.estimated_ged}",
    )
