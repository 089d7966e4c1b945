"""Projected Adam steps, the inner loop, the full solve, and its postconditions."""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import gedalign.editpath as editpath_module
import gedalign.solver as solver_module
from gedalign import (
    CostModel,
    DivergenceError,
    Permutation,
    SolverConfig,
    adjacency,
    builtin_cost_model,
    build_cost_matrix,
    estimate_ged,
    exact_ged,
    ged_under_mapping,
    generate_pairs,
    pad_pair,
)
from gedalign.kernel import value_and_grad
from gedalign.solver import (
    CERTIFIED_OPTIMAL,
    DIVERGENCE_DETECTED,
    INNER_TOL,
    LAMBDA_ROUNDS_EXHAUSTED,
    PATIENCE_EXHAUSTED,
    inner_minimize,
)
from conftest import graph, random_graph

TRIANGLE = graph("xxx", [(0, 1), (1, 2), (0, 2)])
PATH3 = graph("xxx", [(0, 1), (1, 2)])
# equal labels and edge counts; the sorted degrees (1,1,2,2 vs 1,1,1,3)
# certify the true distance 2 under case3
PATH4 = graph("aaaa", [(0, 1), (1, 2), (2, 3)])
STAR4 = graph("aaaa", [(0, 1), (0, 2), (0, 3)])
# both 2-regular with equal labels and 6 edges: lower bound 0 under case3,
# true distance 4
CYCLE6 = graph("aaaaaa", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
TWO_TRIANGLES = graph("aaaaaa", [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
CFG = SolverConfig()


def _constant_gradient(monkeypatch, grad):
    """Make the inner loop see ``grad`` at every iterate and a falling
    objective, so that it takes exactly ``inner_max_iters`` Adam steps."""
    values = itertools.count(0.0, -1.0)
    monkeypatch.setattr(
        solver_module, "value_and_grad", lambda *args: (next(values), grad)
    )


def _adam_steps(p0, steps):
    cfg = replace(CFG, alpha=0.01, inner_max_iters=steps)
    return inner_minimize(None, None, None, p0, 0.0, 0.0, cfg)[0]


class TestAdamStep:
    def test_zero_gradient_leaves_interior_point_unchanged(self, monkeypatch):
        p = np.full((3, 3), 0.4)
        _constant_gradient(monkeypatch, np.zeros_like(p))
        assert np.array_equal(_adam_steps(p, 1), p)

    def test_constant_positive_gradient_decreases_entry(self, monkeypatch):
        p = np.full((2, 2), 0.5)
        grad = np.zeros((2, 2))
        grad[0, 1] = 1.0
        _constant_gradient(monkeypatch, grad)
        values = [_adam_steps(p, steps) for steps in range(1, 6)]
        entries = [p[0, 1]] + [q[0, 1] for q in values]
        assert all(b < a for a, b in zip(entries, entries[1:]))
        assert values[-1][0, 0] == 0.5  # untouched entry stays put

    def test_clips_to_unit_interval(self, monkeypatch):
        _constant_gradient(monkeypatch, np.array([[5.0]]))
        p = _adam_steps(np.array([[0.001]]), 10)
        assert p[0, 0] == 0.0

    def test_non_finite_gradient_signals_divergence(self, monkeypatch):
        _constant_gradient(monkeypatch, np.full((2, 2), np.nan))
        with pytest.raises(DivergenceError, match="gradient"):
            _adam_steps(np.zeros((2, 2)), 1)


class TestInnerMinimize:
    def test_returns_after_one_iteration_at_stationary_point(self):
        # equal matrices, zero costs: the identity is a global optimum
        a = adjacency(TRIANGLE, 3)
        d = np.zeros((3, 3))
        p0 = np.eye(3)
        p, iters, _ = inner_minimize(a, a, d, p0, 0.0, 1.0, CFG)
        assert iters == 1
        assert np.array_equal(p, p0)

    def test_identical_graphs_keep_identity(self):
        pair = pad_pair(TRIANGLE, TRIANGLE)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        d = build_cost_matrix(pair, builtin_cost_model("case3"))
        p, _, _ = inner_minimize(a, b, d, np.eye(3), 0.0, 1.0, CFG)
        assert value_and_grad(a, b, d, p, 1.0, 0.0, 1.0)[0] == 0.0

    def test_descends_from_identity_toward_spread_solution(self):
        # one edge against two isolated nodes: spreading mass lowers the
        # Frobenius term, so the inner loop must beat the identity value
        g1 = graph("aa", [(0, 1)])
        g2 = graph("aa")
        pair = pad_pair(g1, g2)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        d = build_cost_matrix(pair, builtin_cost_model("case3"))
        start = np.eye(2)
        value_at_start = value_and_grad(a, b, d, start, 1.0, 0.0, 100.0)[0]
        p, _, _ = inner_minimize(a, b, d, start, 0.0, 100.0, CFG)
        assert value_and_grad(a, b, d, p, 1.0, 0.0, 100.0)[0] < value_at_start

    def test_never_returns_worse_than_start(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g1 = random_graph(rng, n, ("a", "b"))
            g2 = random_graph(rng, n, ("a", "b"))
            pair = pad_pair(g1, g2)
            cm = builtin_cost_model("case1")
            kappa = np.sqrt(cm.edge_cost_squared)
            a, b = kappa * adjacency(pair.g1, pair.order), kappa * adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            p0 = rng.random((pair.order, pair.order))
            p, _, _ = inner_minimize(a, b, d, p0, 1.0, 10.0, CFG)
            assert (
                value_and_grad(a, b, d, p, 1.0, 1.0, 10.0)[0]
                <= value_and_grad(a, b, d, p0, 1.0, 1.0, 10.0)[0] + INNER_TOL
            )

    def test_returned_value_is_the_objective_at_the_returned_iterate(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            pair = pad_pair(random_graph(rng, n, ("a", "b")), random_graph(rng, n, ("a", "b")))
            cm = builtin_cost_model("case1")
            kappa = np.sqrt(cm.edge_cost_squared)
            a, b = kappa * adjacency(pair.g1, pair.order), kappa * adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            lam, sigma = float(rng.uniform(0.0, 2.0)), float(rng.uniform(1.0, 100.0))
            p, _, value = inner_minimize(a, b, d, np.eye(pair.order), lam, sigma, CFG)
            assert value == value_and_grad(a, b, d, p, CFG.mu, lam, sigma)[0]


def _reference_value_and_grad(a, b, d, p, mu, lam, sigma):
    """The kernel as plain ``np.sum`` expressions."""
    r = a @ p - p @ b
    value = 0.5 * float(np.sum(r * r))
    value += mu * float(np.sum(p * d))
    value += lam * float(np.sum(p * (1.0 - p)))
    g = a @ r - r @ b
    if mu != 0.0:
        g += mu * d
    if lam != 0.0:
        g += lam * (1.0 - 2.0 * p)
    if sigma != 0.0:
        row = p.sum(axis=1) - 1.0
        col = p.sum(axis=0) - 1.0
        value += sigma * float(np.sum(row * row) + np.sum(col * col))
        g += (2.0 * sigma) * (row[:, None] + col[None, :])
    return value, g


def _reference_inner_minimize(a, b, d, p0, lam, sigma, cfg):
    """Projected Adam written out of place, one fresh array per expression."""
    b1, b2 = solver_module.ADAM_BETA1, solver_module.ADAM_BETA2
    p = np.asarray(p0, dtype=np.float64)
    m = np.zeros(p.shape)
    v = np.zeros(p.shape)
    prev, g = _reference_value_and_grad(a, b, d, p, cfg.mu, lam, sigma)
    best_p, best_value, steps = p, prev, 0
    for step in range(1, cfg.inner_max_iters + 1):
        assert np.all(np.isfinite(g))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**step)
        v_hat = v / (1.0 - b2**step)
        p = p - cfg.alpha * m_hat / (np.sqrt(v_hat) + solver_module.ADAM_EPS)
        np.clip(p, 0.0, 1.0, out=p)
        current, g = _reference_value_and_grad(a, b, d, p, cfg.mu, lam, sigma)
        steps = step
        if current < best_value:
            best_value, best_p = current, p
        if abs(current - prev) < INNER_TOL:
            break
        prev = current
    return best_p, steps, best_value


class TestStepBitIdentity:
    def test_inner_minimize_matches_the_out_of_place_update(self):
        # same iterate bits, step count and value bits as the textbook update,
        # on rounds that stop at the cap and rounds that converge
        rng = np.random.default_rng(20240501)
        settings = ("case1", "case2", "case3")
        params = ((0.0, 1.0), (0.5, 10.0), (1.0, 100.0), (2.0, 1e3))
        capped = converged = 0
        for trial in range(30):
            cm = builtin_cost_model(settings[trial % 3])
            n = 2 + trial % 7
            g1 = random_graph(rng, n, ("0", "1", "2"))
            g2 = random_graph(rng, int(rng.integers(max(1, n - 2), n + 1)), ("0", "1", "2"))
            pair = pad_pair(g1, g2)
            kappa = np.sqrt(cm.edge_cost_squared)
            a = kappa * adjacency(pair.g1, pair.order)
            b = kappa * adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            lam, sigma = params[trial % 4]
            p0 = rng.random((pair.order, pair.order)) if trial % 4 == 1 else np.eye(pair.order)
            cfg = replace(CFG, inner_max_iters=(60, 500)[trial % 5 != 0])
            p, steps, value = inner_minimize(a, b, d, p0, lam, sigma, cfg)
            ref_p, ref_steps, ref_value = _reference_inner_minimize(a, b, d, p0, lam, sigma, cfg)
            assert p.tobytes() == ref_p.tobytes()
            assert steps == ref_steps
            assert value.hex() == ref_value.hex()
            if steps == cfg.inner_max_iters:
                capped += 1
            else:
                converged += 1
        assert capped >= 5 and converged >= 5


class TestSolvePair:
    def test_identical_graphs_estimate_zero(self):
        for setting in ("case1", "case2", "case3"):
            g = graph(["1", "2", "3"], [(0, 1), (1, 2)])
            report = estimate_ged(g, g, builtin_cost_model(setting))
            assert report.estimated_ged == 0.0
            assert report.permutation == Permutation.identity(3)

    def test_accepts_padded_pair_directly(self):
        pair = pad_pair(graph("ab", [(0, 1)]), graph("abc", [(0, 1), (1, 2)]))
        report = estimate_ged(pair.g1, pair.g2, builtin_cost_model("case3"))
        assert report.estimated_ged == ged_under_mapping(
            pair, report.permutation, builtin_cost_model("case3")
        )

    def test_triangle_vs_path_reaches_oracle_value(self):
        cm = builtin_cost_model("case3")
        report = estimate_ged(TRIANGLE, PATH3, cm)
        assert report.estimated_ged == exact_ged(TRIANGLE, PATH3, cm).ged == 1.0

    def test_single_edge_difference_with_free_node_edits(self):
        cm = CostModel(edge_cost_squared=2.0, insert_default=0.0, delete_default=0.0)
        g1 = graph("aaaa", [(0, 1), (2, 3)])
        g2 = graph("aaaa", [(0, 1)])
        report = estimate_ged(g1, g2, cm)
        assert report.estimated_ged == 2.0

    def test_trace_and_best_tracking(self):
        # the bound (1) equals the truth, so the first optimal round ends it
        report = estimate_ged(TRIANGLE, PATH3, builtin_cost_model("case3"))
        assert report.estimated_ged == report.lower_bound == 1.0
        assert report.converged_reason == CERTIFIED_OPTIMAL
        # the bound (0) is below the truth (4), so only patience ends it
        report = estimate_ged(CYCLE6, TWO_TRIANGLES, builtin_cost_model("case3"))
        assert report.lower_bound == 0.0
        assert report.estimated_ged == min(rec.candidate_ged for rec in report.trace) == 4.0
        assert report.trace[0].lam == 0.0
        assert [rec.round_index for rec in report.trace] == list(
            range(1, len(report.trace) + 1)
        )
        assert report.converged_reason == PATIENCE_EXHAUSTED

    def test_self_consistency_and_upper_bound(self, rng):
        for trial in range(12):
            cm = builtin_cost_model(("case1", "case2", "case3")[trial % 3])
            g1 = random_graph(rng, int(rng.integers(1, 7)), ("0", "1", "2"))
            g2 = random_graph(rng, int(rng.integers(1, 7)), ("0", "1", "2"))
            report = estimate_ged(g1, g2, cm)
            pair = pad_pair(g1, g2)
            assert report.estimated_ged == ged_under_mapping(pair, report.permutation, cm)
            assert report.edit_path.total_cost == report.estimated_ged
            truth = exact_ged(g1, g2, cm).ged
            assert report.lower_bound <= truth <= report.estimated_ged

    def test_bit_for_bit_determinism(self, rng):
        g1 = random_graph(rng, 6, ("1", "2", "3"))
        g2 = random_graph(rng, 6, ("1", "2", "3"))
        cm = builtin_cost_model("case2")
        first = estimate_ged(g1, g2, cm)
        second = estimate_ged(g1, g2, cm)
        assert first == second

    def test_lambda_round_cap(self):
        cfg = replace(CFG, lambda_max_rounds=2, patience=5)
        report = estimate_ged(CYCLE6, TWO_TRIANGLES, builtin_cost_model("case3"), cfg)
        assert len(report.trace) == 2
        assert report.converged_reason == LAMBDA_ROUNDS_EXHAUSTED

    def test_empty_pair(self):
        report = estimate_ged(graph(""), graph(""), builtin_cost_model("case3"))
        assert report.estimated_ged == 0.0
        assert report.permutation.mapping == ()
        assert report.edit_path.ops == ()

    def test_whole_graph_insertion(self):
        # one side is entirely padding; every mapping realizes the same cost
        cm = builtin_cost_model("case3")
        report = estimate_ged(graph(""), TRIANGLE, cm)
        assert report.estimated_ged == exact_ged(graph(""), TRIANGLE, cm).ged == 6.0

    def test_asymmetric_insert_delete_costs(self):
        cm = builtin_cost_model("case1")
        assert estimate_ged(graph(""), graph("a"), cm).estimated_ged == 3.0
        assert estimate_ged(graph("a"), graph(""), cm).estimated_ged == 1.0

    @pytest.mark.parametrize("setting", ["case1", "case3"])
    def test_epsilon_label_estimates_like_any_other(self, rng, setting):
        # "ε" once named the padding nodes; now it is a label like "z"
        cm = builtin_cost_model(setting)
        for n1, n2 in [(3, 5), (6, 2), (4, 7)]:
            g1 = random_graph(rng, n1, ("ε", "a"))
            g2 = random_graph(rng, n2, ("ε", "a", "b"))
            relabel = lambda g: graph(["z" if lab == "ε" else lab for lab in g.labels], g.edges)
            report = estimate_ged(g1, g2, cm)
            twin = estimate_ged(relabel(g1), relabel(g2), cm)
            assert replace(report, edit_path=None) == replace(twin, edit_path=None)
            path = json.dumps(report.edit_path.to_json(), ensure_ascii=False)
            assert path.replace("ε", "z") == json.dumps(twin.edit_path.to_json())

    def test_divergence_is_reported(self, monkeypatch):
        real_value_and_grad = solver_module.value_and_grad
        calls = {"n": 0}

        def exploding(*args):
            calls["n"] += 1
            value, g = real_value_and_grad(*args)
            if calls["n"] > 3:
                g = g + np.nan
            return value, g

        monkeypatch.setattr(solver_module, "value_and_grad", exploding)
        report = estimate_ged(TRIANGLE, PATH3, builtin_cost_model("case3"))
        assert report.converged_reason == DIVERGENCE_DETECTED
        # the fallback mapping still explains the reported value
        pair = pad_pair(TRIANGLE, PATH3)
        assert report.estimated_ged == ged_under_mapping(
            pair, report.permutation, builtin_cost_model("case3")
        )

    def test_round_objective_is_the_minimized_value(self, monkeypatch, rng):
        # every kernel call of a solve goes through the inner loop: one at
        # each round's start and one per step, and a round reports the
        # smallest penalized value it saw
        real_value_and_grad = solver_module.value_and_grad
        values = []

        def recording(*args):
            value, g = real_value_and_grad(*args)
            values.append(value)
            return value, g

        monkeypatch.setattr(solver_module, "value_and_grad", recording)
        pairs = [(PATH4, STAR4, builtin_cost_model("case3"))] + [
            (
                random_graph(rng, int(rng.integers(3, 7)), ("0", "1")),
                random_graph(rng, int(rng.integers(3, 7)), ("0", "1")),
                builtin_cost_model(setting),
            )
            for setting in ("case1", "case2", "case3")
        ]
        for g1, g2, cm in pairs:
            values.clear()
            report = estimate_ged(g1, g2, cm)
            counts = [1 + rec.inner_iterations for rec in report.trace]
            assert len(values) == sum(counts)
            start = 0
            for rec, count in zip(report.trace, counts):
                assert rec.objective_value == min(values[start : start + count])
                start += count


class TestCertifiedStop:
    def test_stop_changes_no_result(self, monkeypatch):
        # the certified stop against solves with no bound: same estimates,
        # mappings and edit paths, and every certified estimate is the truth
        pairs = []
        for setting in ("case1", "case3"):
            cm = builtin_cost_model(setting)
            cases = generate_pairs(
                seed=11,
                count=15,
                n_range=(4, 8),
                edit_range=(0, 3),
                label_alphabet=("0", "1", "2", "3"),
                cm=cm,
                max_order=8,
                oracle_budget=0,
            )
            pairs += [(case.g1, case.g2, cm) for case in cases]

        def run():
            return [estimate_ged(g1, g2, cm) for g1, g2, cm in pairs]

        stopped = run()
        monkeypatch.setattr(solver_module, "lower_bound", lambda *args: None)
        full = run()
        assert any(r.converged_reason == CERTIFIED_OPTIMAL for r in stopped)
        for (g1, g2, cm), r1, r2 in zip(pairs, stopped, full):
            assert r1.estimated_ged == r2.estimated_ged
            assert r1.permutation == r2.permutation
            assert r1.edit_path == r2.edit_path
            if r1.converged_reason == CERTIFIED_OPTIMAL:
                assert r1.estimated_ged == r1.lower_bound == exact_ged(g1, g2, cm).ged

    @pytest.mark.parametrize(
        "cm",
        [
            # fractional costs: sums are not exact
            CostModel(
                edge_cost_squared=0.3,
                insert_default=0.1,
                delete_default=0.7,
                substitute_default=0.2,
            ),
            # integral costs whose sums pass 2**53
            CostModel(edge_cost_squared=2.0**50, insert_default=1.0, delete_default=1.0),
        ],
        ids=["fractional", "past_2_53"],
    )
    def test_no_certificate_without_exact_sums(self, cm):
        # without the guard TRIANGLE vs PATH3 would be certified: its bound,
        # one edge, is its distance
        pair = pad_pair(TRIANGLE, PATH3)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        d = build_cost_matrix(pair, cm)
        assert editpath_module.lower_bound(d, a, b, cm.edge_cost_squared) is None
        rng = np.random.default_rng(3)
        pairs = [(TRIANGLE, PATH3)] + [
            (random_graph(rng, 4, ("a", "b")), random_graph(rng, 5, ("a", "b"))) for _ in range(4)
        ]
        for g1, g2 in pairs:
            report = estimate_ged(g1, g2, cm)
            assert report.lower_bound is None
            assert report.converged_reason != CERTIFIED_OPTIMAL


class TestAblationModes:
    def test_regularizer_off_keeps_lambda_at_zero(self):
        # no certificate here, so the solve runs past round 1, where the
        # default config raises lam to 0.5, 1.0 and 1.5
        cm = builtin_cost_model("case3")
        default = estimate_ged(CYCLE6, TWO_TRIANGLES, cm, CFG)
        assert [rec.lam for rec in default.trace] == [0.0, 0.5, 1.0, 1.5]
        report = estimate_ged(CYCLE6, TWO_TRIANGLES, cm, replace(CFG, lambda_step=0.0))
        assert [rec.lam for rec in report.trace] == [0.0] * 4

    def test_regularizer_off_equals_rounding_the_relaxed_solution(self):
        # on an easy pair the first rounded candidate is already the report
        g = graph(["1", "2", "3"], [(0, 1)])
        cfg = replace(CFG, lambda_step=0.0)
        report = estimate_ged(g, g, builtin_cost_model("case3"), cfg)
        assert report.estimated_ged == report.trace[0].candidate_ged == 0.0


class TestSolverConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="alpha"):
            SolverConfig(alpha=0.0)
        with pytest.raises(ValueError, match="patience"):
            SolverConfig(patience=0)
        with pytest.raises(ValueError, match="inner_max_iters"):
            SolverConfig(inner_max_iters=2.5)
        with pytest.raises(ValueError, match="patience"):
            SolverConfig(patience=3.0)
        with pytest.raises(ValueError, match="lambda_max_rounds"):
            SolverConfig(lambda_max_rounds="20")
        with pytest.raises(ValueError, match="lambda_max_rounds"):
            SolverConfig(lambda_max_rounds=0)
        with pytest.raises(ValueError, match="lambda_step"):
            SolverConfig(lambda_step=-0.5)
        with pytest.raises(ValueError, match="lambda_step"):
            SolverConfig(lambda_step=float("nan"))
        assert SolverConfig(lambda_step=0.0).lambda_step == 0.0

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.mu == 1.0
        assert cfg.alpha == 0.001
        assert cfg.lambda_step == 0.5
        assert cfg.sigma_cap == 1e3
        assert cfg.inner_max_iters == 500
