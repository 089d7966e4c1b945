"""Frank–Wolfe steps, the inner loop, the full solve, and its postconditions."""

import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import gedalign.editpath as editpath_module
import gedalign.solver as solver_module
from gedalign import (
    CostModel,
    CostModelError,
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
from gedalign.costs import MAX_COST
from gedalign.kernel import objective
from gedalign.solver import (
    CERTIFIED_OPTIMAL,
    CHECK_STEPS,
    INNER_TOL,
    LAMBDA_ROUNDS_EXHAUSTED,
    PATIENCE_EXHAUSTED,
    inner_minimize,
)
from conftest import graph, random_graph, score_block, shuffled_cases

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


def _record(monkeypatch, name):
    """Wrap ``solver.<name>`` so that every call's arguments and result are
    appended to the returned list."""
    real = getattr(solver_module, name)
    calls = []

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(solver_module, name, recording)
    return calls


def _random_inner_problems(rng, count):
    for trial in range(count):
        cm = builtin_cost_model(("case1", "case2", "case3")[trial % 3])
        n = int(rng.integers(2, 9))
        pair = pad_pair(random_graph(rng, n, ("0", "1", "2")), random_graph(rng, n, ("0", "1", "2")))
        kappa = np.sqrt(cm.edge_cost_squared)
        a, b = kappa * adjacency(pair.g1, pair.order), kappa * adjacency(pair.g2, pair.order)
        yield a, b, build_cost_matrix(pair, cm), np.eye(pair.order), (0.0, 0.5, 2.0)[trial % 3]


class TestFrankWolfe:
    def test_line_search_beats_every_grid_point(self, monkeypatch, rng):
        # each step lands where the objective along the segment to the LAP
        # vertex is no higher than at any of 101 evenly spaced points of it
        gradient_calls = _record(monkeypatch, "gradient")
        lap_calls = _record(monkeypatch, "_augmenting_path_lap")
        grid = np.linspace(0.0, 1.0, 101)
        steps = 0
        for a, b, d, p0, lam in _random_inner_problems(rng, 12):
            gradient_calls.clear()
            lap_calls.clear()
            last, iters, _, _ = inner_minimize(a, b, d, p0, lam)
            # a gradient at every iterate before the last, which is returned
            iterates = [args[3] for args, _ in gradient_calls[:iters]] + [last]
            for k in range(iters):
                p, value = iterates[k], objective(a, b, d, iterates[k + 1], lam)
                cols = lap_calls[k][1][0]
                delta = -p
                delta[np.arange(len(cols)), cols] += 1.0
                along = [objective(a, b, d, p + t * delta, lam) for t in grid]
                assert value <= min(along) + 1e-12 * max(1.0, abs(value))
            steps += iters
        assert steps >= 12

    def test_iterates_stay_doubly_stochastic(self, monkeypatch, rng):
        gradient_calls = _record(monkeypatch, "gradient")
        for a, b, d, p0, lam in _random_inner_problems(rng, 12):
            inner_minimize(a, b, d, p0, lam)
        assert len(gradient_calls) > 24
        for args, _ in gradient_calls:
            p = args[3]
            assert p.min() >= 0.0
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-12
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12


class TestInnerMinimize:
    def test_takes_no_step_at_stationary_point(self):
        # equal matrices, zero costs: the identity is a global optimum, its
        # gradient is zero and so is its Frank–Wolfe gap
        a = adjacency(TRIANGLE, 3)
        d = np.zeros((3, 3))
        p0 = np.eye(3)
        p, iters, _, _ = inner_minimize(a, a, d, p0, 0.0)
        assert iters == 0
        assert np.array_equal(p, p0)

    def test_identical_graphs_keep_identity(self):
        pair = pad_pair(TRIANGLE, TRIANGLE)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        d = build_cost_matrix(pair, builtin_cost_model("case3"))
        p, _, _, _ = inner_minimize(a, b, d, np.eye(3), 0.0)
        assert objective(a, b, d, p, 0.0) == 0.0

    def test_descends_from_identity_toward_spread_solution(self):
        # one edge against two isolated nodes: spreading mass lowers the
        # Frobenius term, so the inner loop must beat the identity value
        g1 = graph("aa", [(0, 1)])
        g2 = graph("aa")
        pair = pad_pair(g1, g2)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        d = build_cost_matrix(pair, builtin_cost_model("case3"))
        start = np.eye(2)
        value_at_start = objective(a, b, d, start, 0.0)
        p, _, _, _ = inner_minimize(a, b, d, start, 0.0)
        assert objective(a, b, d, p, 0.0) < value_at_start

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
            # a doubly stochastic start: the mean of three permutations
            p0 = sum(np.eye(pair.order)[rng.permutation(pair.order)] for _ in range(3)) / 3.0
            p, _, _, _ = inner_minimize(a, b, d, p0, 1.0)
            assert (
                objective(a, b, d, p, 1.0)
                <= objective(a, b, d, p0, 1.0) + INNER_TOL
            )

    def test_returned_value_is_the_objective_at_the_returned_iterate(self, rng):
        # the loop evaluates the objective once, at the iterate it returns,
        # with the bits of `objective` there: at lam 0 and above, with no
        # certificate, with checks that fail and with one that ends the loop
        mark = (Permutation(()), 0.0)
        for certify, ends in ((None, False), (lambda p: None, False), (lambda p: mark, True)):
            steps = 0
            for trial in range(12):
                n = int(rng.integers(2, 7))
                pair = pad_pair(
                    random_graph(rng, n, ("a", "b")), random_graph(rng, n, ("a", "b"))
                )
                cm = builtin_cost_model("case1")
                kappa = np.sqrt(cm.edge_cost_squared)
                a = kappa * adjacency(pair.g1, pair.order)
                b = kappa * adjacency(pair.g2, pair.order)
                d = build_cost_matrix(pair, cm)
                lam = 0.0 if trial % 2 else float(rng.uniform(0.0, 2.0))
                p, iters, value, certified = inner_minimize(
                    a, b, d, np.eye(pair.order), lam, certify
                )
                assert value.hex() == objective(a, b, d, p, lam).hex()
                if ends and iters:
                    assert certified is mark and iters == next(k for k in CHECK_STEPS if k)
                else:
                    assert certified is None
                steps += iters
            assert steps > 0


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

    def test_pinned_outputs_over_generated_pairs(self, monkeypatch):
        # the production schedule, whose checks end some rounds early, has its
        # own digest. With no checks inside a round the solve descends only at
        # each round's end and gives the second digest; a check that does not
        # certify changes nothing, so the two differ only where a check
        # certified
        def digest():
            h = hashlib.sha256()
            for k, setting in enumerate(("case1", "case2", "case3")):
                cm = builtin_cost_model(setting)
                cases = generate_pairs(
                    seed=1500 + k, count=14, n_range=(3, 9), edit_range=(1, 5),
                    label_alphabet=("0", "1"), cm=cm, edge_prob=0.4, max_order=9,
                    oracle_budget=0,
                )
                for case in cases:
                    report = estimate_ged(case.g1, case.g2, cm)
                    rounds = [
                        (rec.candidate_ged, rec.inner_iterations, rec.objective_value.hex())
                        for rec in report.trace
                    ]
                    outputs = (
                        report.estimated_ged.hex(),
                        report.permutation.mapping,
                        report.converged_reason,
                        rounds,
                    )
                    h.update(repr(outputs).encode())
            return h.hexdigest()

        assert digest() == "d6e9d53f6590dcbd76c89e9b60a423943eaa3d1166ce1763bfa45c1ae6329bff"
        monkeypatch.setattr(solver_module, "CHECK_STEPS", ())
        assert digest() == "63997d7836705e64126fc213e203e5787e9a29c5d570f9183c8275da34c16749"

    def test_pinned_outputs_without_a_bound(self):
        # fractional costs give no certified bound, so no check runs and every
        # solve ends on patience or the round cap. 118 of these 241 rounds
        # take no step and keep their start's scored rounding and descent;
        # the digest pins that path in generator order and with shuffled nodes
        cm = CostModel(1.5, 0.7, 1.3, 0.4)
        cases = generate_pairs(
            seed=1700, count=30, n_range=(0, 8), edit_range=(1, 5),
            label_alphabet=("0", "1", "2"), cm=cm, edge_prob=0.4, max_order=8,
            oracle_budget=0,
        )
        h = hashlib.sha256()
        steps = []
        for case in cases + shuffled_cases(cases):
            report = estimate_ged(case.g1, case.g2, cm)
            assert report.lower_bound is None
            rounds = [
                (rec.candidate_ged, rec.inner_iterations, rec.objective_value.hex())
                for rec in report.trace
            ]
            outputs = (
                report.estimated_ged.hex(),
                report.permutation.mapping,
                report.converged_reason,
                rounds,
            )
            h.update(repr(outputs).encode())
            steps += [rec.inner_iterations for rec in report.trace]
        assert 0 in steps and max(steps) > 0
        assert h.hexdigest() == "448df1b0e8443057b8ee1e704a0576b57f6eaf1163f54d640013c332412b5fec"

    def test_lambda_round_cap(self, monkeypatch):
        monkeypatch.setattr(SolverConfig, "lambda_max_rounds", 2)
        report = estimate_ged(CYCLE6, TWO_TRIANGLES, builtin_cost_model("case3"))
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

    @pytest.mark.parametrize(
        "g1, g2, k2",
        [
            # the Frobenius term would overflow at the identity start
            (graph("ab", [(0, 1)]), graph("a"), 1.7e308),
            # finite at the start, the objective would overflow after one step
            (graph("aaba", [(1, 3)]), graph("abbb", [(0, 1), (1, 3), (2, 3)]), 4e307),
        ],
        ids=["at_start", "at_step"],
    )
    def test_overflowing_cost_models_are_refused(self, g1, g2, k2):
        # squared edge costs past the ceiling are refused; at the ceiling the
        # same pairs solve without a warning
        with pytest.raises(CostModelError, match="edge_cost_squared"):
            CostModel(edge_cost_squared=k2, insert_default=1, delete_default=1)
        cm = CostModel(edge_cost_squared=MAX_COST, insert_default=1, delete_default=1)
        report = estimate_ged(g1, g2, cm)
        assert report.estimated_ged == report.edit_path.total_cost
        assert report.estimated_ged == exact_ged(g1, g2, cm).ged

    def test_round_objective_is_the_minimized_value(self, monkeypatch, rng):
        # every kernel call of a solve goes through the inner loop: a gradient
        # at each iterate, the last of a round ended by the step cap or a
        # check excepted, and one objective per round, at the iterate it
        # returns. A round reports that value, the smallest at any of its
        # iterates, since each exact line search can only lower it
        calls = []
        for name in ("gradient", "objective"):
            real = getattr(solver_module, name)

            def recording(*args, name=name, real=real):
                result = real(*args)
                calls.append((name, args, result))
                return result

            monkeypatch.setattr(solver_module, name, recording)
        pairs = [(PATH4, STAR4, builtin_cost_model("case3"))] + [
            (
                random_graph(rng, int(rng.integers(3, 7)), ("0", "1")),
                random_graph(rng, int(rng.integers(3, 7)), ("0", "1")),
                builtin_cost_model(setting),
            )
            for setting in ("case1", "case2", "case3")
        ]
        for g1, g2, cm in pairs:
            calls.clear()
            report = estimate_ged(g1, g2, cm)
            ends = [k for k, (name, _, _) in enumerate(calls) if name == "objective"]
            assert len(ends) == len(report.trace)
            start = 0
            for rec, end in zip(report.trace, ends):
                gradients = calls[start:end]
                assert len(gradients) - rec.inner_iterations in (0, 1)
                _, args, value = calls[end]
                seen = [objective(*call_args) for _, call_args, _ in gradients]
                assert rec.objective_value == value == objective(*args)
                assert value == min(seen + [value])
                start = end + 1


    def test_round_without_a_step_keeps_its_start_rounding(self, monkeypatch):
        # fractional costs: no bound, so no check. Path against path plus an
        # isolated node: the identity start is stationary, so no round takes
        # a step, and none rounds. Round 1 scores the identity, the only
        # rounding of its matrix, and each later round keeps that candidate
        cm = CostModel(
            edge_cost_squared=0.3, insert_default=0.1, delete_default=0.7, substitute_default=0.2
        )
        g1, g2 = PATH3, graph("xxxx", [(0, 1), (1, 2)])
        roundings = _record(monkeypatch, "round_to_permutation")
        report = estimate_ged(g1, g2, cm)
        assert report.lower_bound is None
        assert [rec.inner_iterations for rec in report.trace] == [0] * len(report.trace)
        assert roundings == []
        pair = pad_pair(g1, g2)
        a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
        identity = np.arange(pair.order)[None, :]
        cost = float(
            score_block(build_cost_matrix(pair, cm), a, b, identity, cm.edge_cost_squared)[0]
        )
        assert [rec.candidate_ged for rec in report.trace] == [cost] * len(report.trace)
        assert report.permutation == Permutation.identity(pair.order)
        assert report.estimated_ged == cost == exact_ged(g1, g2, cm).ged

        # rounds after a step round their iterate; the others make no call
        report = estimate_ged(CYCLE6, TWO_TRIANGLES, cm)
        assert len(roundings) == sum(rec.inner_iterations > 0 for rec in report.trace) > 0


class TestCertifiedStop:
    def test_stop_lowers_no_estimate(self, monkeypatch):
        # the certified stop against solves with no bound. A solve that does
        # not certify is the unbounded solve, trace bits included. A certified
        # one returns the bound, which is the truth and never above the
        # unbounded estimate; its mapping may be another optimal one
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
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "lower_bound", lambda *args: None)
            full = run()
        certified = [r.converged_reason == CERTIFIED_OPTIMAL for r in stopped]
        assert any(certified) and not all(certified)
        for (g1, g2, cm), r1, r2 in zip(pairs, stopped, full):
            if r1.converged_reason == CERTIFIED_OPTIMAL:
                assert r1.estimated_ged == r1.lower_bound == exact_ged(g1, g2, cm).ged
                assert r1.estimated_ged <= r2.estimated_ged
            else:
                assert replace(r1, lower_bound=None) == r2
                assert [rec.objective_value.hex() for rec in r1.trace] == [
                    rec.objective_value.hex() for rec in r2.trace
                ]

        # PATH4 against STAR4 certifies at a check inside its first round;
        # without checks that round runs to the step cap
        cm = builtin_cost_model("case3")
        checked = estimate_ged(PATH4, STAR4, cm)
        monkeypatch.setattr(solver_module, "CHECK_STEPS", ())
        unchecked = estimate_ged(PATH4, STAR4, cm)
        assert checked.converged_reason == unchecked.converged_reason == CERTIFIED_OPTIMAL
        assert checked.trace[-1].inner_iterations in CHECK_STEPS
        steps = lambda report: sum(rec.inner_iterations for rec in report.trace)
        assert steps(checked) < steps(unchecked)

    def test_identity_start_that_meets_the_bound_ends_at_step_0(self, monkeypatch):
        # the first corpus_n8 pair at 20240501: its identity start costs the
        # bound, but without the step-0 check round 1 steps before it
        # certifies. With it the solve runs no gradient, no LAP and no rounding
        cm = builtin_cost_model("case3")
        case = generate_pairs(
            seed=20240501, count=1, n_range=(5, 8), edit_range=(0, 2),
            label_alphabet=("0", "1", "2", "3"), cm=cm, max_order=8, oracle_budget=0,
        )[0]
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "CHECK_STEPS", tuple(k for k in CHECK_STEPS if k))
            assert estimate_ged(case.g1, case.g2, cm).trace[0].inner_iterations > 0
        calls = [
            _record(monkeypatch, name)
            for name in ("gradient", "_augmenting_path_lap", "round_to_permutation")
        ]
        report = estimate_ged(case.g1, case.g2, cm)
        assert calls == [[], [], []]
        pair = pad_pair(case.g1, case.g2)
        n = pair.order
        assert report.permutation == Permutation.identity(n)
        assert report.estimated_ged == report.lower_bound == 1.0
        assert report.converged_reason == CERTIFIED_OPTIMAL
        [record] = report.trace
        assert (record.round_index, record.lam, record.inner_iterations) == (1, 0.0, 0)
        assert record.candidate_ged == report.lower_bound
        kappa = np.sqrt(cm.edge_cost_squared)
        a, b = kappa * adjacency(pair.g1, n), kappa * adjacency(pair.g2, n)
        start = objective(a, b, build_cost_matrix(pair, cm), np.eye(n), 0.0)
        assert record.objective_value.hex() == start.hex()

    def test_certifies_a_shuffled_pair_at_n50(self):
        # the generator's edits cost exactly the certified bound, so 2.0 is
        # the true distance; after the shuffle the identity start is far from
        # the generator's alignment
        cm = builtin_cost_model("case3")
        cases = generate_pairs(
            seed=20240501,
            count=8,
            n_range=(50, 50),
            edit_range=(1, 4),
            label_alphabet=("0", "1", "2", "3"),
            cm=cm,
            edge_prob=0.1,
            oracle_budget=0,
        )
        case = shuffled_cases(cases[:1])[0]
        report = estimate_ged(case.g1, case.g2, cm)
        assert report.estimated_ged == report.lower_bound == case.applied_cost == 2.0
        assert report.converged_reason == CERTIFIED_OPTIMAL

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


    def test_node_costs_past_2_53_leave_no_warning(self):
        # node costs past float range are refused; up to the ceiling the
        # exactness guard turns the bound off and the solve stays finite
        g1, g2 = graph("ab", [(0, 1)]), graph("a")
        with pytest.raises(CostModelError, match="insert_default"):
            CostModel(edge_cost_squared=1, insert_default=1e308, delete_default=1e308)
        cm = CostModel(edge_cost_squared=1, insert_default=MAX_COST, delete_default=MAX_COST)
        report = estimate_ged(g1, g2, cm)
        assert report.lower_bound is None
        assert report.estimated_ged == exact_ged(g1, g2, cm).ged == MAX_COST


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
        # the node-cost weight is gone and the three counts are class constants
        with pytest.raises(TypeError, match="mu"):
            SolverConfig(mu=1.0)
        with pytest.raises(TypeError, match="patience"):
            SolverConfig(patience=0)
        with pytest.raises(TypeError, match="inner_max_iters"):
            SolverConfig(inner_max_iters=2.5)
        with pytest.raises(TypeError, match="patience"):
            SolverConfig(patience=3.0)
        with pytest.raises(TypeError, match="lambda_max_rounds"):
            SolverConfig(lambda_max_rounds=20)
        with pytest.raises(ValueError, match="lambda_step"):
            SolverConfig(lambda_step=-0.5)
        with pytest.raises(ValueError, match="lambda_step"):
            SolverConfig(lambda_step=float("nan"))
        with pytest.raises(ValueError, match="lambda_step"):
            SolverConfig(lambda_step=MAX_COST * 1.01)
        assert SolverConfig(lambda_step=0.0).lambda_step == 0.0
        assert SolverConfig(lambda_step=MAX_COST).lambda_step == MAX_COST

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5], 1 + 0j])
    def test_rejects_non_numbers(self, value):
        # a bool is not taken for 1.0 or 0.0, and nothing that is not a
        # number gets as far as the range comparison
        with pytest.raises(ValueError, match="lambda_step must be a number"):
            SolverConfig(lambda_step=value)

    def test_accepts_ints_and_numpy_floats(self):
        assert SolverConfig(lambda_step=1).lambda_step == 1
        assert SolverConfig(lambda_step=np.float64(0.25)).lambda_step == 0.25

    def test_defaults(self):
        cfg = SolverConfig()
        assert [f.name for f in fields(SolverConfig)] == ["lambda_step"]
        assert cfg.lambda_step == 0.5
        assert cfg.lambda_max_rounds == 20
        assert cfg.patience == 3
        assert cfg.inner_max_iters == 30
