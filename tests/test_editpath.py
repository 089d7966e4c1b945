"""Edit accounting under a mapping, path extraction/replay, and the oracle."""

import hashlib
import itertools

import numpy as np
import pytest

from gedalign import (
    BudgetExceededError,
    CostModel,
    Permutation,
    adjacency,
    builtin_cost_model,
    build_cost_matrix,
    exact_ged,
    extract_edit_path,
    ged_under_mapping,
    generate_pairs,
    make_graph,
    pad_pair,
)
import gedalign.editpath as editpath_module
from gedalign.editpath import (
    EdgeDelete,
    EdgeInsert,
    NodeDelete,
    NodeInsert,
    NodeSubstitute,
    _score_mapping,
    _swap_deltas,
    _swap_descent,
    lower_bound,
)
from gedalign.kernel import objective
from conftest import graph, random_graph

TRIANGLE = graph("xxx", [(0, 1), (1, 2), (0, 2)])
PATH3 = graph("xxx", [(0, 1), (1, 2)])


def _symmetric_n9():
    """Seven symmetric single-label graphs of order 9: the cycle, the path,
    three triangles, the star, the complete and empty graphs and the
    complement of the cycle."""
    n = 9
    complete = list(itertools.combinations(range(n), 2))
    ring = sorted({tuple(sorted((i, (i + 1) % n))) for i in range(n)})
    return [
        make_graph(["0"] * n, edges)
        for edges in (
            ring,
            [(i, i + 1) for i in range(n - 1)],
            [(t + i, t + j) for t in (0, 3, 6) for i, j in ((0, 1), (0, 2), (1, 2))],
            [(0, j) for j in range(1, n)],
            complete,
            [],
            [e for e in complete if e not in set(ring)],
        )
    ]


SYMMETRIC_N9 = _symmetric_n9()


def padded_labels(g, order):
    """``g``'s labels over ``order`` indices, ``None`` on its padding slots."""
    return {v: g.labels[v] if v < g.order else None for v in range(order)}


def replay_edit_path(pair, path, perm):
    """Apply the extracted operations to the first graph, in the second
    graph's index space, and return (labels, edges); a padding slot's label
    is ``None``."""
    labels = {perm.mapping[v]: lab for v, lab in padded_labels(pair.g1, pair.order).items()}
    edges = set()
    for i, j in pair.g1.edges:
        a, b = perm.mapping[i], perm.mapping[j]
        edges.add((min(a, b), max(a, b)))
    for op in path.ops:
        if isinstance(op, NodeInsert):
            labels[op.target] = op.label
        elif isinstance(op, NodeDelete):
            labels[perm.mapping[op.node]] = None
        elif isinstance(op, NodeSubstitute):
            labels[op.target] = op.to_label
        elif isinstance(op, EdgeDelete):
            a = perm.mapping[op.node_a]
            b = perm.mapping[op.node_b]
            edges.remove((min(a, b), max(a, b)))
        elif isinstance(op, EdgeInsert):
            edges.add((op.target_a, op.target_b))
    return labels, edges


class TestGedUnderMapping:
    def test_identity_on_identical_graphs(self):
        pair = pad_pair(TRIANGLE, TRIANGLE)
        for setting in ("case1", "case3"):
            cm = builtin_cost_model(setting)
            assert ged_under_mapping(pair, Permutation.identity(3), cm) == 0.0

    def test_single_edge_deletion(self):
        pair = pad_pair(graph("aa", [(0, 1)]), graph("aa"))
        cm = builtin_cost_model("case3")
        assert ged_under_mapping(pair, Permutation.identity(2), cm) == 1.0

    def test_label_swap_costs_nothing_without_substitution_prices(self):
        g1 = graph("ab", [(0, 1)])
        g2 = graph("ba", [(0, 1)])
        pair = pad_pair(g1, g2)
        assert ged_under_mapping(pair, Permutation.identity(2), builtin_cost_model("case3")) == 0.0

    def test_label_swap_under_ranked_substitution(self):
        # labels "1" and "2" are each other's only candidates, so swapping
        # under the identity costs 1 + 1
        g1 = graph(["1", "2"], [(0, 1)])
        g2 = graph(["2", "1"], [(0, 1)])
        pair = pad_pair(g1, g2)
        cm = builtin_cost_model("case2")
        assert ged_under_mapping(pair, Permutation.identity(2), cm) == 2.0
        swap = Permutation((1, 0))
        assert ged_under_mapping(pair, swap, cm) == 0.0

    def test_order_mismatch_rejected(self):
        pair = pad_pair(TRIANGLE, TRIANGLE)
        with pytest.raises(ValueError, match="order"):
            ged_under_mapping(pair, Permutation.identity(2), builtin_cost_model("case3"))


class TestExtractEditPath:
    def test_empty_path_on_identical_graphs(self):
        pair = pad_pair(TRIANGLE, TRIANGLE)
        path = extract_edit_path(pair, Permutation.identity(3), builtin_cost_model("case3"))
        assert path.ops == ()
        assert path.total_cost == 0.0

    def test_triangle_to_path_is_one_edge_deletion(self):
        cm = builtin_cost_model("case3")
        result = exact_ged(TRIANGLE, PATH3, cm)
        pair = pad_pair(TRIANGLE, PATH3)
        path = extract_edit_path(pair, result.optimal_mapping, cm)
        assert [op.kind for op in path.ops] == ["edge_delete"]
        assert path.total_cost == 1.0

    def test_single_insertion_from_empty(self):
        cm = builtin_cost_model("case1")
        pair = pad_pair(graph(""), graph("a"))
        path = extract_edit_path(pair, Permutation.identity(1), cm)
        assert [op.kind for op in path.ops] == ["node_insert"]
        assert path.ops[0].label == "a"
        assert path.total_cost == 3.0

    def test_total_matches_accounting_bit_for_bit(self, rng):
        settings = [builtin_cost_model("case1"), builtin_cost_model("case3")]
        for _ in range(30):
            g1 = random_graph(rng, int(rng.integers(0, 8)), ("a", "b", "c"))
            g2 = random_graph(rng, int(rng.integers(0, 8)), ("a", "b", "c"))
            pair = pad_pair(g1, g2)
            perm = Permutation(tuple(int(x) for x in rng.permutation(pair.order)))
            for cm in settings:
                path = extract_edit_path(pair, perm, cm)
                assert path.total_cost == ged_under_mapping(pair, perm, cm)

    def test_replay_reproduces_target(self, rng):
        cm = builtin_cost_model("case1")
        for _ in range(25):
            g1 = random_graph(rng, int(rng.integers(0, 7)), ("a", "b"))
            g2 = random_graph(rng, int(rng.integers(0, 7)), ("a", "b"))
            pair = pad_pair(g1, g2)
            perm = Permutation(tuple(int(x) for x in rng.permutation(pair.order)))
            path = extract_edit_path(pair, perm, cm)
            labels, edges = replay_edit_path(pair, path, perm)
            assert labels == padded_labels(pair.g2, pair.order)
            assert edges == set(pair.g2.edges)

    def test_json_shape(self):
        cm = builtin_cost_model("case1")
        pair = pad_pair(graph("ab", [(0, 1)]), graph("b"))
        path = extract_edit_path(pair, Permutation.identity(2), cm)
        doc = path.to_json()
        assert set(doc) == {"ops", "total_cost"}
        assert all("kind" in op for op in doc["ops"])
        assert doc["total_cost"] == path.total_cost


class TestExactGed:
    def test_identical_graphs(self):
        res = exact_ged(TRIANGLE, TRIANGLE, builtin_cost_model("case3"))
        assert res.ged == 0.0
        assert res.optimal_mapping == Permutation.identity(3)

    def test_triangle_vs_path(self):
        res = exact_ged(TRIANGLE, PATH3, builtin_cost_model("case3"))
        assert res.ged == 1.0

    def test_edge_deletion_at_squared_cost(self):
        g1 = graph("ab", [(0, 1)])
        g2 = graph("ab")
        res = exact_ged(g1, g2, builtin_cost_model("case1"))
        assert res.ged == 2.0

    def test_empty_pair(self):
        res = exact_ged(graph(""), graph(""), builtin_cost_model("case3"))
        assert res.ged == 0.0
        assert res.optimal_mapping.mapping == ()

    def test_budget_refusal(self):
        big = graph("a" * 12)
        with pytest.raises(BudgetExceededError, match="budget"):
            exact_ged(big, big, builtin_cost_model("case3"))
        small = graph("a" * 7)
        with pytest.raises(BudgetExceededError, match="budget"):
            exact_ged(small, small, builtin_cost_model("case3"), node_budget=6)
        # a matching budget lets the same pair through
        assert exact_ged(small, small, builtin_cost_model("case3"), node_budget=7).ged == 0.0

    def test_minimum_over_all_mappings(self, rng):
        cm = builtin_cost_model("case1")
        for _ in range(10):
            g1 = random_graph(rng, int(rng.integers(1, 5)), ("a", "b"))
            g2 = random_graph(rng, int(rng.integers(1, 5)), ("a", "b"))
            pair = pad_pair(g1, g2)
            res = exact_ged(g1, g2, cm)
            values = [
                ged_under_mapping(pair, Permutation(p), cm)
                for p in itertools.permutations(range(pair.order))
            ]
            assert res.ged == min(values)

    def test_agrees_with_accounting_under_fractional_costs(self):
        # non-integer costs give different bits under different summation
        # orders; the oracle's value must still be the minimum of the
        # per-mapping accounting, bit for bit, attained first in
        # lexicographic order, and equal to its edit path's total
        cm = CostModel(
            edge_cost_squared=0.3,
            insert_default=0.1,
            delete_default=0.7,
            substitute_default=0.2,
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            g1 = random_graph(rng, int(rng.integers(3, 6)), ("a", "b", "c"))
            g2 = random_graph(rng, int(rng.integers(3, 6)), ("a", "b", "c"))
            pair = pad_pair(g1, g2)
            mappings = [Permutation(p) for p in itertools.permutations(range(pair.order))]
            values = [ged_under_mapping(pair, perm, cm) for perm in mappings]
            best = min(values)
            res = exact_ged(g1, g2, cm)
            assert res.ged == best
            assert res.optimal_mapping == mappings[values.index(best)]
            assert extract_edit_path(pair, res.optimal_mapping, cm).total_cost == res.ged

    def test_lexicographic_tie_break(self):
        # two isolated equal-label nodes: every mapping costs 0, identity wins
        g = graph("aa")
        res = exact_ged(g, g, builtin_cost_model("case3"))
        assert res.optimal_mapping == Permutation.identity(2)

    def test_deterministic(self, rng):
        g1 = random_graph(rng, 5, ("a", "b"))
        g2 = random_graph(rng, 5, ("a", "b"))
        cm = builtin_cost_model("case1")
        first = exact_ged(g1, g2, cm)
        assert all(exact_ged(g1, g2, cm) == first for _ in range(3))

    def test_optimum_in_the_last_block(self):
        # node 0 must go to node 7, so every mapping that sends it to one of
        # the first seven images costs at least 2, and the only mappings of
        # cost 0 lie under the last image the search tries for node 0
        cm = CostModel(
            edge_cost_squared=1.0, insert_default=1.0, delete_default=1.0, substitute_default=1.0
        )
        res = exact_ged(graph("b" + "a" * 7), graph("a" * 7 + "b"), cm)
        assert res.ged == 0.0
        assert res.optimal_mapping == Permutation((7, 0, 1, 2, 3, 4, 5, 6))

    @pytest.mark.parametrize("setting", ["case1", "case2", "case3"])
    def test_agrees_with_networkx(self, setting):
        # an independent exact search: networkx charges node edits through
        # the cost model, every edge insertion or deletion at the squared
        # edge cost, and nothing for an edge kept
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            h = nx.Graph()
            h.add_nodes_from((i, {"label": label}) for i, label in enumerate(g.labels))
            h.add_edges_from(g.edges)
            return h

        cm = builtin_cost_model(setting)
        rng = np.random.default_rng(5)
        for _ in range(8):
            g1 = random_graph(rng, int(rng.integers(2, 6)), ("0", "1", "2", "3"))
            g2 = random_graph(rng, int(rng.integers(2, 6)), ("0", "1", "2", "3"))
            pool = pad_pair(g1, g2).label_pool()
            expected = nx.graph_edit_distance(
                to_nx(g1),
                to_nx(g2),
                node_subst_cost=lambda u, v: cm.node_substitute_cost(u["label"], v["label"], pool),
                node_del_cost=lambda u: cm.node_delete_cost(u["label"]),
                node_ins_cost=lambda v: cm.node_insert_cost(v["label"]),
                edge_subst_cost=lambda e1, e2: 0.0,
                edge_del_cost=lambda e: cm.edge_cost_squared,
                edge_ins_cost=lambda e: cm.edge_cost_squared,
            )
            assert exact_ged(g1, g2, cm).ged == expected

    def test_pinned_outputs_over_exact_n9_pairs_and_symmetric_graphs(self):
        # the digest of every (ged, mapping) that scoring all n! mappings gave
        # before the branch and bound replaced it: the exact_n9 benchmark
        # pairs at both seeds, and all ordered pairs of seven symmetric
        # single-label graphs of order 9, whose many tied mappings leave the
        # lexicographic tie-break all the work
        h = hashlib.sha256()

        def record(g1, g2, cm):
            result = exact_ged(g1, g2, cm)
            h.update(repr((result.ged, result.optimal_mapping.mapping)).encode())

        case1 = builtin_cost_model("case1")
        for seed in (20240501, 31337):
            for case in generate_pairs(
                seed, 12, (9, 9), (1, 3), ("0", "1", "2", "3"), case1, max_order=9,
                oracle_budget=0,
            ):
                record(case.g1, case.g2, case1)
        for setting in ("case1", "case3"):
            for g1, g2 in itertools.product(SYMMETRIC_N9, repeat=2):
                record(g1, g2, builtin_cost_model(setting))
        assert h.hexdigest() == "c4f23ca624f28f4cdecb5ed33fbd948ecc6d76b788b7e12a3fba14000ddcbdde"

    def test_pinned_outputs_over_symmetric_graphs_under_fractional_costs(self):
        # the same seven graphs where sums are inexact, so the bound prunes
        # only past its rounding margin; the digest is that of the search
        # with both row and column minima in its bound. Left out for time:
        # complement of the cycle onto the cycle and onto the path, and the
        # cycle onto its complement (0.4-2.3 s each; the rest take ~0.6 s)
        cm = CostModel(
            edge_cost_squared=0.7, insert_default=1.3, delete_default=0.9, substitute_default=0.45
        )
        h = hashlib.sha256()
        for (i, g1), (j, g2) in itertools.product(enumerate(SYMMETRIC_N9), repeat=2):
            if (i, j) not in {(6, 0), (6, 1), (0, 6)}:
                result = exact_ged(g1, g2, cm)
                h.update(repr((result.ged, result.optimal_mapping.mapping)).encode())
        assert h.hexdigest() == "958c7ed81c14376a30f51a1937932b3da774dbbf46dce5a99ce8b00bc28133da"

    def test_pinned_outputs_over_labelled_padded_pairs_under_per_label_costs(self):
        # 48 pairs of orders 8-9 over three labels, 16 of them padded, under
        # per-label insertion, deletion and substitution prices: sums are
        # inexact, so the bound prunes only past its rounding margin. A search
        # with no margin (cutoff = best) gives the same digest, so this pins
        # the outputs on this input class but not the margin itself
        cm = CostModel(
            0.7, 1.3, 0.9, 0.45,
            insert_costs={"0": 1.1, "1": 0.3},
            delete_costs={"2": 0.7},
            substitute_costs={("0", "1"): 0.2, ("1", "0"): 0.6, ("2", "0"): 0.15},
        )
        h = hashlib.sha256()
        for seed in (20240501, 31337):
            for case in generate_pairs(
                seed, 24, (8, 9), (2, 6), ("0", "1", "2"), cm, max_order=9, oracle_budget=0
            ):
                result = exact_ged(case.g1, case.g2, cm)
                h.update(repr((result.ged, result.optimal_mapping.mapping)).encode())
        assert h.hexdigest() == "11e07db34c2c29ed0ad37624f7a1be954c5fd7d7360e99d5f01620d780bed5a2"


class TestLowerBound:
    def test_row_column_and_edge_terms(self):
        d = np.array([[0.0, 5.0], [3.0, 4.0]])
        a = adjacency(graph("ab", [(0, 1)]), 2)
        b = adjacency(graph("ab"), 2)
        # rows give 0 + 3, columns 0 + 4; one edge slot must change
        assert lower_bound(d, a, b, 2.0) == 4.0 + 2.0

    def test_sorted_degree_term(self):
        # equal labels and edge counts; sorted degrees 1,1,2,2 against 1,1,1,3
        # differ by 2 in all, so one slot, rounded up to the even edge total
        path4 = graph("aaaa", [(0, 1), (1, 2), (2, 3)])
        star4 = graph("aaaa", [(0, 1), (0, 2), (0, 3)])
        cm = builtin_cost_model("case3")
        pair = pad_pair(path4, star4)
        a, b = adjacency(pair.g1, 4), adjacency(pair.g2, 4)
        d = build_cost_matrix(pair, cm)
        assert lower_bound(d, a, b, cm.edge_cost_squared) == 2.0
        assert exact_ged(path4, star4, cm).ged == 2.0

    def test_parity_round_up(self):
        # a path of three nodes and an isolated node against two disjoint
        # edges: the degrees differ by 2 in all (one slot) and the edge counts
        # are equal, but 2 + 2 edges force an even number of edited slots
        g1 = graph("aaaa", [(0, 1), (1, 2)])
        g2 = graph("aaaa", [(0, 1), (2, 3)])
        a, b = adjacency(g1, 4), adjacency(g2, 4)
        d = np.zeros((4, 4))
        assert lower_bound(d, a, b, 1.0) == 2.0
        assert exact_ged(g1, g2, builtin_cost_model("case3")).ged == 2.0

    def test_never_below_the_edge_count_difference(self, rng):
        for trial in range(40):
            cm = builtin_cost_model(("case1", "case2", "case3")[trial % 3])
            g1 = random_graph(rng, int(rng.integers(0, 9)), ("0", "1", "2"), 0.5)
            g2 = random_graph(rng, int(rng.integers(0, 9)), ("0", "1", "2"), 0.2)
            pair = pad_pair(g1, g2)
            a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            k2 = cm.edge_cost_squared
            node = max(d.min(axis=1).sum(), d.min(axis=0).sum()) if pair.order else 0.0
            edge_gap = abs(len(g1.edges) - len(g2.edges))
            assert lower_bound(d, a, b, k2) >= node + k2 * edge_gap

    def test_none_unless_sums_are_exact(self):
        a = b = np.zeros((2, 2))
        # a fractional node cost
        assert lower_bound(np.array([[0.0, 0.5], [1.0, 0.0]]), a, b, 1.0) is None
        # d.sum() + k2 * n**2 reaches 2**53, then stays just below it
        assert lower_bound(np.full((2, 2), 2.0**51), a, b, 1.0) is None
        assert lower_bound(np.full((2, 2), 2.0**50), a, b, 1.0) == 2.0**51
        # a node cost past 2**53: refused before the sum can overflow
        assert lower_bound(np.full((2, 2), 1e308), a, b, 1.0) is None
        empty = np.zeros((0, 0))
        assert lower_bound(empty, empty, empty, 1.0) == 0.0


def _arrays(pair, cm):
    """The node-cost matrix and the raw adjacency matrices of ``pair``."""
    n = pair.order
    return build_cost_matrix(pair, cm), adjacency(pair.g1, n), adjacency(pair.g2, n)


def _swapped(mapping, i, j):
    m = list(mapping)
    m[i], m[j] = m[j], m[i]
    return tuple(m)


class TestSwapDescent:
    def test_each_swap_taken_changes_the_path_total_by_its_prediction(self, monkeypatch):
        # under integer costs the prediction is exact: every swap the pass
        # keeps moves the edit path's total by exactly the predicted change.
        # Each kept swap is followed by one more prediction, so consecutive
        # predictions bracket every swap taken
        predictions = []

        def recording(d, a, b, m, k2):
            delta = _swap_deltas(d, a, b, m, k2)
            predictions.append((tuple(m.tolist()), delta.copy()))
            return delta

        monkeypatch.setattr(editpath_module, "_swap_deltas", recording)
        taken = 0
        for k, setting in enumerate(("case1", "case2", "case3")):
            cm = builtin_cost_model(setting)
            cases = generate_pairs(
                seed=2600 + k, count=12, n_range=(3, 9), edit_range=(1, 5),
                label_alphabet=("0", "1", "2"), cm=cm, edge_prob=0.4, max_order=9,
                oracle_budget=0,
            )
            rng = np.random.default_rng(k)
            for case in cases:
                pair = pad_pair(case.g1, case.g2)
                d, a, b = _arrays(pair, cm)
                start = tuple(int(x) for x in rng.permutation(pair.order))
                cost = _score_mapping(d, a, b, start, cm.edge_cost_squared)
                predictions.clear()
                mapping, descended = _swap_descent(d, a, b, start, cost, cm.edge_cost_squared)
                assert predictions[0][0] == start and predictions[-1][0] == mapping
                for (before, delta), (after, _) in zip(predictions, predictions[1:]):
                    i, j = (v for v in range(pair.order) if before[v] != after[v])
                    assert after == _swapped(before, i, j)
                    change = (
                        extract_edit_path(pair, Permutation(after), cm).total_cost
                        - extract_edit_path(pair, Permutation(before), cm).total_cost
                    )
                    assert change == delta[i, j] < 0.0
                    taken += 1
                assert descended == extract_edit_path(pair, Permutation(mapping), cm).total_cost
        assert taken >= 50  # 74 at these seeds

    def test_prediction_of_every_swap_is_exact_under_integer_costs(self, rng):
        for trial in range(30):
            cm = builtin_cost_model(("case1", "case2", "case3")[trial % 3])
            g1 = random_graph(rng, int(rng.integers(2, 8)), ("0", "1", "2"), 0.4)
            g2 = random_graph(rng, int(rng.integers(2, 8)), ("0", "1", "2"), 0.4)
            pair = pad_pair(g1, g2)
            d, a, b = _arrays(pair, cm)
            k2 = cm.edge_cost_squared
            m = tuple(int(x) for x in rng.permutation(pair.order))
            cost = _score_mapping(d, a, b, m, k2)
            delta = _swap_deltas(d, a, b, np.array(m), k2)
            for i, j in itertools.combinations(range(pair.order), 2):
                assert delta[i, j] == delta[j, i] == _score_mapping(
                    d, a, b, _swapped(m, i, j), k2
                ) - cost

    def test_returns_a_local_optimum(self, rng):
        # no single swap of the result scores strictly below it, checked by
        # brute force over every swap, and its cost is its exact score
        for trial in range(60):
            cm = builtin_cost_model(("case1", "case2", "case3")[trial % 3])
            g1 = random_graph(rng, int(rng.integers(0, 8)), ("0", "1", "2"), 0.4)
            g2 = random_graph(rng, int(rng.integers(0, 8)), ("0", "1", "2"), 0.4)
            pair = pad_pair(g1, g2)
            d, a, b = _arrays(pair, cm)
            k2 = cm.edge_cost_squared
            start = tuple(int(x) for x in rng.permutation(pair.order))
            start_cost = _score_mapping(d, a, b, start, k2)
            mapping, cost = _swap_descent(d, a, b, start, start_cost, k2)
            assert cost == _score_mapping(d, a, b, mapping, k2) <= start_cost
            for i, j in itertools.combinations(range(pair.order), 2):
                assert _score_mapping(d, a, b, _swapped(mapping, i, j), k2) >= cost

    @pytest.mark.parametrize("n", [0, 1])
    def test_orders_below_two_return_the_input(self, n):
        d = np.full((n, n), 3.0)
        a = b = np.zeros((n, n))
        mapping = tuple(range(n))
        result = _swap_descent(d, a, b, mapping, 3.0 * n, 1.0)
        assert result[0] is mapping and result[1] == 3.0 * n


class TestObjectiveEquivalence:
    def test_edge_count_identity_exhaustive_small_orders(self, rng):
        # free node edits, squared edge cost 2: the raw alignment objective
        # counts edge edits exactly, for every mapping of every small pair
        cm = CostModel(edge_cost_squared=2.0, insert_default=0.0, delete_default=0.0)
        for _ in range(6):
            g1 = random_graph(rng, int(rng.integers(1, 5)), ("a", "b"))
            g2 = random_graph(rng, int(rng.integers(1, 5)), ("a", "b"))
            pair = pad_pair(g1, g2)
            a = adjacency(pair.g1, pair.order)
            b = adjacency(pair.g2, pair.order)
            for mapping in itertools.permutations(range(pair.order)):
                perm = Permutation(mapping)
                p = perm.matrix()
                r = a @ p - p @ b
                assert float(np.sum(r * r)) == ged_under_mapping(pair, perm, cm)

    def test_objective_at_permutation_equals_accounting(self, rng):
        # the relaxed objective evaluated at any permutation matrix must agree
        # with the exact edit accounting (no regularizer)
        settings = ["case1", "case2", "case3"]
        for trial in range(30):
            cm = builtin_cost_model(settings[trial % 3])
            g1 = random_graph(rng, int(rng.integers(1, 8)), ("0", "1", "2", "3"))
            g2 = random_graph(rng, int(rng.integers(1, 8)), ("0", "1", "2", "3"))
            pair = pad_pair(g1, g2)
            kappa = np.sqrt(cm.edge_cost_squared)
            a, b = kappa * adjacency(pair.g1, pair.order), kappa * adjacency(pair.g2, pair.order)
            d = build_cost_matrix(pair, cm)
            perm = Permutation(tuple(int(x) for x in rng.permutation(pair.order)))
            lhs = objective(a, b, d, perm.matrix(), 0.0)
            rhs = ged_under_mapping(pair, perm, cm)
            assert abs(lhs - rhs) <= 1e-9
