"""Cost settings, cost files, and the node-cost matrix."""

import json

import numpy as np
import pytest

from gedalign import (
    CostModel,
    CostModelError,
    Permutation,
    build_cost_matrix,
    builtin_cost_model,
    load_cost_model,
    pad_pair,
)
from conftest import graph, random_graph


class TestBuiltinSettings:
    def test_case1_values(self):
        cm = builtin_cost_model("case1")
        assert cm.node_insert_cost("x") == 3.0
        assert cm.node_delete_cost("x") == 1.0
        assert cm.node_substitute_cost("x", "y") == 0.0
        assert cm.edge_cost_squared == 2.0

    def test_case3_values(self):
        cm = builtin_cost_model("case3")
        assert cm.node_insert_cost("x") == 1.0
        assert cm.node_delete_cost("x") == 1.0
        assert cm.node_substitute_cost("x", "y") == 0.0
        assert cm.edge_cost_squared == 1.0

    def test_unknown_setting(self):
        with pytest.raises(CostModelError, match="unknown cost setting"):
            builtin_cost_model("case9")

    def test_case2_nearest_neighbor_example(self):
        # label "6" is nearest to "5" within {"4","5","6","9"} once "5" itself
        # is excluded: candidate distances are {4:1, 6:1, 9:4}, minimum 1.
        cm = builtin_cost_model("case2")
        pool = {"4", "5", "6", "9"}
        assert cm.node_substitute_cost("5", "6", pool) == 1.0
        assert cm.node_substitute_cost("5", "4", pool) == 1.0  # tie counts as nearest
        assert cm.node_substitute_cost("5", "9", pool) == 2.0

    @pytest.mark.parametrize("pool", [{"5"}, set()])
    def test_case2_pool_without_another_label(self, pool):
        # no candidate to rank the target against: every substitution costs 2
        cm = builtin_cost_model("case2")
        assert cm.node_substitute_cost("5", "6", pool) == 2.0

    def test_case2_identical_labels_free(self):
        cm = builtin_cost_model("case2")
        assert cm.node_substitute_cost("7", "7", {"7", "9"}) == 0.0

    def test_case2_requires_integer_labels(self):
        cm = builtin_cost_model("case2")
        with pytest.raises(CostModelError, match="integer"):
            cm.node_substitute_cost("a", "b", {"a", "b"})

    def test_case2_requires_pool(self):
        cm = builtin_cost_model("case2")
        with pytest.raises(CostModelError, match="pool"):
            cm.node_substitute_cost("1", "2")


class TestCostModelValidation:
    def test_rejects_nonpositive_edge_cost(self):
        with pytest.raises(CostModelError, match="edge_cost_squared"):
            CostModel(edge_cost_squared=0.0, insert_default=1.0, delete_default=1.0)

    def test_rejects_negative_costs(self):
        with pytest.raises(CostModelError, match="nonnegative"):
            CostModel(edge_cost_squared=1.0, insert_default=-1.0, delete_default=1.0)

    def test_rejects_nonzero_identical_substitution(self):
        with pytest.raises(CostModelError, match="identical label"):
            CostModel(
                edge_cost_squared=1.0,
                insert_default=1.0,
                delete_default=1.0,
                substitute_costs={("a", "a"): 2.0},
            )


class TestLoadCostModel:
    def test_uniform_model(self):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 2.0},
            "node_delete": {"default": 2.0},
            "node_substitute": {"default": 0.0},
        }
        cm = load_cost_model(json.dumps(doc))
        assert cm.node_insert_cost("anything") == 2.0
        assert cm.node_delete_cost("anything") == 2.0
        assert cm.edge_cost_squared == 1.0

    def test_nesting_past_the_recursion_limit_is_error(self):
        # the decoder recurses once per open bracket
        with pytest.raises(CostModelError, match="parse error"):
            load_cost_model('{"edge_cost_squared": ' + "[" * 100_000)

    def test_integer_past_the_digit_limit_is_error(self):
        # json refuses to convert an integer literal of more than 4300 digits
        text = '{"edge_cost_squared": 1' + "0" * 5000 + "}"
        with pytest.raises(CostModelError, match="parse error"):
            load_cost_model(text)

    def test_missing_edge_cost_is_error(self):
        doc = {"node_insert": {"default": 1.0}, "node_delete": {"default": 1.0}}
        with pytest.raises(CostModelError, match="edge_cost_squared"):
            load_cost_model(json.dumps(doc))

    def test_substitution_pair_lookup(self):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            "node_substitute": {"default": 9.0, "pairs": [["C", "N", 1.0]]},
        }
        cm = load_cost_model(json.dumps(doc))
        assert cm.node_substitute_cost("C", "N") == 1.0
        assert cm.node_substitute_cost("N", "C") == 9.0  # pairs are ordered

    def test_per_label_overrides(self):
        doc = {
            "edge_cost_squared": 2.0,
            "node_insert": {"default": 1.0, "C": 3.0},
            "node_delete": {"default": 1.0, "C": 2.0},
            "node_substitute": {"default": 0.0},
        }
        cm = load_cost_model(json.dumps(doc))
        assert cm.node_insert_cost("C") == 3.0
        assert cm.node_insert_cost("O") == 1.0
        assert cm.node_delete_cost("C") == 2.0

    def test_negative_cost_rejected(self):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": -2.0},
            "node_delete": {"default": 1.0},
        }
        with pytest.raises(CostModelError, match="nonnegative"):
            load_cost_model(json.dumps(doc))

    def test_identical_pair_with_cost_rejected(self):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            "node_substitute": {"default": 0.0, "pairs": [["a", "a", 1.0]]},
        }
        with pytest.raises(CostModelError, match="identical label"):
            load_cost_model(json.dumps(doc))

    def test_missing_default_rejected(self):
        doc = {"edge_cost_squared": 1.0, "node_insert": {}, "node_delete": {"default": 1}}
        with pytest.raises(CostModelError, match="node_insert"):
            load_cost_model(json.dumps(doc))

    def test_parse_error(self):
        with pytest.raises(CostModelError, match="parse error"):
            load_cost_model(b"{broken")

    def test_bytes_not_utf8(self):
        with pytest.raises(CostModelError, match="parse error"):
            load_cost_model(b"\xff{}")

    @pytest.mark.parametrize(
        "edge_cost", ["1", None, True, [1.0], pytest.param(10**400, id="int-past-float-range")]
    )
    def test_edge_cost_must_be_a_number(self, edge_cost):
        doc = {
            "edge_cost_squared": edge_cost,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
        }
        with pytest.raises(CostModelError, match="edge_cost_squared"):
            load_cost_model(json.dumps(doc))

    @pytest.mark.parametrize("section", ["node_insert", "node_delete"])
    def test_default_past_float_range(self, section):
        # json.loads reads a 401-digit literal as an exact int; float() of it
        # overflows
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
        }
        doc[section]["default"] = 10**400
        with pytest.raises(CostModelError, match=r"_default: cost must be nonnegative and at most 1e\+100"):
            load_cost_model(json.dumps(doc))

    @pytest.mark.parametrize("pairs", [5, None, 1.5, True])
    def test_substitution_pairs_must_be_a_list(self, pairs):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            "node_substitute": {"default": 0, "pairs": pairs},
        }
        with pytest.raises(CostModelError, match="pairs"):
            load_cost_model(json.dumps(doc))


    @pytest.mark.parametrize(
        "key, section",
        [
            # a misspelt section would leave every substitution free
            ("node_substitut", {"default": 5.0}),
            ("comment", "costs for the demo"),
            ("edge_cost", 2.0),
        ],
    )
    def test_unknown_top_level_key_rejected(self, key, section):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            key: section,
        }
        with pytest.raises(CostModelError, match=f"unknown cost document keys: \\['{key}'\\]"):
            load_cost_model(json.dumps(doc))

    @pytest.mark.parametrize("key", ["pair", "C", "Pairs"])
    def test_unknown_substitute_key_rejected(self, key):
        # a misspelt "pairs" would drop every pair; substitution has no
        # per-label costs, so a label key is refused as well
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            "node_substitute": {"default": 0.5, key: [["C", "N", 1.0]]},
        }
        with pytest.raises(CostModelError, match=f"unknown node_substitute keys: \\['{key}'\\]"):
            load_cost_model(json.dumps(doc))

    def test_repeated_substitution_pair_rejected(self):
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0},
            "node_delete": {"default": 1.0},
            "node_substitute": {
                "default": 0.5,
                "pairs": [["C", "N", 1.0], ["N", "C", 2.0], ["C", "N", 3.0]],
            },
        }
        with pytest.raises(CostModelError, match=r"pairs\[2\]: pair 'C' -> 'N' listed twice"):
            load_cost_model(json.dumps(doc))
        # the same pair in both directions is two pairs
        del doc["node_substitute"]["pairs"][2]
        cm = load_cost_model(json.dumps(doc))
        assert (cm.node_substitute_cost("C", "N"), cm.node_substitute_cost("N", "C")) == (1.0, 2.0)

    def test_per_label_keys_stay_valid(self):
        # any key besides "default" in node_insert and node_delete is a label
        doc = {
            "edge_cost_squared": 1.0,
            "node_insert": {"default": 1.0, "pairs": 4.0, "node_substitute": 5.0},
            "node_delete": {"default": 1.0, "comment": 6.0},
        }
        cm = load_cost_model(json.dumps(doc))
        assert cm.node_insert_cost("pairs") == 4.0
        assert cm.node_insert_cost("node_substitute") == 5.0
        assert cm.node_delete_cost("comment") == 6.0
        assert cm.node_substitute_cost("a", "b") == 0.0


class TestBuildCostMatrix:
    def test_dummy_row_gets_insert_costs(self):
        # one real "a" padded against {"a", "b"}: row 0 substitutes for free,
        # the padding row pays the insertion cost of each target label.
        pair = pad_pair(graph("a"), graph("ab"))
        d = build_cost_matrix(pair, builtin_cost_model("case1"))
        assert np.array_equal(d, [[0.0, 0.0], [3.0, 3.0]])

    def test_dummy_column_gets_delete_costs(self):
        pair = pad_pair(graph("ab"), graph("a"))
        d = build_cost_matrix(pair, builtin_cost_model("case1"))
        assert np.array_equal(d, [[0.0, 1.0], [0.0, 1.0]])

    def test_identical_graphs_zero_matrix(self):
        g = graph("abc", [(0, 1)])
        for setting in ("case1", "case3"):
            d = build_cost_matrix(pad_pair(g, g), builtin_cost_model(setting))
            assert not d.any()

    def test_entries_nonnegative(self, rng):
        for setting in ("case1", "case3"):
            cm = builtin_cost_model(setting)
            for _ in range(10):
                g1 = random_graph(rng, int(rng.integers(1, 7)), ("a", "b", "c"))
                g2 = random_graph(rng, int(rng.integers(1, 7)), ("a", "b", "c"))
                d = build_cost_matrix(pad_pair(g1, g2), cm)
                assert (d >= 0).all() and np.isfinite(d).all()

    def test_case2_label_parse_error_at_construction(self):
        pair = pad_pair(graph(["one"]), graph(["two"]))
        with pytest.raises(CostModelError, match="integer"):
            build_cost_matrix(pair, builtin_cost_model("case2"))

    def test_trace_form_matches_mapping_sum(self, rng):
        # tr(P^T D) must equal the per-node cost sum of the mapping.
        cm = builtin_cost_model("case1")
        for _ in range(20):
            n = int(rng.integers(1, 7))
            g1 = random_graph(rng, n, ("a", "b", "c"))
            g2 = random_graph(rng, n, ("a", "b", "c"))
            d = build_cost_matrix(pad_pair(g1, g2), cm)
            perm = Permutation(tuple(int(x) for x in rng.permutation(n)))
            p = perm.matrix()
            trace_form = float(np.trace(p.T @ d))
            direct = sum(d[i, perm.mapping[i]] for i in range(n))
            assert trace_form == pytest.approx(direct, abs=1e-12)
