"""Graph model, validation, pairing, adjacency, and JSON round-trips."""

import json

import numpy as np
import pytest

from gedalign import (
    GraphFormatError,
    LabeledGraph,
    adjacency,
    load_graph,
    make_graph,
    pad_pair,
    save_graph,
)
from conftest import graph, random_graph


def _two_nodes(edges) -> str:
    nodes = [{"id": 0, "label": "a"}, {"id": 1, "label": "b"}]
    return json.dumps({"nodes": nodes, "edges": edges})


class TestLoadGraph:
    def test_minimal_graph(self):
        g = load_graph('{"nodes":[{"id":0,"label":"a"}],"edges":[]}')
        assert g.order == 1
        assert g.labels == ("a",)
        assert g.edges == ()

    def test_two_nodes_one_edge(self):
        g = load_graph('{"nodes":[{"id":0,"label":"a"},{"id":1,"label":"b"}],"edges":[[0,1]]}')
        assert g.order == 2
        assert g.edges == ((0, 1),)

    def test_accepts_bytes_and_streams(self, tmp_path):
        text = '{"nodes":[{"id":0,"label":"a"}],"edges":[]}'
        assert load_graph(text.encode()) == load_graph(text)
        path = tmp_path / "g.json"
        path.write_text(text)
        with open(path, "rb") as handle:
            assert load_graph(handle) == load_graph(text)

    def test_integer_past_the_digit_limit_rejected(self):
        # json refuses to convert an integer literal of more than 4300 digits
        text = '{"nodes":[{"id":1' + "0" * 5000 + ',"label":"a"}],"edges":[]}'
        with pytest.raises(GraphFormatError, match="parse error"):
            load_graph(text)

    def test_nesting_past_the_recursion_limit_rejected(self):
        # the decoder recurses once per open bracket
        with pytest.raises(GraphFormatError, match="parse error"):
            load_graph("[" * 100_000)

    def test_repeated_key_rejected(self):
        # json.loads alone keeps the last value of a repeated key
        text = '{"nodes":[{"id":0,"label":"a"}],"edges":[],"edges":[[0,0]]}'
        with pytest.raises(GraphFormatError, match="parse error: repeated key 'edges'"):
            load_graph(text)

    def test_self_loop_rejected(self):
        doc = '{"nodes":[{"id":0,"label":"a"}],"edges":[[0,0]]}'
        with pytest.raises(GraphFormatError, match="edges\\[0\\].*self-loop"):
            load_graph(doc)

    def test_duplicate_edge_rejected(self):
        doc = '{"nodes":[{"id":0,"label":"a"},{"id":1,"label":"b"}],"edges":[[0,1],[1,0]]}'
        with pytest.raises(GraphFormatError, match="edges\\[1\\].*duplicate"):
            load_graph(doc)

    def test_out_of_range_endpoint_rejected(self):
        doc = '{"nodes":[{"id":0,"label":"a"}],"edges":[[0,3]]}'
        with pytest.raises(GraphFormatError, match="edges\\[0\\].*out of range"):
            load_graph(doc)

    def test_non_contiguous_ids_rejected(self):
        doc = '{"nodes":[{"id":0,"label":"a"},{"id":2,"label":"b"}],"edges":[]}'
        with pytest.raises(GraphFormatError, match="nodes\\[1\\]"):
            load_graph(doc)

    def test_parse_error_reported(self):
        with pytest.raises(GraphFormatError, match="parse error"):
            load_graph("{nope")

    def test_bytes_not_utf8_reported(self):
        with pytest.raises(GraphFormatError, match="parse error"):
            load_graph(b"\xff{}")

    @pytest.mark.parametrize(
        "doc, match",
        [
            ("[]", "must be a JSON object"),
            ('{"nodes":{},"edges":[]}', "'nodes' must be an array"),
            ('{"nodes":[],"edges":{}}', "'edges' must be an array"),
            ('{"nodes":["a"],"edges":[]}', "nodes\\[0\\]: expected an object"),
            ('{"nodes":[{"id":"0","label":"a"}],"edges":[]}', "nodes\\[0\\]: 'id' must be"),
            ('{"nodes":[{"id":0.0,"label":"a"}],"edges":[]}', "nodes\\[0\\]: 'id' must be"),
            ('{"nodes":[{"id":0,"label":1}],"edges":[]}', "nodes\\[0\\]: 'label' must be"),
            (_two_nodes([[0]]), "edges\\[0\\]: expected a pair of integer node ids"),
            (_two_nodes([[0, 1.0]]), "edges\\[0\\]: expected a pair of integer node ids"),
            (_two_nodes([[0, True]]), "edges\\[0\\]: expected a pair of integer node ids"),
            (_two_nodes(["01"]), "edges\\[0\\]: expected a pair of integer node ids"),
        ],
        ids=[
            "not_object", "nodes_not_array", "edges_not_array", "node_not_object",
            "id_string", "id_float", "label_not_string",
            "edge_single", "edge_float", "edge_bool", "edge_not_array",
        ],
    )
    def test_malformed_document_rejected(self, doc, match):
        with pytest.raises(GraphFormatError, match=match):
            load_graph(doc)

    def test_missing_sections_rejected(self):
        with pytest.raises(GraphFormatError, match="'edges'"):
            load_graph('{"nodes":[]}')
        with pytest.raises(GraphFormatError, match="'nodes'"):
            load_graph('{"edges":[]}')


class TestRoundTrip:
    def test_save_load_identity(self, rng):
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(0, 9)), ("a", "b", "c"))
            assert load_graph(save_graph(g)) == g

    def test_serialization_is_canonical(self):
        g = make_graph(["b", "a"], [(1, 0)])
        text = save_graph(g)
        assert save_graph(load_graph(text)) == text
        assert '"edges"' in text and text.index('"edges"') < text.index('"nodes"')

    def test_epsilon_is_a_plain_label(self):
        doc = json.dumps({"nodes": [{"id": 0, "label": "ε"}, {"id": 1, "label": "a"}],
                          "edges": [[0, 1]]})
        g = load_graph(doc)
        assert g.labels == ("ε", "a")
        assert load_graph(save_graph(g)) == g


class TestPadPair:
    def test_smaller_side_gains_dummies(self):
        g1, g2 = graph("a"), graph("xyz")
        pair = pad_pair(g1, g2)
        assert pair.order == 3
        assert pair.g1 == g1 and pair.g2 == g2
        assert pad_pair(g2, g1).order == 3

    def test_equal_orders_unchanged(self):
        g1, g2 = graph("abc"), graph("xyz")
        pair = pad_pair(g1, g2)
        assert pair.g1 == g1 and pair.g2 == g2

    def test_empty_graph_becomes_all_dummies(self):
        g1, g2 = graph(""), graph("ab", [(0, 1)])
        pair = pad_pair(g1, g2)
        assert pair.order == 2
        assert pair.g1 == g1
        assert not adjacency(pair.g1, pair.order).any()

    def test_dummies_are_isolated_and_trailing(self, rng):
        for _ in range(20):
            g1 = random_graph(rng, int(rng.integers(0, 7)), ("a", "b"))
            g2 = random_graph(rng, int(rng.integers(0, 7)), ("a", "b"))
            pair = pad_pair(g1, g2)
            assert pair.g1 is g1 and pair.g2 is g2
            assert pair.order == max(g1.order, g2.order)


class TestAdjacency:
    def test_single_edge(self):
        a = adjacency(graph("ab", [(0, 1)]), 2)
        assert np.array_equal(a, [[0.0, 1.0], [1.0, 0.0]])

    def test_empty_graph_is_zero_matrix(self):
        assert np.array_equal(adjacency(graph("abc"), 3), np.zeros((3, 3)))

    def test_triangle_all_off_diagonal(self):
        a = adjacency(graph("abc", [(0, 1), (1, 2), (0, 2)]), 3)
        assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))

    def test_symmetric_zero_diagonal_edge_count(self, rng):
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(0, 10)), ("a", "b", "c"))
            a = adjacency(g, g.order)
            assert np.array_equal(a, a.T)
            assert not np.any(np.diag(a))
            assert a.sum() == 2 * len(g.edges)

    def test_dummy_rows_are_zero(self):
        pair = pad_pair(graph("ab", [(0, 1)]), graph("abcd", [(0, 1), (2, 3)]))
        a = adjacency(pair.g1, pair.order)
        assert a.shape == (4, 4)
        assert np.array_equal(a[:2, :2], adjacency(pair.g1, 2))
        assert not a[2:, :].any() and not a[:, 2:].any()


class TestMakeGraph:
    def test_normalizes_edge_orientation(self):
        assert make_graph(["a", "b"], [(1, 0)]).edges == ((0, 1),)
        # numpy integers are stored as Python ints
        g = make_graph(["a", "b"], [(np.int64(1), np.int64(0))])
        assert g.edges == ((0, 1),) and {type(e) for e in g.edges[0]} == {int}

    def test_rejects_duplicate_in_either_orientation(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            make_graph(["a", "b"], [(0, 1), (1, 0)])

    @pytest.mark.parametrize(
        "edges, match",
        [
            (((1, 0),), "ordered"),
            (((0, 3),), "out of range"),
            (((1, 1),), "self-loop"),
            (((0, 1), (0, 1)), "duplicate"),
            (((1, 2), (0, 1)), "not sorted"),
            (((0.0, 1.0),), "must be ints"),
            (((np.int64(0), np.int64(1)),), "must be ints"),
            (((False, True),), "must be ints"),
        ],
        ids=[
            "ordered", "out_of_range", "self_loop", "duplicate", "unsorted",
            "float", "numpy_int", "bool",
        ],
    )
    def test_direct_constructor_validates(self, edges, match):
        with pytest.raises(GraphFormatError, match=match):
            LabeledGraph(labels=("a", "b", "c"), edges=edges)

    @pytest.mark.parametrize(
        "edge", [(0, 1.7), ("0", "1"), (True, 0)], ids=["float", "str", "bool"]
    )
    def test_rejects_non_integer_endpoints(self, edge):
        # accepted, each would become another edge or one that save_graph
        # writes and load_graph refuses
        with pytest.raises(GraphFormatError, match="edges\\[0\\]: expected a pair of integer"):
            make_graph(["a", "b"], [edge])

    def test_direct_constructor_rejects_non_string_label(self):
        with pytest.raises(GraphFormatError, match="labels\\[1\\]"):
            LabeledGraph(labels=("a", 2), edges=())

    def test_rejects_non_string_label(self):
        # such a graph would save to a document that load_graph refuses
        with pytest.raises(GraphFormatError, match="labels\\[0\\]: 1 is not a string"):
            make_graph([1, 2], [(0, 1)])
