"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from gedalign import load_graph, make_graph, save_graph
from gedalign.cli import (
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SOLVER,
    build_parser,
    main,
    _solver_config,
)


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    triangle = make_graph(["x", "x", "x"], [(0, 1), (1, 2), (0, 2)])
    path3 = make_graph(["x", "x", "x"], [(0, 1), (1, 2)])
    big = make_graph(["a"] * 12, [])
    for name, g in (("triangle", triangle), ("path3", path3), ("big", big)):
        p = tmp_path / f"{name}.json"
        p.write_text(save_graph(g), encoding="utf-8")
        paths[name] = str(p)
    return paths


class TestEstimate:
    def test_same_file_twice_is_zero(self, graph_files, capsys):
        code = main(["estimate", graph_files["triangle"], graph_files["triangle"], "--cost", "case3"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimated_ged"] == 0.0
        assert doc["converged_reason"]
        assert "lower_bound" in doc
        assert doc["edit_path"]["ops"] == []

    def test_triangle_vs_path(self, graph_files, capsys):
        code = main(["estimate", graph_files["triangle"], graph_files["path3"], "--cost", "case3"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimated_ged"] == doc["lower_bound"] == 1.0
        assert len(doc["mapping"]) == 3
        assert doc["trace"][0]["lambda"] == 0.0

    def test_missing_file(self, graph_files, capsys):
        code = main(["estimate", "/nonexistent.json", graph_files["path3"]])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_invalid_graph_file(self, tmp_path, graph_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes":[{"id":0,"label":"a"}],"edges":[[0,0]]}')
        code = main(["estimate", str(bad), graph_files["path3"]])
        assert code == EXIT_INPUT

    def test_unknown_cost_setting(self, graph_files):
        code = main(["estimate", graph_files["triangle"], graph_files["path3"], "--cost", "case7"])
        assert code == EXIT_INPUT

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # the ranked substitution rule needs integer labels; failing that is a
        # solve-time error, not an input parse error
        from gedalign import make_graph as mk, save_graph as sv
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(sv(mk(["x"], [])))
        b.write_text(sv(mk(["y"], [])))
        code = main(["estimate", str(a), str(b), "--cost", "case2"])
        assert code == EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_cost_file(self, tmp_path, graph_files, capsys):
        costs = tmp_path / "costs.json"
        costs.write_text(
            json.dumps(
                {
                    "edge_cost_squared": 1.0,
                    "node_insert": {"default": 2.0},
                    "node_delete": {"default": 2.0},
                    "node_substitute": {"default": 0.0},
                }
            )
        )
        code = main(["estimate", graph_files["triangle"], graph_files["path3"], "--cost", f"file:{costs}"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["estimated_ged"] == 1.0

    def test_malformed_cost_file(self, tmp_path, graph_files, capsys):
        costs = tmp_path / "costs.json"
        costs.write_text(
            json.dumps(
                {
                    "edge_cost_squared": "1",
                    "node_insert": {"default": 2.0},
                    "node_delete": {"default": 2.0},
                }
            )
        )
        code = main(["estimate", graph_files["triangle"], graph_files["triangle"], "--cost", f"file:{costs}"])
        assert code == EXIT_INPUT
        assert "edge_cost_squared" in capsys.readouterr().err

    def test_cost_past_float_range(self, tmp_path, graph_files, capsys):
        costs = tmp_path / "costs.json"
        costs.write_text(
            json.dumps(
                {
                    "edge_cost_squared": 10**400,
                    "node_insert": {"default": 2.0},
                    "node_delete": {"default": 2.0},
                }
            )
        )
        code = main(["estimate", graph_files["triangle"], graph_files["path3"], "--cost", f"file:{costs}"])
        assert code == EXIT_INPUT
        assert "float range" in capsys.readouterr().err

    def test_out_file(self, graph_files, tmp_path):
        out = tmp_path / "report.json"
        code = main(["estimate", graph_files["triangle"], graph_files["path3"], "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["estimated_ged"] == 1.0


class TestExact:
    def test_identical(self, graph_files, capsys):
        code = main(["exact", graph_files["triangle"], graph_files["triangle"], "--cost", "case3"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ged"] == 0.0

    def test_triangle_vs_path(self, graph_files, capsys):
        code = main(["exact", graph_files["triangle"], graph_files["path3"], "--cost", "case3"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ged"] == 1.0
        assert [op["kind"] for op in doc["edit_path"]["ops"]] == ["edge_delete"]

    def test_budget_refusal(self, graph_files, capsys):
        code = main(["exact", graph_files["big"], graph_files["big"]])
        assert code == EXIT_BUDGET
        assert "refused" in capsys.readouterr().err


# edit paths of the 1- and 3-node graphs below under case1, as the CLI printed
# them when padding was still stored as labelled nodes
PADDED_PATHS = {
    ("one", "three"): (
        '{"ops": [{"cost": 0.0, "from_label": "a", "kind": "node_substitute", "node": 0, '
        '"target": 0, "to_label": "b"}, {"cost": 3.0, "kind": "node_insert", "label": "a", '
        '"target": 1}, {"cost": 3.0, "kind": "node_insert", "label": "b", "target": 2}, '
        '{"cost": 2.0, "kind": "edge_insert", "node_a": 0, "node_b": 1, "target_a": 0, '
        '"target_b": 1}, {"cost": 2.0, "kind": "edge_insert", "node_a": 1, "node_b": 2, '
        '"target_a": 1, "target_b": 2}], "total_cost": 10.0}'
    ),
    ("three", "one"): (
        '{"ops": [{"cost": 0.0, "from_label": "b", "kind": "node_substitute", "node": 0, '
        '"target": 0, "to_label": "a"}, {"cost": 1.0, "kind": "node_delete", "label": "a", '
        '"node": 1}, {"cost": 1.0, "kind": "node_delete", "label": "b", "node": 2}, '
        '{"cost": 2.0, "kind": "edge_delete", "node_a": 0, "node_b": 1}, {"cost": 2.0, '
        '"kind": "edge_delete", "node_a": 1, "node_b": 2}], "total_cost": 6.0}'
    ),
}


class TestPaddingFlags:
    @pytest.mark.parametrize("command", ["estimate", "exact"])
    @pytest.mark.parametrize("first, second", sorted(PADDED_PATHS))
    def test_flags_mark_indices_past_each_order(self, tmp_path, capsys, command, first, second):
        graphs = {
            "one": make_graph(["a"], []),
            "three": make_graph(["b", "a", "b"], [(0, 1), (1, 2)]),
        }
        paths = {}
        for name, g in graphs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(save_graph(g), encoding="utf-8")
        code = main([command, str(paths[first]), str(paths[second]), "--cost", "case1"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        n1, n2 = graphs[first].order, graphs[second].order
        assert [row["from"] for row in doc["mapping"]] == [0, 1, 2]
        for row in doc["mapping"]:
            assert row["from_dummy"] is (row["from"] >= n1)
            assert row["to_dummy"] is (row["to"] >= n2)
        assert json.dumps(doc["edit_path"], sort_keys=True) == PADDED_PATHS[(first, second)]


class TestGenAndBench:
    def test_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(["gen", "--seed", "7", "--count", "10", "--n-min", "3", "--n-max", "5",
                     "--edits-max", "1", "--out", str(corpus)])
        assert code == EXIT_OK
        capsys.readouterr()
        out_prefix = tmp_path / "report"
        code = main(["bench", str(corpus), "--cost", "case3", "--out", str(out_prefix)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == 10
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 11
        agg = json.loads((tmp_path / "report.json").read_text())
        assert agg["pairs"] == 10 and agg["failures"] == 0

    def test_gen_is_reproducible(self, tmp_path, capsys):
        args = ["gen", "--seed", "9", "--count", "4", "--n-min", "3", "--n-max", "4", "--out"]
        assert main(args + [str(tmp_path / "one")]) == EXIT_OK
        assert main(args + [str(tmp_path / "two")]) == EXIT_OK
        capsys.readouterr()
        one = sorted((tmp_path / "one").rglob("*.json"))
        two = sorted((tmp_path / "two").rglob("*.json"))
        assert [p.name for p in one] == [p.name for p in two]
        for a, b in zip(one, two):
            assert a.read_bytes() == b.read_bytes()

    def test_bench_invalid_corpus(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path), "--cost", "case3"])
        assert code == EXIT_INPUT

    def test_bench_non_finite_truth(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "3", "--count", "2", "--n-min", "3", "--n-max", "4", "--out", str(corpus)])
        index = json.loads((corpus / "index.json").read_text())
        index["cases"][0]["true_ged"] = float("nan")
        (corpus / "index.json").write_text(json.dumps(index))
        capsys.readouterr()
        code = main(["bench", str(corpus), "--cost", "case3", "--out", str(tmp_path / "report")])
        assert code == EXIT_INPUT
        assert "'true_ged'" in capsys.readouterr().err

    def test_generated_graphs_load_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "3", "--count", "3", "--out", str(corpus)])
        capsys.readouterr()
        for path in sorted((corpus / "graphs").glob("*.json")):
            load_graph(path.read_text())


class TestFlagWiring:
    def test_ablation_flags_map_to_config(self):
        parser = build_parser()
        args = parser.parse_args(
            ["estimate", "a.json", "b.json",
             "--mu", "2.0", "--alpha", "0.01", "--lambda-step", "0",
             "--patience", "5", "--sigma-cap", "100"]
        )
        cfg = _solver_config(args)
        assert cfg.mu == 2.0
        assert cfg.alpha == 0.01
        assert cfg.lambda_step == 0.0
        assert cfg.patience == 5
        assert cfg.sigma_cap == 100.0

    def test_defaults_match_solver_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["estimate", "a.json", "b.json"])
        from gedalign import SolverConfig

        assert _solver_config(args) == SolverConfig()
