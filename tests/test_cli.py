"""End-to-end command-line behavior and exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gedalign
import gedalign.bench as bench_module
import gedalign.cli as cli_module
from gedalign import load_corpus, load_graph, make_graph, save_graph, write_corpus
from gedalign.bench import PairCase
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


def _must_not_solve(*args, **kwargs):
    raise AssertionError("solved before --out was checked")


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

    def test_graph_nested_past_the_recursion_limit(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code = main(["estimate", str(deep), str(deep)])
        assert code == EXIT_INPUT
        assert "graph JSON parse error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("out", ["missing/report.json", "taken"])
    def test_unwritable_out_fails_before_the_solve(self, graph_files, tmp_path, monkeypatch, capsys, out):
        # a missing directory, and an existing directory used as the file
        (tmp_path / "taken").mkdir()
        monkeypatch.setattr(cli_module, "estimate_ged", _must_not_solve)
        args = ["estimate", graph_files["triangle"], graph_files["path3"], "--out", str(tmp_path / out)]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: [Errno ")


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

    def test_missing_file(self, graph_files, capsys):
        code = main(["exact", "/nonexistent.json", graph_files["path3"]])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_solver_error_exit_code(self, tmp_path, capsys):
        # case2 ranks substitutions by integer label id, which "x" is not
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(save_graph(make_graph(["x"], [])))
        b.write_text(save_graph(make_graph(["y"], [])))
        assert main(["exact", str(a), str(b), "--cost", "case2"]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver error: label 'x' is not an integer id")

    @pytest.mark.parametrize("out", ["missing/report.json", "taken"])
    def test_unwritable_out_fails_before_the_solve(self, graph_files, tmp_path, monkeypatch, capsys, out):
        (tmp_path / "taken").mkdir()
        monkeypatch.setattr(cli_module, "exact_ged", _must_not_solve)
        args = ["exact", graph_files["triangle"], graph_files["path3"], "--out", str(tmp_path / out)]
        assert main(args) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: [Errno ")

    def test_out_file(self, graph_files, tmp_path):
        out = tmp_path / "exact.json"
        code = main(["exact", graph_files["triangle"], graph_files["path3"], "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["ged"] == 1.0


# edit paths of the 1- and 3-node graphs below under case1, as the CLI printed
# them when padding was still stored as labelled nodes; ``estimate`` certifies
# the same optimal mapping as ``exact`` at its first Frank–Wolfe step
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
        header = csv_lines[0].split(",")
        assert header[-4:] == ["inner_steps", "certified", "error", "wall_ms"]
        certified = [line.split(",")[header.index("certified")] for line in csv_lines[1:]]
        assert set(certified) <= {"0", "1"}
        agg = json.loads((tmp_path / "report.json").read_text())
        assert agg["pairs"] == 10 and agg["failures"] == 0
        assert agg["certified_share"] == certified.count("1") / 10

    def test_dotted_prefix_keeps_its_name(self, tmp_path, capsys):
        # with_suffix would write "out/run.csv" for both "out/run.v1" and "out/run.v2"
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "3", "--count", "2", "--n-min", "3", "--n-max", "4", "--out", str(corpus)])
        for prefix in ("run.v1", "run.v2"):
            code = main(["bench", str(corpus), "--cost", "case3", "--out", str(tmp_path / "out" / prefix)])
            assert code == EXIT_OK
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["run.v1.csv", "run.v1.json", "run.v2.csv", "run.v2.json"]

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

    @pytest.mark.parametrize("out", [".", "", "taken.csv/report", "report"])
    def test_bad_output_prefix_fails_before_any_pair_is_solved(self, tmp_path, monkeypatch, capsys, out):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "3", "--count", "2", "--n-min", "3", "--n-max", "4", "--out", str(corpus)])
        (tmp_path / "taken.csv").write_text("")  # a file where a directory is needed
        (tmp_path / "report.json").mkdir()  # a directory where a file is needed
        monkeypatch.chdir(tmp_path)
        solved = []
        monkeypatch.setattr(bench_module, "estimate_ged", lambda *args: solved.append(args))
        capsys.readouterr()
        code = main(["bench", str(corpus), "--cost", "case3", "--out", out])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")
        assert solved == []

    def test_failing_pair_keeps_its_row_and_error(self, tmp_path, capsys):
        # case2 prices a substitution by label distance, so a pair with
        # non-integer labels fails alone and the run goes on
        cases = [
            PairCase("ints", make_graph(["1", "2"], [(0, 1)]), make_graph(["1", "3"], [])),
            PairCase("words", make_graph(["x", "y"], [(0, 1)]), make_graph(["x", "z"], [])),
        ]
        write_corpus(cases, tmp_path / "corpus")
        out = tmp_path / "report"
        code = main(["bench", str(tmp_path / "corpus"), "--cost", "case2", "--out", str(out)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == 2 and summary["failures"] == 1
        lines = (tmp_path / "report.csv").read_text().splitlines()
        rows = {row["id"]: row for row in csv.DictReader(lines)}
        assert rows["ints"]["error"] == "" and rows["ints"]["estimated_ged"]
        assert rows["words"]["estimated_ged"] == ""
        assert rows["words"]["error"].startswith("CostModelError: label 'x' is not an integer id")

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

    def test_bench_defaults_to_the_cost_the_corpus_records(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "5", "--count", "6", "--n-min", "3", "--n-max", "5",
              "--cost", "case1", "--out", str(corpus)])
        assert main(["bench", str(corpus), "--out", str(tmp_path / "default")]) == EXIT_OK
        assert main(["bench", str(corpus), "--cost", "case1", "--out", str(tmp_path / "case1")]) == EXIT_OK
        capsys.readouterr()

        def rows(name):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            return [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(lines)]

        assert rows("default") == rows("case1") and len(rows("default")) == 6

    def test_bench_refuses_a_cost_other_than_the_recorded_one(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "5", "--count", "2", "--n-min", "3", "--n-max", "4",
              "--cost", "case1", "--out", str(corpus)])
        capsys.readouterr()
        code = main(["bench", str(corpus), "--cost", "case3", "--out", str(tmp_path / "report")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "case3" in err and "case1" in err
        assert not (tmp_path / "report.csv").exists()

    def test_gen_refuses_nan_edge_probability(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(["gen", "--seed", "3", "--count", "2", "--edge-prob", "nan", "--out", str(corpus)])
        assert code == EXIT_INPUT
        assert "edge probability" in capsys.readouterr().err
        assert not (corpus / "index.json").exists()

    def test_gen_refuses_n_max_above_max_order(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(["gen", "--seed", "1", "--count", "3", "--n-min", "6", "--n-max", "7",
                     "--max-order", "4", "--out", str(corpus)])
        assert code == EXIT_INPUT
        assert "max order" in capsys.readouterr().err
        assert not (corpus / "index.json").exists()

    def test_gen_applies_every_drawn_edit_to_a_tiny_graph(self, tmp_path, capsys):
        # graphs of order 0 and 1 under one label: most draws cannot apply,
        # so an edit can take many tries
        corpus = tmp_path / "corpus"
        code = main(["gen", "--seed", "5", "--count", "5", "--n-min", "0", "--n-max", "1",
                     "--edits-min", "1", "--edits-max", "4", "--labels", "a", "--max-order", "1",
                     "--out", str(corpus)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == f"wrote 5 cases to {corpus}\n"
        assert len(load_corpus(corpus)) == 5

    def test_gen_refuses_edits_under_max_order_zero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(["gen", "--seed", "1", "--count", "2", "--n-min", "0", "--n-max", "0",
                     "--edits-min", "1", "--max-order", "0", "--out", str(corpus)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: case 0: no edit applies to an empty graph of max order 0\n"
        )
        assert not (corpus / "index.json").exists()

    def test_generated_graphs_load_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen", "--seed", "3", "--count", "3", "--out", str(corpus)])
        capsys.readouterr()
        for path in sorted((corpus / "graphs").glob("*.json")):
            load_graph(path.read_text())


def _run_estimate(graph_files, env):
    src = Path(gedalign.__file__).resolve().parents[1]
    env = dict(env, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "gedalign.cli", "estimate", graph_files["triangle"], graph_files["path3"]],
        env=env, capture_output=True, text=True,
    )


class TestLogging:
    # logging.basicConfig configures a process once, so each run gets its own
    def test_trace_logs_one_line_per_round(self, graph_files):
        run = _run_estimate(graph_files, dict(os.environ, GED_LOG="trace"))
        assert run.returncode == EXIT_OK, run.stderr
        trace = json.loads(run.stdout)["trace"]
        lines = run.stderr.splitlines()
        assert len(lines) == len(trace) >= 1
        for line, rec in zip(lines, trace):
            assert line.startswith(f"gedalign.solver: round {rec['round']}: ")

    def test_silent_without_ged_log(self, graph_files):
        env = {k: v for k, v in os.environ.items() if k != "GED_LOG"}
        run = _run_estimate(graph_files, env)
        assert run.returncode == EXIT_OK
        assert run.stderr == ""
        assert json.loads(run.stdout)["trace"]


class TestFlagWiring:
    def test_ablation_flags_map_to_config(self):
        parser = build_parser()
        args = parser.parse_args(["estimate", "a.json", "b.json", "--lambda-step", "0"])
        cfg = _solver_config(args)
        assert cfg.lambda_step == 0.0

    @pytest.mark.parametrize("flag", ["--alpha", "--sigma-cap", "--mu", "--patience"])
    def test_optimizer_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "a.json", "b.json", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_defaults_match_solver_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["estimate", "a.json", "b.json"])
        from gedalign import SolverConfig

        assert _solver_config(args) == SolverConfig()
