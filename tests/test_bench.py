"""Corpus generation, batch evaluation, metrics, and report artifacts."""

import csv
import hashlib
import json

import pytest

import gedalign.bench as bench_module
from gedalign import (
    CorpusFormatError,
    GedError,
    GraphFormatError,
    builtin_cost_model,
    estimate_ged,
    exact_ged,
    generate_pairs,
    load_corpus,
    pad_pair,
    report_to_aggregate_json,
    report_to_csv,
    run_bench,
    write_corpus,
)
from gedalign.bench import BenchReport, BenchRow, PairCase
from gedalign.solver import CERTIFIED_OPTIMAL
from conftest import graph

CM3 = builtin_cost_model("case3")
ALPHABET = ("0", "1", "2", "3")


def small_corpus(seed=11, count=6, edits=(0, 2)):
    return generate_pairs(
        seed=seed,
        count=count,
        n_range=(3, 6),
        edit_range=edits,
        label_alphabet=ALPHABET,
        cm=CM3,
        max_order=7,
    )


class TestGeneratePairs:
    def test_zero_edits_give_zero_truth(self):
        cases = small_corpus(seed=3, edits=(0, 0))
        assert all(case.true_ged == 0.0 for case in cases)
        assert all(case.applied_edits == 0 for case in cases)

    def test_fixed_seed_reproduces_cases(self):
        assert small_corpus(seed=42) == small_corpus(seed=42)

    def test_different_seeds_differ(self):
        assert small_corpus(seed=1) != small_corpus(seed=2)

    def test_truth_bounded_by_applied_cost(self):
        for case in small_corpus(seed=9, count=20, edits=(0, 4)):
            assert case.true_ged is not None
            assert case.applied_cost is not None
            assert case.true_ged <= case.applied_cost + 1e-9

    def test_respects_max_order(self):
        cases = generate_pairs(
            seed=5,
            count=15,
            n_range=(6, 6),
            edit_range=(3, 3),
            label_alphabet=ALPHABET,
            cm=CM3,
            max_order=6,
        )
        assert all(case.g1.order <= 6 and case.g2.order <= 6 for case in cases)

    def test_truth_omitted_beyond_oracle_budget(self):
        cases = generate_pairs(
            seed=5,
            count=3,
            n_range=(10, 11),
            edit_range=(0, 0),
            label_alphabet=ALPHABET,
            cm=CM3,
        )
        assert all(case.true_ged is None for case in cases)
        assert all(case.applied_cost == 0.0 for case in cases)

    def test_single_edge_deletion_truth(self):
        # removing one edge always breaks isomorphism, so the truth is exactly 1
        g1 = graph("aaaa", [(0, 1), (1, 2), (2, 3)])
        g2 = graph("aaaa", [(0, 1), (2, 3)])
        assert exact_ged(g1, g2, CM3).ged == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="alphabet"):
            generate_pairs(1, 1, (2, 3), (0, 1), (), CM3)
        with pytest.raises(ValueError, match="node range"):
            generate_pairs(1, 1, (3, 2), (0, 1), ALPHABET, CM3)
        with pytest.raises(ValueError, match="edit range"):
            generate_pairs(1, 1, (2, 3), (2, 1), ALPHABET, CM3)

    @pytest.mark.parametrize("edge_prob", [1.5, -0.2, float("nan")])
    def test_rejects_edge_probability_outside_unit_interval(self, edge_prob):
        # 1.5 would write complete graphs, -0.2 and NaN edgeless ones
        with pytest.raises(ValueError, match="edge probability"):
            generate_pairs(1, 1, (2, 3), (0, 1), ALPHABET, CM3, edge_prob=edge_prob)

    def test_accepts_edge_probability_at_both_ends(self):
        for edge_prob, edges in ((0.0, 0), (1.0, 3)):
            (case,) = generate_pairs(1, 1, (3, 3), (0, 0), ALPHABET, CM3, edge_prob=edge_prob)
            assert len(case.g1.edges) == edges

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            generate_pairs(1, -3, (2, 3), (0, 1), ALPHABET, CM3)

    def test_rejects_base_order_above_max_order(self):
        # base graphs of order 6 and 7 would be written under a recorded max order of 4
        with pytest.raises(ValueError, match="max order"):
            generate_pairs(1, 3, (6, 7), (0, 2), ALPHABET, CM3, max_order=4)

    def test_tiny_graphs_take_every_drawn_edit(self):
        # orders 0 and 1 under one label leave most draws nothing to edit;
        # each edit is drawn again until one applies
        cases = generate_pairs(5, 5, (0, 1), (1, 4), ("a",), CM3, max_order=1, oracle_budget=0)
        assert len(cases) == 5
        assert all(case.applied_edits >= 1 for case in cases)
        assert all(max(case.g1.order, case.g2.order) <= 1 for case in cases)

    def test_max_order_zero_refuses_a_drawn_edit(self):
        # an empty graph that may not grow admits no edit of any kind
        with pytest.raises(GedError, match="case 0: no edit applies .* max order 0"):
            generate_pairs(1, 2, (0, 0), (1, 2), ALPHABET, CM3, max_order=0)
        cases = generate_pairs(1, 2, (0, 0), (0, 0), ALPHABET, CM3, max_order=0)
        assert [case.true_ged for case in cases] == [0.0, 0.0]

    def test_pinned_output_bytes(self):
        # every edit branch runs, its refusals included: one label (no relabel),
        # orders at max_order (no node insertion), empty and complete graphs
        h = hashlib.sha256()
        for setting in ("case1", "case2", "case3"):
            cm = builtin_cost_model(setting)
            for seed in range(6):
                for n_range, edit_range, labels, max_order, edge_prob in (
                    ((0, 6), (0, 12), ("0", "1"), None, 0.3),
                    ((3, 9), (5, 20), ("0",), 9, 0.6),
                    ((5, 8), (0, 2), ("0", "1", "2", "3"), 8, 0.3),
                    ((1, 4), (10, 30), ("1", "2", "3"), 6, 0.9),
                ):
                    cases = generate_pairs(
                        seed, 10, n_range, edit_range, labels, cm,
                        edge_prob=edge_prob, max_order=max_order, oracle_budget=7,
                    )
                    h.update(repr(cases).encode())
        assert h.hexdigest() == "7413d5b1d78b159c09aad1a37fea802f5d1df592a2e1ea7abcf4c6cae29ff103"


class TestRunBench:
    def test_aggregates_on_easy_corpus(self):
        cases = small_corpus(seed=3, edits=(0, 0))
        report = run_bench(cases, CM3)
        assert report.failures == 0
        assert report.mae == 0.0
        assert report.si == 1.0
        assert all(row.rounds >= 1 for row in report.rows)

    def test_rows_sorted_and_aggregates_recompute(self):
        cases = small_corpus(seed=8, count=8)
        report = run_bench(cases, CM3)
        ids = [row.case_id for row in report.rows]
        assert ids == sorted(ids)
        scored = [r for r in report.rows if r.error is None and r.true_ged is not None]
        assert report.mae == sum(r.abs_err for r in scored) / len(scored)
        assert report.si == sum(1 for r in scored if r.exact_match) / len(scored)
        assert report.certified_share == sum(r.certified for r in report.rows) / len(ids)
        for case, row in zip(sorted(cases, key=lambda c: c.case_id), report.rows):
            solve = estimate_ged(case.g1, case.g2, CM3)
            assert row.inner_steps == sum(rec.inner_iterations for rec in solve.trace)
            assert row.certified is (solve.converged_reason == CERTIFIED_OPTIMAL)

    def test_workers_do_not_change_results(self):
        cases = small_corpus(seed=13, count=6)
        sequential = run_bench(cases, CM3, workers=1)
        parallel = run_bench(cases, CM3, workers=3)
        strip = lambda row: (
            row.case_id, row.n1, row.n2, row.true_ged,
            row.estimated_ged, row.abs_err, row.exact_match, row.rounds,
            row.inner_steps, row.certified, row.error,
        )
        assert [strip(r) for r in sequential.rows] == [strip(r) for r in parallel.rows]

    def test_failures_recorded_and_excluded(self):
        # non-integer labels break the ranked substitution rule per pair
        cm2 = builtin_cost_model("case2")
        bad = PairCase(case_id="bad-0000", g1=graph(["x"]), g2=graph(["y"]), true_ged=None)
        good = PairCase(case_id="good-0000", g1=graph(["1"]), g2=graph(["1"]), true_ged=0.0)
        report = run_bench([bad, good], cm2)
        assert report.failures == 1
        by_id = {row.case_id: row for row in report.rows}
        assert by_id["bad-0000"].error is not None
        assert by_id["bad-0000"].estimated_ged is None
        assert by_id["bad-0000"].certified is None
        assert by_id["good-0000"].error is None
        assert report.mae == 0.0 and report.si == 1.0
        assert report.certified_share == 1.0  # the failed pair is not counted

    def test_unexpected_exception_fails_only_its_pair(self, monkeypatch):
        cases = small_corpus(seed=8, count=4)
        real_estimate = bench_module.estimate_ged

        def failing(g1, g2, cm, cfg=None):
            if g1 is cases[1].g1:
                raise ValueError("injected")
            return real_estimate(g1, g2, cm, cfg)

        monkeypatch.setattr(bench_module, "estimate_ged", failing)
        report = run_bench(cases, CM3)
        assert report.failures == 1
        by_id = {row.case_id: row for row in report.rows}
        assert by_id[cases[1].case_id].error == "ValueError: injected"
        assert by_id[cases[1].case_id].estimated_ged is None
        solved = [row for row in report.rows if row.case_id != cases[1].case_id]
        assert all(row.error is None and row.estimated_ged is not None for row in solved)

    def test_no_truth_no_aggregates(self):
        case = PairCase(case_id="c", g1=graph("a"), g2=graph("a"))
        report = run_bench([case], CM3)
        assert report.mae is None and report.si is None

    def test_aggregates_invariant_under_case_ordering(self):
        cases = small_corpus(seed=17, count=6)
        forward = run_bench(cases, CM3)
        backward = run_bench(list(reversed(cases)), CM3)
        assert forward.mae == backward.mae
        assert forward.si == backward.si
        assert [r.case_id for r in forward.rows] == [r.case_id for r in backward.rows]


class TestReportArtifacts:
    ROWS = (
        BenchRow("a", 3, 3, 2.0, 3.0, 1.0, False, 4, 120, False, 12.5),
        BenchRow("b", 2, 2, 1.0, 1.0, 0.0, True, 4, 8, True, 8.25),
        BenchRow("c", 2, 2, None, 1.0, None, None, 4, 16, True, 8.0),
        BenchRow("d", 2, 2, 1.0, None, None, None, 0, 0, None, 1.0, error="boom"),
    )
    REPORT = BenchReport(
        rows=ROWS, mae=0.5, si=0.5, certified_share=2 / 3, failures=1, total_ms=30.0
    )

    def test_csv_layout(self):
        text = report_to_csv(self.REPORT)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "id,n1,n2,true_ged,estimated_ged,abs_err,exact_match,rounds,inner_steps,certified,"
            "error,wall_ms"
        )
        assert lines[1] == "a,3,3,2.0,3.0,1.0,0,4,120,0,,12.500"
        assert lines[2] == "b,2,2,1.0,1.0,0.0,1,4,8,1,,8.250"
        assert lines[3] == "c,2,2,,1.0,,,4,16,1,,8.000"
        assert lines[4] == "d,2,2,1.0,,,,0,0,,boom,1.000"

    def test_csv_quotes_a_cell_with_a_comma(self):
        row = BenchRow("e,1", 1, 1, None, None, None, None, 0, 0, None, 2.0, error='x: "a, b"')
        report = BenchReport(
            rows=(row,), mae=None, si=None, certified_share=None, failures=1, total_ms=2.0
        )
        cells = next(csv.reader(report_to_csv(report).split("\n")[1:]))
        assert cells[0] == "e,1" and cells[-2:] == ['x: "a, b"', "2.000"]

    def test_aggregate_json(self):
        doc = json.loads(report_to_aggregate_json(self.REPORT))
        assert doc == {
            "mae": 0.5,
            "si": 0.5,
            "certified_share": 2 / 3,
            "pairs": 4,
            "failures": 1,
            "total_ms": 30.0,
        }

    def test_aggregates_recompute_from_emitted_csv(self):
        cases = small_corpus(seed=29, count=8)
        report = run_bench(cases, CM3)
        lines = report_to_csv(report).strip().split("\n")[1:]
        errs = []
        exact = []
        certified = []
        for line in lines:
            cells = line.split(",")
            if cells[3] and cells[5]:
                errs.append(float(cells[5]))
                exact.append(cells[6] == "1")
            certified.append(cells[9] == "1")
        assert sum(errs) / len(errs) == report.mae
        assert sum(exact) / len(exact) == report.si
        assert sum(certified) / len(certified) == report.certified_share


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        cases = small_corpus(seed=21, count=5)
        write_corpus(cases, tmp_path / "corpus", seed=21, params={"note": "test"})
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded == cases

    def test_missing_index(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="index"):
            load_corpus(tmp_path)

    def test_missing_graph_file(self, tmp_path):
        cases = small_corpus(seed=21, count=2)
        write_corpus(cases, tmp_path / "corpus")
        (tmp_path / "corpus" / "graphs" / "case-0001_b.json").unlink()
        with pytest.raises(CorpusFormatError, match="missing graph file"):
            load_corpus(tmp_path / "corpus")

    def test_malformed_index(self, tmp_path):
        (tmp_path / "index.json").write_text("{]")
        with pytest.raises(CorpusFormatError, match="parse error"):
            load_corpus(tmp_path)

    def test_index_integer_past_the_digit_limit(self, tmp_path):
        # json refuses to convert an integer literal of more than 4300 digits
        (tmp_path / "index.json").write_text('{"cases": [], "seed": 1' + "0" * 5000 + "}")
        with pytest.raises(CorpusFormatError, match="parse error"):
            load_corpus(tmp_path)

    def test_index_nested_past_the_recursion_limit(self, tmp_path):
        # the decoder recurses once per open bracket
        (tmp_path / "index.json").write_text("[" * 100_000)
        with pytest.raises(CorpusFormatError, match="parse error"):
            load_corpus(tmp_path)

    def test_index_not_an_object(self, tmp_path):
        (tmp_path / "index.json").write_text("[]")
        with pytest.raises(CorpusFormatError, match="must be a JSON object"):
            load_corpus(tmp_path)

    def test_index_not_utf8(self, tmp_path):
        (tmp_path / "index.json").write_bytes(b"\xff{}")
        with pytest.raises(CorpusFormatError, match="parse error"):
            load_corpus(tmp_path)

    def test_graph_file_not_utf8(self, tmp_path):
        write_corpus(small_corpus(seed=21, count=2), tmp_path / "corpus")
        (tmp_path / "corpus" / "graphs" / "case-0001_b.json").write_bytes(b"\xff{}")
        with pytest.raises(GraphFormatError, match="parse error"):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("key", ["id", "g1", "g2"])
    def test_non_string_entry_field(self, tmp_path, key):
        # rejected at load time: an integer id would otherwise fail only
        # after every pair is solved, and an integer path in the path join
        write_corpus(small_corpus(seed=21, count=2), tmp_path / "corpus")
        index_path = tmp_path / "corpus" / "index.json"
        index = json.loads(index_path.read_text())
        index["cases"][1][key] = 7
        index_path.write_text(json.dumps(index))
        with pytest.raises(CorpusFormatError, match=r"cases\[1\]: expected string"):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("value", [[1, 2], "many", -1, True, 2.5])
    def test_bad_applied_edits(self, tmp_path, value):
        write_corpus(small_corpus(seed=21, count=2), tmp_path / "corpus")
        index_path = tmp_path / "corpus" / "index.json"
        index = json.loads(index_path.read_text())
        index["cases"][1]["applied_edits"] = value
        index_path.write_text(json.dumps(index))
        with pytest.raises(CorpusFormatError, match=r"cases\[1\]: 'applied_edits'"):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("key", ["true_ged", "applied_cost"])
    @pytest.mark.parametrize("value", ["1.5", [1.0], {"v": 1}, True])
    def test_non_number(self, tmp_path, key, value):
        write_corpus(small_corpus(seed=21, count=2), tmp_path / "corpus")
        index_path = tmp_path / "corpus" / "index.json"
        index = json.loads(index_path.read_text())
        index["cases"][1][key] = value
        index_path.write_text(json.dumps(index))
        with pytest.raises(CorpusFormatError, match=rf"cases\[1\]: '{key}' must be a number or null"):
            load_corpus(tmp_path / "corpus")

    @pytest.mark.parametrize("key", ["true_ged", "applied_cost"])
    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), -1, -0.5, 10**400],
        ids=["nan", "inf", "-inf", "-1", "-0.5", "1e400-int"],
    )
    def test_bad_number(self, tmp_path, key, value):
        # json reads NaN and +-Infinity literals and exact 401-digit integers
        write_corpus(small_corpus(seed=21, count=2), tmp_path / "corpus")
        index_path = tmp_path / "corpus" / "index.json"
        index = json.loads(index_path.read_text())
        index["cases"][1][key] = value
        index_path.write_text(json.dumps(index))
        with pytest.raises(CorpusFormatError, match=rf"cases\[1\]: '{key}' must be finite"):
            load_corpus(tmp_path / "corpus")

    def test_bench_over_loaded_corpus_matches_in_memory(self, tmp_path):
        cases = small_corpus(seed=33, count=4)
        write_corpus(cases, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        a = run_bench(cases, CM3)
        b = run_bench(loaded, CM3)
        keep = lambda row: (row.case_id, row.estimated_ged, row.abs_err, row.exact_match)
        assert [keep(r) for r in a.rows] == [keep(r) for r in b.rows]
