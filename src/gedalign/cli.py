"""Command-line interface: ``estimate``, ``exact``, ``bench`` and ``gen``.

Exit codes: 0 success, 2 input error, 3 solver error, 4 exact-search budget
refusal. The environment variable ``GED_LOG`` (``off`` or ``trace``) controls
diagnostic logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .bench import (
    generate_pairs,
    load_corpus,
    report_to_aggregate_json,
    report_to_csv,
    run_bench,
    write_corpus,
)
from .costs import CostModel, builtin_cost_model, load_cost_model
from .editpath import DEFAULT_NODE_BUDGET, EditPath, exact_ged, extract_edit_path
from .errors import BudgetExceededError, CorpusFormatError, GedError
from .graphs import GraphPair, LabeledGraph, _dump_json, _load_json_object, load_graph, pad_pair
from .solver import SolveReport, SolverConfig, estimate_ged

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4


def _configure_logging() -> None:
    level_name = os.environ.get("GED_LOG", "off").lower()
    level = logging.DEBUG if level_name == "trace" else logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")


def _add_cost_option(parser: argparse.ArgumentParser, default: str | None = "case3") -> None:
    parser.add_argument(
        "--cost",
        default=default,
        metavar="SETTING",
        help="case1 | case2 | case3 | file:PATH (default: "
        f"{default or 'the setting the corpus records, else case3'})",
    )


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lambda-step",
        type=float,
        default=SolverConfig.lambda_step,
        help="regularizer step per round; 0 keeps the regularizer off (ablation)",
    )


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(lambda_step=args.lambda_step)


def _load_cost(selector: str) -> CostModel:
    if selector.startswith("file:"):
        return load_cost_model(Path(selector[len("file:"):]).read_bytes())
    return builtin_cost_model(selector)


def _load_inputs(args: argparse.Namespace) -> tuple[CostModel, LabeledGraph, LabeledGraph]:
    """The cost model, then the two graphs, that ``estimate`` and ``exact`` read."""
    cm = _load_cost(args.cost)
    g1, g2 = (load_graph(Path(path).read_bytes()) for path in (args.graph1, args.graph2))
    if args.out:  # open it before the solve: failing to write it afterwards would lose it
        Path(args.out).open("a").close()
    return cm, g1, g2


def _mapping_json(pair: GraphPair, mapping: tuple[int, ...]) -> list[dict]:
    rows = []
    for i, j in enumerate(mapping):
        rows.append(
            {
                "from": i,
                "to": j,
                "from_dummy": i >= pair.g1.order,
                "to_dummy": j >= pair.g2.order,
            }
        )
    return rows


def _report_json(pair: GraphPair, report: SolveReport) -> dict:
    return {
        "estimated_ged": report.estimated_ged,
        "mapping": _mapping_json(pair, report.permutation.mapping),
        "edit_path": report.edit_path.to_json(),
        "trace": [
            {
                "round": rec.round_index,
                "lambda": rec.lam,
                "inner_iterations": rec.inner_iterations,
                "candidate_ged": rec.candidate_ged,
                "objective_value": rec.objective_value,  # the relaxed value minimized
            }
            for rec in report.trace
        ],
        "converged_reason": report.converged_reason,
        "lower_bound": report.lower_bound,
    }


def _emit(doc: dict, out: str | None) -> None:
    text = _dump_json(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fail(prefix: str, exc: Exception, code: int) -> int:
    print(f"{prefix}: {exc}", file=sys.stderr)
    return code


def _cmd_estimate(args: argparse.Namespace) -> int:
    try:
        cm, g1, g2 = _load_inputs(args)
        cfg = _solver_config(args)
    except (OSError, GedError, ValueError) as exc:
        return _fail("error", exc, EXIT_INPUT)
    try:
        report = estimate_ged(g1, g2, cm, cfg)
    except GedError as exc:
        return _fail("solver error", exc, EXIT_SOLVER)
    _emit(_report_json(pad_pair(g1, g2), report), args.out)
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    try:
        cm, g1, g2 = _load_inputs(args)
    except (OSError, GedError, ValueError) as exc:
        return _fail("error", exc, EXIT_INPUT)
    try:
        result = exact_ged(g1, g2, cm, node_budget=args.budget)
    except BudgetExceededError as exc:
        return _fail("refused", exc, EXIT_BUDGET)
    except GedError as exc:
        return _fail("solver error", exc, EXIT_SOLVER)
    pair = pad_pair(g1, g2)
    path: EditPath = extract_edit_path(pair, result.optimal_mapping, cm)
    doc = {
        "ged": result.ged,
        "mapping": _mapping_json(pair, result.optimal_mapping.mapping),
        "edit_path": path.to_json(),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        cm = _load_cost(args.cost)
        labels = tuple(args.labels.split(","))
        params = {
            "count": args.count,
            "n_range": [args.n_min, args.n_max],
            "edit_range": [args.edits_min, args.edits_max],
            "labels": list(labels),
            "edge_prob": args.edge_prob,
            "max_order": args.max_order,
            "cost": args.cost,
        }
        cases = generate_pairs(
            seed=args.seed,
            count=args.count,
            n_range=(args.n_min, args.n_max),
            edit_range=(args.edits_min, args.edits_max),
            label_alphabet=labels,
            cm=cm,
            edge_prob=args.edge_prob,
            max_order=args.max_order,
        )
        write_corpus(cases, args.out, seed=args.seed, params=params)
    except (OSError, GedError, ValueError) as exc:
        return _fail("error", exc, EXIT_INPUT)
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def _recorded_cost(corpus: str) -> str | None:
    """The cost setting ``gen`` recorded in a corpus's index, if any; call
    after :func:`load_corpus` has checked the index."""
    index_bytes = (Path(corpus) / "index.json").read_bytes()
    index = _load_json_object(index_bytes, CorpusFormatError, "corpus index")
    params = index.get("params")
    cost = params.get("cost") if isinstance(params, dict) else None
    return cost if isinstance(cost, str) else None


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        cases = load_corpus(args.corpus)
        recorded = _recorded_cost(args.corpus)
        if args.cost is None:
            args.cost = "case3" if recorded is None else recorded
        elif recorded is not None and args.cost != recorded:
            raise ValueError(f"--cost {args.cost} differs from the corpus's cost {recorded}")
        cm = _load_cost(args.cost)
        cfg = _solver_config(args)
        # open the outputs before the run: failing to write them afterwards would lose it
        prefix = Path(args.out)
        csv_path = prefix.with_name(prefix.name + ".csv")  # ValueError on an empty name
        json_path = prefix.with_name(prefix.name + ".json")
        prefix.parent.mkdir(parents=True, exist_ok=True)
        for path in (csv_path, json_path):
            path.open("a").close()
    except (OSError, GedError, ValueError) as exc:
        return _fail("error", exc, EXIT_INPUT)
    report = run_bench(cases, cm, cfg, workers=args.workers)  # a failing pair keeps its row
    csv_path.write_text(report_to_csv(report), encoding="utf-8")
    json_path.write_text(report_to_aggregate_json(report), encoding="utf-8")
    summary = {
        "mae": report.mae,
        "si": report.si,
        "pairs": len(report.rows),
        "failures": report.failures,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gedalign",
        description="Estimate graph edit distance with an explaining edit path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the distance between two graph files")
    p_est.add_argument("graph1")
    p_est.add_argument("graph2")
    _add_cost_option(p_est)
    _add_solver_options(p_est)
    p_est.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_est.set_defaults(func=_cmd_estimate)

    p_exact = sub.add_parser("exact", help="exact distance by branch and bound (small graphs)")
    p_exact.add_argument("graph1")
    p_exact.add_argument("graph2")
    _add_cost_option(p_exact)
    p_exact.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_exact.add_argument("--out", default=None)
    p_exact.set_defaults(func=_cmd_exact)

    p_gen = sub.add_parser("gen", help="generate a synthetic benchmark corpus")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--n-min", type=int, default=5)
    p_gen.add_argument("--n-max", type=int, default=8)
    p_gen.add_argument("--edits-min", type=int, default=0)
    p_gen.add_argument("--edits-max", type=int, default=2)
    p_gen.add_argument("--labels", default="0,1,2,3")
    p_gen.add_argument("--edge-prob", type=float, default=0.3)
    p_gen.add_argument("--max-order", type=int, default=8)
    _add_cost_option(p_gen)
    p_gen.add_argument("--out", required=True, help="corpus directory to create")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run the estimator over a corpus directory")
    p_bench.add_argument("corpus")
    _add_cost_option(p_bench, default=None)
    _add_solver_options(p_bench)
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.add_argument(
        "--out", default="bench_report", help="output prefix for the CSV and JSON reports"
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
