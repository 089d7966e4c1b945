"""Command-line interface: ``estimate``, ``exact``, ``bench`` and ``gen``.

Exit codes: 0 success, 2 input error, 3 solver error, 4 exact-search budget
refusal. The environment variable ``GED_LOG`` (``off``, ``info``, ``trace``)
controls diagnostic logging on stderr.
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
from .errors import BudgetExceededError, GedError
from .graphs import GraphPair, LabeledGraph, load_graph, pad_pair
from .solver import SolveReport, SolverConfig, estimate_ged

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_BUDGET = 4

_DEFAULTS = SolverConfig()


def _configure_logging() -> None:
    level_name = os.environ.get("GED_LOG", "off").lower()
    level = {"off": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}.get(
        level_name, logging.WARNING
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")


def _add_cost_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cost",
        default="case3",
        metavar="SETTING",
        help="case1 | case2 | case3 | file:PATH (default: case3)",
    )


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=_DEFAULTS.mu)
    parser.add_argument("--alpha", type=float, default=_DEFAULTS.alpha)
    parser.add_argument(
        "--lambda-step",
        type=float,
        default=_DEFAULTS.lambda_step,
        help="regularizer step per round; 0 keeps the regularizer off (ablation)",
    )
    parser.add_argument("--patience", type=int, default=_DEFAULTS.patience)
    parser.add_argument("--sigma-cap", type=float, default=_DEFAULTS.sigma_cap)


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        mu=args.mu,
        alpha=args.alpha,
        lambda_step=args.lambda_step,
        patience=args.patience,
        sigma_cap=args.sigma_cap,
    )


def _load_cost(selector: str) -> CostModel:
    if selector.startswith("file:"):
        path = Path(selector[len("file:"):])
        with open(path, "rb") as handle:
            return load_cost_model(handle)
    return builtin_cost_model(selector)


def _load_graph_file(path: str) -> LabeledGraph:
    with open(path, "rb") as handle:
        return load_graph(handle)


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
                "sigma": rec.sigma,
                "inner_iterations": rec.inner_iterations,
                "candidate_ged": rec.candidate_ged,
                "objective_value": rec.objective_value,  # the penalized value minimized
            }
            for rec in report.trace
        ],
        "converged_reason": report.converged_reason,
        "lower_bound": report.lower_bound,
    }


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_estimate(args: argparse.Namespace) -> int:
    try:
        cm = _load_cost(args.cost)
        g1 = _load_graph_file(args.graph1)
        g2 = _load_graph_file(args.graph2)
        cfg = _solver_config(args)
    except (OSError, GedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = estimate_ged(g1, g2, cm, cfg)
    except GedError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(_report_json(pad_pair(g1, g2), report), args.out)
    return EXIT_OK


def _cmd_exact(args: argparse.Namespace) -> int:
    try:
        cm = _load_cost(args.cost)
        g1 = _load_graph_file(args.graph1)
        g2 = _load_graph_file(args.graph2)
    except (OSError, GedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = exact_ged(g1, g2, cm, node_budget=args.budget)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except GedError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {len(cases)} cases to {args.out}")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        cm = _load_cost(args.cost)
        cases = load_corpus(args.corpus)
        cfg = _solver_config(args)
    except (OSError, GedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = run_bench(cases, cm, cfg, workers=args.workers)
    except GedError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    prefix = Path(args.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
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

    p_exact = sub.add_parser("exact", help="exact distance by exhaustive search (small graphs)")
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
    _add_cost_option(p_bench)
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
