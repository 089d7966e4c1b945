"""Synthetic pair generation with known edit provenance, batch evaluation,
error metrics, and report emission.

Corpus directory layout::

    corpus/
      index.json            # seed, generator params, case list with truths
      graphs/<id>_a.json    # first graph of each case
      graphs/<id>_b.json    # second graph of each case

Report artifacts: a CSV with one row per pair
(``id,n1,n2,true_ged,estimated_ged,abs_err,exact_match,rounds,inner_steps,certified,error,wall_ms``)
and an aggregate JSON (``mae``, ``si``, ``certified_share``, ``pairs``,
``failures``, ``total_ms``). ``inner_steps`` is the solve's Frank–Wolfe step
count over all rounds, ``certified`` whether it ended ``certified_optimal``,
and ``error`` why a failed pair failed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .assignment import Permutation
from .costs import CostModel
from .editpath import DEFAULT_NODE_BUDGET, exact_ged, ged_under_mapping
from .errors import CorpusFormatError, GedError
from .graphs import LabeledGraph, load_graph, make_graph, pad_pair, save_graph
from .graphs import _dump_json, _load_json_object
from .solver import CERTIFIED_OPTIMAL, SolverConfig, estimate_ged

#: SI counts a pair as solved exactly when |estimate - truth| is at most this.
EXACT_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class PairCase:
    """One benchmark pair. ``true_ged`` is present when the oracle could run;
    ``applied_cost`` is the exact cost of the generator's own alignment, an
    upper bound on the true distance."""

    case_id: str
    g1: LabeledGraph
    g2: LabeledGraph
    true_ged: float | None = None
    applied_edits: int | None = None
    applied_cost: float | None = None


@dataclass(frozen=True)
class BenchRow:
    case_id: str
    n1: int
    n2: int
    true_ged: float | None
    estimated_ged: float | None
    abs_err: float | None
    exact_match: bool | None
    rounds: int
    inner_steps: int
    certified: bool | None
    wall_ms: float
    error: str | None = None


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    mae: float | None
    si: float | None
    certified_share: float | None  # over the pairs solved without error
    failures: int
    total_ms: float


def _random_graph(
    rng: np.random.Generator, n: int, labels: tuple[str, ...], edge_prob: float
) -> tuple[list[str], set[tuple[int, int]]]:
    node_labels = [labels[int(rng.integers(len(labels)))] for _ in range(n)]
    coins = rng.random(n * (n - 1) // 2)  # one per vertex pair, in lexicographic order
    pairs = itertools.combinations(range(n), 2)
    return node_labels, {pair for pair, coin in zip(pairs, coins) if coin < edge_prob}


def _apply_random_edit(
    rng: np.random.Generator,
    node_labels: list[str],
    edges: set[tuple[int, int]],
    origin_of: list[int | None],
    labels: tuple[str, ...],
    max_order: int | None,
) -> bool:
    """Mutate the working graph by one random edit; False when infeasible.

    ``origin_of[j]`` tracks which original node (if any) sits at index ``j``.
    Edit kinds are drawn 60% edge, 20% node, 20% relabel; each kind splits
    evenly between its add/remove variants where applicable.
    """
    n = len(node_labels)
    roll = rng.random()
    if roll < 0.6:
        if rng.random() < 0.5:  # add an edge
            absent = [
                (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
            ]
            if not absent:
                return False
            edges.add(absent[int(rng.integers(len(absent)))])
            return True
        if not edges:  # remove an edge
            return False
        pool = sorted(edges)
        edges.remove(pool[int(rng.integers(len(pool)))])
        return True
    if roll < 0.8:
        if rng.random() < 0.5:  # add a node
            if max_order is not None and n >= max_order:
                return False
            node_labels.append(labels[int(rng.integers(len(labels)))])
            origin_of.append(None)
            return True
        if n == 0:  # remove a node
            return False
        victim = int(rng.integers(n))
        del node_labels[victim]
        del origin_of[victim]
        # shifting both endpoints past the victim down by one keeps i < j
        remapped = {
            (i - (i > victim), j - (j > victim)) for i, j in edges if victim not in (i, j)
        }
        edges.clear()
        edges.update(remapped)
        return True
    if n == 0:  # relabel a node
        return False
    victim = int(rng.integers(n))
    choices = [lab for lab in labels if lab != node_labels[victim]]
    if not choices:
        return False
    node_labels[victim] = choices[int(rng.integers(len(choices)))]
    return True


def _provenance_mapping(
    n1: int, n2: int, origin_of: list[int | None]
) -> Permutation:
    """Alignment induced by the generator's edits on the padded pair.

    Surviving originals map to their current position; deleted originals go to
    padding (or leftover inserted) slots; padding on the first side absorbs the
    remaining inserted nodes. Everything is filled in ascending index order.
    """
    order = max(n1, n2)
    image = {orig: j for j, orig in enumerate(origin_of) if orig is not None}
    taken = set(image.values())
    free_targets = [j for j in range(order) if j not in taken]  # g2-side slots
    free_sources = [i for i in range(order) if i not in image]  # deleted + padding
    for src, dst in zip(free_sources, free_targets):
        image[src] = dst
    return Permutation(tuple(image[i] for i in range(order)))


def generate_pairs(
    seed: int,
    count: int,
    n_range: tuple[int, int],
    edit_range: tuple[int, int],
    label_alphabet: tuple[str, ...],
    cm: CostModel,
    *,
    edge_prob: float = 0.3,
    max_order: int | None = None,
    oracle_budget: int = DEFAULT_NODE_BUDGET,
) -> list[PairCase]:
    """Deterministic corpus of perturbed graph pairs.

    Each case samples a labeled random graph, applies a drawn number of random
    edits, and records the exact cost realized by the generator's alignment.
    The true distance is computed with the exact oracle whenever the
    padded order fits ``oracle_budget``; its running time depends on the
    pair. The result is fully determined by ``seed`` and the parameters.
    """
    if not label_alphabet:
        raise ValueError("label alphabet must not be empty")
    if n_range[0] < 0 or n_range[1] < n_range[0]:
        raise ValueError(f"invalid node range {n_range}")
    if max_order is not None and n_range[1] > max_order:
        raise ValueError(f"node range {n_range} exceeds max order {max_order}")
    if edit_range[0] < 0 or edit_range[1] < edit_range[0]:
        raise ValueError(f"invalid edit range {edit_range}")
    if not 0 <= edge_prob <= 1:  # NaN fails too
        raise ValueError(f"edge probability must be in [0, 1], got {edge_prob}")
    if count < 0:
        raise ValueError(f"invalid count {count}")
    rng = np.random.default_rng(seed)
    cases: list[PairCase] = []
    for index in range(count):
        n1 = int(rng.integers(n_range[0], n_range[1] + 1))
        node_labels, edges = _random_graph(rng, n1, label_alphabet, edge_prob)
        g1 = make_graph(node_labels, edges)  # a copy: the edits below mutate both parts
        origin_of: list[int | None] = list(range(n1))
        k = int(rng.integers(edit_range[0], edit_range[1] + 1))
        if k and max_order == 0:
            raise GedError(f"case {index}: no edit applies to an empty graph of max order 0")
        for _ in range(k):  # a try applies with probability >= 0.1: removing or adding a node
            while not _apply_random_edit(
                rng, node_labels, edges, origin_of, label_alphabet, max_order
            ):
                pass
        g2 = make_graph(node_labels, edges)
        pair = pad_pair(g1, g2)
        mapping = _provenance_mapping(g1.order, g2.order, origin_of)
        applied_cost = ged_under_mapping(pair, mapping, cm)
        true_ged: float | None = None
        if pair.order <= oracle_budget:
            true_ged = exact_ged(g1, g2, cm, node_budget=oracle_budget).ged
        cases.append(
            PairCase(
                case_id=f"case-{index:04d}",
                g1=g1,
                g2=g2,
                true_ged=true_ged,
                applied_edits=k,
                applied_cost=applied_cost,
            )
        )
    return cases


def _solve_case(args: tuple[PairCase, CostModel, SolverConfig]) -> BenchRow:
    case, cm, cfg = args
    start = time.perf_counter()
    estimate = abs_err = exact = certified = error = None
    rounds = inner_steps = 0
    try:
        report = estimate_ged(case.g1, case.g2, cm, cfg)
        estimate, rounds = report.estimated_ged, len(report.trace)
        inner_steps = sum(rec.inner_iterations for rec in report.trace)
        certified = report.converged_reason == CERTIFIED_OPTIMAL
        if case.true_ged is not None:
            abs_err = abs(estimate - case.true_ged)
            exact = abs_err <= EXACT_MATCH_TOL
    except Exception as exc:  # one failing pair must not abort the whole run
        error = f"{type(exc).__name__}: {exc}"
    return BenchRow(
        case_id=case.case_id,
        n1=case.g1.order,
        n2=case.g2.order,
        true_ged=case.true_ged,
        estimated_ged=estimate,
        abs_err=abs_err,
        exact_match=exact,
        rounds=rounds,
        inner_steps=inner_steps,
        certified=certified,
        wall_ms=(time.perf_counter() - start) * 1000.0,
        error=error,
    )


def run_bench(
    cases: list[PairCase],
    cm: CostModel,
    cfg: SolverConfig | None = None,
    workers: int = 1,
) -> BenchReport:
    """Estimate every pair and aggregate the error metrics.

    Pairs are independent; with ``workers > 1`` they are solved in separate
    processes, started by spawn rather than fork, since forking a process
    whose BLAS threads have started is unsafe. Per-pair results do not depend
    on the worker count or on completion order: rows are keyed and sorted by
    case id. Failed pairs keep their row (with the error message) but are
    excluded from the aggregates.
    """
    if cfg is None:
        cfg = SolverConfig()
    start = time.perf_counter()
    jobs = [(case, cm, cfg) for case in cases]
    if workers <= 1 or len(cases) <= 1:
        rows = [_solve_case(job) for job in jobs]
    else:
        # imported only here: the two add about 1.6 MB to every process that
        # imports the package, and only a parallel run uses them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            rows = list(pool.map(_solve_case, jobs))
    rows.sort(key=lambda row: row.case_id)
    total_ms = (time.perf_counter() - start) * 1000.0
    solved = [r for r in rows if r.error is None]
    scored = [r for r in solved if r.true_ged is not None]

    def mean(values: list) -> float | None:
        return sum(values) / len(values) if values else None

    return BenchReport(
        rows=tuple(rows),
        mae=mean([r.abs_err for r in scored]),
        si=mean([r.exact_match for r in scored]),
        certified_share=mean([r.certified for r in solved]),
        failures=len(rows) - len(solved),
        total_ms=total_ms,
    )


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: BenchReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")  # quotes a cell holding a comma
    writer.writerow(
        "id,n1,n2,true_ged,estimated_ged,abs_err,exact_match,rounds,inner_steps,certified,"
        "error,wall_ms".split(",")
    )
    for r in report.rows:
        writer.writerow(
            (
                r.case_id,
                str(r.n1),
                str(r.n2),
                _cell(r.true_ged),
                _cell(r.estimated_ged),
                _cell(r.abs_err),
                _cell(r.exact_match),
                str(r.rounds),
                str(r.inner_steps),
                _cell(r.certified),
                _cell(r.error),
                f"{r.wall_ms:.3f}",
            )
        )
    return out.getvalue()


def report_to_aggregate_json(report: BenchReport) -> str:
    doc = {
        "mae": report.mae,
        "si": report.si,
        "certified_share": report.certified_share,
        "pairs": len(report.rows),
        "failures": report.failures,
        "total_ms": report.total_ms,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def write_corpus(
    cases: list[PairCase],
    out_dir: str | Path,
    *,
    seed: int | None = None,
    params: dict | None = None,
) -> None:
    """Write a corpus directory (index plus one file per graph)."""
    out = Path(out_dir)
    (out / "graphs").mkdir(parents=True, exist_ok=True)
    index_cases = []
    for case in cases:
        a_rel = f"graphs/{case.case_id}_a.json"
        b_rel = f"graphs/{case.case_id}_b.json"
        (out / a_rel).write_text(save_graph(case.g1), encoding="utf-8")
        (out / b_rel).write_text(save_graph(case.g2), encoding="utf-8")
        index_cases.append(
            {
                "id": case.case_id,
                "g1": a_rel,
                "g2": b_rel,
                "true_ged": case.true_ged,
                "applied_edits": case.applied_edits,
                "applied_cost": case.applied_cost,
            }
        )
    index = {"seed": seed, "params": params or {}, "cases": index_cases}
    (out / "index.json").write_text(_dump_json(index), encoding="utf-8")


def load_corpus(corpus_dir: str | Path) -> list[PairCase]:
    """Read a corpus directory back into cases, validating the layout."""
    root = Path(corpus_dir)
    index_path = root / "index.json"
    if not index_path.is_file():
        raise CorpusFormatError(f"missing corpus index: {index_path}")
    index = _load_json_object(index_path.read_bytes(), CorpusFormatError, "corpus index")
    if not isinstance(index.get("cases"), list):
        raise CorpusFormatError("corpus index must contain a 'cases' array")
    cases: list[PairCase] = []
    for pos, entry in enumerate(index["cases"]):
        if not isinstance(entry, dict) or not all(
            isinstance(entry.get(key), str) for key in ("id", "g1", "g2")
        ):
            raise CorpusFormatError(f"cases[{pos}]: expected string 'id', 'g1' and 'g2'")
        g_paths = (root / entry["g1"], root / entry["g2"])
        for g_path in g_paths:
            if not g_path.is_file():
                raise CorpusFormatError(f"cases[{pos}]: missing graph file {g_path}")

        def _number(key: str) -> float | None:
            value = entry.get(key)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CorpusFormatError(f"cases[{pos}]: {key!r} must be a number or null")
            # int-float comparisons are exact, so this also refuses NaN,
            # infinities and integers past float range
            if not 0 <= value <= sys.float_info.max:
                raise CorpusFormatError(
                    f"cases[{pos}]: {key!r} must be finite and non-negative, got {value!r}"
                )
            return float(value)

        applied_edits = entry.get("applied_edits")
        if applied_edits is not None and (
            isinstance(applied_edits, bool)
            or not isinstance(applied_edits, int)
            or applied_edits < 0
        ):
            raise CorpusFormatError(
                f"cases[{pos}]: 'applied_edits' must be a non-negative integer or null"
            )
        cases.append(
            PairCase(
                case_id=entry["id"],
                g1=load_graph(g_paths[0].read_bytes()),
                g2=load_graph(g_paths[1].read_bytes()),
                true_ged=_number("true_ged"),
                applied_edits=applied_edits,
                applied_cost=_number("applied_cost"),
            )
        )
    return cases
