"""gedalign benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload corpus_n8 --seed 20240501 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/``; nothing
needs installing. Workloads are defined in ``workloads.py``; the gated ones,
their metrics and units are read from ``BENCHMARK.json``; the printed-only
metrics and the layer-to-end-to-end map are in ``metric_map.json``.

``--trace 0`` sets the inputs up several times (``setup_s`` is the median),
then runs operations for ``--seconds`` seconds, and at least one full pass
over the distinct inputs, and reports the end-to-end metrics.

``--trace 1`` sets up once untraced and once traced, then for ``--seconds``
(at least one full pass) runs every operation twice in a row, untraced and
traced, and reports the per-layer metrics. ``trace.overhead_frac`` compares
the paired calls. Spans are written to ``.perfbench/`` at the end.

Every operation is checked. An exception or a failed check is caught here,
recorded with its traceback and counted in ``failed``; the run goes on. An
input whose outputs or work counts differ between repetitions is a failure too
(nondeterminism). The last line of stdout is the result object; the full
report, environment block and failures go to ``.perfbench/result-*.json``.
"""

from __future__ import annotations

import os

#: BLAS thread count, fixed before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import ROOTS, TRACED_MODULES, Tracer, patched, span_table  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: set-up repetitions: at least this many, more while under the time budget
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 1000
SETUP_BUDGET_S = 3.0

#: acceptance standard corpus: the first 100 pairs of corpus_n8
ACCEPTANCE_PAIRS = 100

#: matmuls per call of the kernel functions, read off their source ("computed")
MATMULS_PER_CALL = {"kernel.gradient": 4, "kernel.penalized_objective": 2, "kernel.objective": 2}

LAYERS = ("graphs", "costs", "kernel", "solver", "assignment", "editpath", "bench")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or a bad spec)."""


# -- one pass of operations ----------------------------------------------------


@dataclass
class Pass:
    op_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)  # paired with op_s
    ops: int = 0  # operations started; a traced run makes two calls per operation
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # item key -> Outcome of its first run
    totals: Counter = field(default_factory=Counter)  # work counts over traced ops
    wall_s: float = 0.0


def run_ops(wl, items, ctx, seconds, tracer=None, modules=()) -> Pass:
    """Cycle through ``items`` for ``seconds`` and at least one full pass.

    With a tracer, every operation runs twice in a row, untraced then traced,
    so the tracing overhead is measured on paired calls. Every result is
    checked and compared with the first result for the same input. Failures
    are recorded, never raised.
    """
    from workloads import CheckFailed

    out = Pass()
    start = time.perf_counter()
    i = 0
    while i < len(items) or time.perf_counter() - start < seconds:
        item = items[i % len(items)]
        for traced in (False, True) if tracer else (False,):
            out.attempted += 1
            try:
                if traced:
                    with patched(tracer, modules):
                        t0 = time.perf_counter()
                        with tracer.root("op", i):
                            result = wl.call(item, ctx)
                        out.traced_s.append(time.perf_counter() - t0)
                else:
                    t0 = time.perf_counter()
                    result = wl.call(item, ctx)
                    out.op_s.append(time.perf_counter() - t0)
                outcome = wl.check(item, ctx, result)
                prev = out.first.setdefault(item.key, outcome)
                if (prev.digest, prev.counts) != (outcome.digest, outcome.counts):
                    raise CheckFailed(
                        f"input {item.key} gave different outputs or counts "
                        f"(traced={traced}): {prev.counts} -> {outcome.counts}"
                    )
                if traced or not tracer:
                    out.totals.update(outcome.counts)
            except Exception:  # the benchmark's boundary: record and go on
                out.failures.append(
                    {"op": i, "input": item.key, "traced": traced, "traceback": traceback.format_exc()}
                )
        i += 1
    out.ops = i
    out.wall_s = time.perf_counter() - start
    return out


def digest_of(p: Pass, items) -> str:
    """Digest of every distinct input's non-timing outputs, in input order."""
    h = hashlib.sha256()
    for item in items:
        outcome = p.first.get(item.key)
        h.update((outcome.digest if outcome else "missing").encode())
    return h.hexdigest()[:16]


def distinct_counts(p: Pass) -> dict[str, int]:
    total = Counter()
    for outcome in p.first.values():
        total.update(outcome.counts)
    return dict(sorted(total.items()))


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(items, p: Pass) -> dict:
    """mae / si against oracle truths, and the mean returned value."""
    from gedalign.bench import EXACT_MATCH_TOL

    values = [p.first[it.key].value for it in items if it.key in p.first]
    out = {"mean_estimate": statistics.fmean(values) if values else None}
    truth = [it for it in items if getattr(it.data, "true_ged", None) is not None]
    for prefix, subset in (("", truth), ("acceptance_", truth[:ACCEPTANCE_PAIRS])):
        errs = [abs(p.first[it.key].value - it.data.true_ged) for it in subset if it.key in p.first]
        if errs:
            out[prefix + "mae"] = statistics.fmean(errs)
            out[prefix + "si"] = sum(e <= EXACT_MATCH_TOL for e in errs) / len(errs)
    return out


def end_to_end(setup_times, p: Pass, items) -> dict:
    """Every end-to-end metric, gated or printed only. The p90 needs at
    least 100 operations, so that ten or more lie beyond it."""
    ops = sorted(p.op_s)
    m = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": 1e3 * statistics.median(ops),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": len(p.failures) / p.attempted,
        **quality(items, p),
    }
    if len(ops) >= 100:
        p90 = statistics.quantiles(ops, n=10)[8]
        m["op_ms_p90"] = 1e3 * p90
        m["op_ms_p90_samples"] = len(ops)
        m["op_ms_p90_beyond"] = sum(t > p90 for t in ops)
    return m


def per_layer(table, p: Pass, items, orders_by_op, wanted) -> dict:
    """Per-layer metrics from the span table and the traced operations' counts.

    A span metric in ``wanted`` whose function never ran reads 0.
    """
    by_name = table["by_name"]
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    m: dict[str, float] = {}
    for name in wanted:
        span, _, stat = name.rpartition(".")
        if stat in zero:
            m[name] = by_name.get(span, zero)[stat]
    for name, row in by_name.items():
        if name not in ROOTS:
            for stat, value in row.items():
                m[f"{name}.{stat}"] = value
    for name in ("kernel.gradient", "kernel.penalized_objective"):
        row = by_name.get(name, zero)
        m[f"{name}.us_per_call"] = 1e3 * row["ms"] / row["calls"] if row["calls"] else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            row["self_ms"] for name, row in by_name.items() if name.startswith(layer + ".")
        )

    name_ids = {name: i for i, name in enumerate(table["names"])}
    op_of_span = table["op"]
    in_op = op_of_span >= 0
    matmuls = 0
    flops = 0.0
    for name, k in MATMULS_PER_CALL.items():
        if name not in name_ids:
            continue
        mask = (table["name"] == name_ids[name]) & in_op
        n = orders_by_op[op_of_span[mask]].astype(np.float64)
        matmuls += k * int(mask.sum())
        flops += float(np.sum(k * 2.0 * n**3))
    steps = by_name.get("solver.adam_step", zero)["calls"]
    m["kernel.matmuls_per_step"] = matmuls / steps if steps else 0.0
    m["kernel.gflops_computed"] = flops / 1e9

    t = p.totals
    rounds = t.get("rounds", 0)
    m["solver.rounds"] = rounds
    m["solver.inner_steps"] = t.get("inner_steps", 0)
    m["solver.capped_round_frac"] = t.get("capped_rounds", 0) / rounds if rounds else 0.0
    m["solver.improving_round_frac"] = t.get("improving_rounds", 0) / rounds if rounds else 0.0
    for reason in ("patience_exhausted", "lambda_rounds_exhausted", "divergence_detected"):
        m[f"solver.converged_reason.{reason}"] = 0
    for key, value in t.items():
        if key.startswith("converged_reason."):
            m[f"solver.{key}"] = value

    setup_perms = sum(
        math.factorial(it.order) for it in items if getattr(it.data, "true_ged", None) is not None
    )
    perms = setup_perms + t.get("perms_scored", 0)
    oracle_ms = by_name.get("editpath.exact_ged", zero)["ms"]
    m["editpath.perms_scored"] = perms
    m["editpath.perms_per_s"] = perms / (oracle_ms / 1e3) if oracle_ms else 0.0

    roots = table["name"] == name_ids.get("op", -1)
    op_time = float(table["duration_s"][roots].sum())
    op_self = float(table["self_s"][roots].sum())
    m["trace.layer_self_frac"] = 1.0 - op_self / op_time if op_time else 0.0
    m["trace.overhead_frac"] = sum(p.traced_s) / sum(p.op_s) - 1.0
    m["trace.spans"] = int(len(table["name"]))
    return m


# -- environment -------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": git_commit(),
    }


# -- entry point -----------------------------------------------------------------


def load_spec() -> tuple[dict, dict]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        extra = json.loads((BENCH_DIR / "metric_map.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read the benchmark spec: {exc}") from exc
    return spec, extra


def import_package():
    if not (SRC / "gedalign" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gedalign

    if Path(gedalign.__file__).resolve().parent != SRC / "gedalign":
        raise BenchError(f"imported gedalign from {gedalign.__file__}, not from {SRC}")


def unit_of(name: str) -> str:
    """Unit of a metric the spec does not list: span calls and times, p90 samples."""
    return "ms" if name.endswith("ms") else "count"


def require_some(p: Pass, traced: bool) -> None:
    if not p.op_s or (traced and not p.traced_s):
        raise BenchError("no operation completed:\n" + p.failures[0]["traceback"])


def select(metrics: dict, wanted: list[dict]) -> dict:
    missing = [w["name"] for w in wanted if metrics.get(w["name"]) is None]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted}


def run(args) -> int:
    spec, extra_spec = load_spec()
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env}

    if not args.trace:
        setup_times = []
        while True:
            t0 = time.perf_counter()
            items, ctx = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
            if len(setup_times) >= SETUP_MAX_REPS or (
                len(setup_times) >= SETUP_MIN_REPS and sum(setup_times) >= SETUP_BUDGET_S
            ):
                break
        p = run_ops(wl, items, ctx, args.seconds)
        require_some(p, traced=False)
        printed = end_to_end(setup_times, p, items)
        metrics = select(printed, spec["end_to_end"])
        failures = p.failures
        report.update(
            setup_reps=len(setup_times),
            ops=p.ops,
            distinct_inputs=len(items),
            wall_s=p.wall_s,
            counts=distinct_counts(p),
            digest=digest_of(p, items),
            op_ms=[1e3 * t for t in p.op_s],
        )
    else:
        modules = [sys.modules[name] for name in TRACED_MODULES]
        t0 = time.perf_counter()
        items, ctx = wl.setup(args.seed)
        setup_plain_s = time.perf_counter() - t0
        tracer = Tracer()
        with patched(tracer, modules), tracer.root("setup", -1):
            wl.setup(args.seed)
        p = run_ops(wl, items, ctx, args.seconds, tracer, modules)
        require_some(p, traced=True)
        failures = p.failures
        table = span_table(tracer)
        orders = np.array([items[i % len(items)].order for i in range(p.ops)])
        printed = per_layer(table, p, items, orders, [w["name"] for w in spec["per_layer"]])
        metrics = select(printed, spec["per_layer"])
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        report.update(
            setup_plain_s=setup_plain_s,
            ops=p.ops,
            counts=distinct_counts(p),
            digest=digest_of(p, items),
            spans_by_name=table["by_name"],
        )

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({k: v["unit"] for k, v in extra_spec["report_metrics"].items()})
    report["metrics"] = {
        k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in printed.items() if v is not None
    }
    report["failures"] = failures
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    summary = {k: report[k] for k in ("ops", "counts", "digest", "metrics")}
    print("# report " + json.dumps(summary, sort_keys=True), flush=True)
    for failure in failures[:3]:
        print(failure["traceback"], file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": p.attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240501)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
