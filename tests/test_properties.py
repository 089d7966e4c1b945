"""Property tests of the estimator's invariants on random small graph pairs.

The examples are derandomized, so every run checks the same pairs.
"""

import contextlib
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gedalign import (  # noqa: E402
    CostModel,
    GedError,
    Permutation,
    SolverConfig,
    adjacency,
    build_cost_matrix,
    builtin_cost_model,
    estimate_ged,
    exact_ged,
    ged_under_mapping,
    load_corpus,
    load_cost_model,
    load_graph,
    make_graph,
    pad_pair,
    save_graph,
)
import gedalign.solver as solver_module  # noqa: E402
from gedalign.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main  # noqa: E402
from gedalign.costs import MAX_COST  # noqa: E402
from gedalign.editpath import (  # noqa: E402
    _score_mapping,
    _swap_deltas,
    extract_edit_path,
    lower_bound,
)
from conftest import brute_force_ged, score_block  # noqa: E402

#: integer labels, so that case2's nearest-label substitution applies
LABELS = ("0", "1", "2", "3")


@st.composite
def graphs(draw, max_order=6):
    n = draw(st.integers(0, max_order))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    slots = list(itertools.combinations(range(n), 2))
    kept = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return make_graph(labels, [slot for slot, keep in zip(slots, kept) if keep])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g1=graphs(), g2=graphs(), setting=st.sampled_from(("case1", "case2", "case3")))
def test_bound_truth_estimate_and_replay(g1, g2, setting):
    # lower bound <= truth <= estimate, and the estimate is exactly the cost
    # of its own edit path and of replaying its mapping
    cm = builtin_cost_model(setting)
    report = estimate_ged(g1, g2, cm)
    truth = exact_ged(g1, g2, cm).ged
    replay = ged_under_mapping(pad_pair(g1, g2), report.permutation, cm)
    assert report.lower_bound is not None
    assert report.lower_bound <= truth <= report.estimated_ged
    assert report.estimated_ged == report.edit_path.total_cost == replay


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    g1=graphs(max_order=7),
    g2=graphs(max_order=7),
    setting=st.sampled_from(("case1", "case2", "case3")),
)
def test_checks_inside_a_round_lower_no_estimate(g1, g2, setting):
    # the certified checks inside a round can only end a solve at the bound,
    # so the estimate never rises above the solve without them, its edit
    # path still explains it, and a certified estimate is the truth
    cm = builtin_cost_model(setting)
    report = estimate_ged(g1, g2, cm)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "CHECK_STEPS", ())
        unchecked = estimate_ged(g1, g2, cm)
    assert report.estimated_ged <= unchecked.estimated_ged
    assert report.estimated_ged == report.edit_path.total_cost
    if report.converged_reason == solver_module.CERTIFIED_OPTIMAL:
        assert report.estimated_ged == report.lower_bound == exact_ged(g1, g2, cm).ged


def _no_descent(d, a, b, mapping, cost, k2):
    return mapping, cost


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    g1=graphs(max_order=7),
    g2=graphs(max_order=7),
    setting=st.sampled_from(("case1", "case2", "case3")),
)
def test_swap_descent_lowers_no_estimate_and_keeps_the_rounds(g1, g2, setting):
    # descent can only lower the reported cost, which stays the exact cost of
    # its own edit path and mapping. Patience and the trace count the
    # undescended candidates, so until a descended mapping certifies the
    # solve runs the undescended solve's rounds, bit for bit
    cm = builtin_cost_model(setting)
    report = estimate_ged(g1, g2, cm)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_module, "_swap_descent", _no_descent)
        undescended = estimate_ged(g1, g2, cm)
    replay = ged_under_mapping(pad_pair(g1, g2), report.permutation, cm)
    assert report.estimated_ged <= undescended.estimated_ged
    assert report.estimated_ged.hex() == report.edit_path.total_cost.hex() == replay.hex()
    if report.converged_reason == solver_module.CERTIFIED_OPTIMAL:
        assert len(report.trace) <= len(undescended.trace)
    else:
        assert report.trace == undescended.trace


#: a fractional model beside the built-in ones: its deltas are inexact sums
FRACTIONAL = CostModel(1.5, 0.7, 1.3, 0.4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    g1=graphs(max_order=8),
    g2=graphs(max_order=8),
    setting=st.sampled_from(("case1", "case2", "case3", "fractional")),
    data=st.data(),
)
def test_swap_deltas_are_symmetric_so_the_first_negative_minimum_has_i_below_j(
    g1, g2, setting, data
):
    # swap descent takes the first argmin over the whole matrix and needs no
    # mask: the deltas equal their transpose bit for bit and the diagonal is
    # +0.0, so a negative minimum first occurs above the diagonal
    cm = FRACTIONAL if setting == "fractional" else builtin_cost_model(setting)
    pair = pad_pair(g1, g2)
    n = pair.order
    a, b = adjacency(pair.g1, n), adjacency(pair.g2, n)
    d = build_cost_matrix(pair, cm)
    m = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    delta = _swap_deltas(d, a, b, m, cm.edge_cost_squared)
    assert delta.tobytes() == delta.T.tobytes()
    assert all(math.copysign(1.0, x) == 1.0 and x == 0.0 for x in delta.diagonal())
    if n and delta.min() < 0.0:
        i, j = divmod(int(delta.argmin()), n)
        assert i < j


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    g1=graphs(max_order=7),
    g2=graphs(max_order=7),
    setting=st.sampled_from(("case1", "case2", "case3")),
)
def test_lower_bound_never_exceeds_truth(g1, g2, setting):
    # the node minima plus the sorted-degree and parity slot count undercut
    # every mapping, the optimal one included
    cm = builtin_cost_model(setting)
    pair = pad_pair(g1, g2)
    a, b = adjacency(pair.g1, pair.order), adjacency(pair.g2, pair.order)
    d = build_cost_matrix(pair, cm)
    assert lower_bound(d, a, b, cm.edge_cost_squared) <= exact_ged(g1, g2, cm).ged


#: the smallest, a unit and the largest accepted cost
COSTS = st.sampled_from((0.0, 1.0, MAX_COST))


@st.composite
def extreme_cost_models(draw):
    def table():
        return {label: draw(COSTS) for label in LABELS}

    substitute = {(l1, l2): draw(COSTS) for l1, l2 in itertools.permutations(LABELS, 2)}
    return CostModel(
        edge_cost_squared=draw(st.sampled_from((1.0, MAX_COST))),  # 0 is refused
        insert_default=draw(COSTS),
        delete_default=draw(COSTS),
        substitute_default=draw(COSTS),
        insert_costs=table(),
        delete_costs=table(),
        substitute_costs=substitute,
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    g1=graphs(max_order=7),
    g2=graphs(max_order=7),
    cm=extreme_cost_models(),
    lambda_step=st.sampled_from((0.0, 0.5, MAX_COST)),
)
def test_costs_at_the_ceiling_stay_finite(g1, g2, cm, lambda_step):
    # every cost at 0, 1 or the ceiling, the regularizer step up to the
    # ceiling: no overflow warning (an error in this suite) and a finite
    # upper bound that its own edit path explains
    report = estimate_ged(g1, g2, cm, SolverConfig(lambda_step=lambda_step))
    assert math.isfinite(report.estimated_ged)
    assert report.estimated_ged >= exact_ged(g1, g2, cm).ged
    assert report.estimated_ged == report.edit_path.total_cost


#: the built-in settings, and fractional costs, whose sums take different bits
#: in different orders
ORACLE_COST_MODELS = [builtin_cost_model(s) for s in ("case1", "case2", "case3")] + [
    CostModel(edge_cost_squared=0.3, insert_default=0.1, delete_default=0.7, substitute_default=0.2),
    CostModel(
        edge_cost_squared=0.1,
        insert_default=0.2,
        delete_default=0.3,
        substitute_default=0.7,
        insert_costs={"1": 0.1, "2": 1 / 3},
        delete_costs={"0": 0.1},
    ),
]


@pytest.mark.parametrize(
    "cm", ORACLE_COST_MODELS, ids=["case1", "case2", "case3", "fractional", "fractional-per-label"]
)
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(g1=graphs(max_order=7), g2=graphs(max_order=7))
def test_exact_ged_is_the_first_cheapest_mapping(g1, g2, cm):
    # the branch and bound returns what scoring every mapping in
    # lexicographic order and keeping the first strict minimum returns: the
    # same bits and the same mapping, whatever order the costs round in
    ged, mapping = brute_force_ged(g1, g2, cm)
    result = exact_ged(g1, g2, cm)
    assert result.ged.hex() == ged.hex()
    assert result.optimal_mapping.mapping == mapping


def _reference_lower_bound(d, a, b, k2):
    """The bound on numpy's wrapped calls (``np.all``, ``ndarray.sum``,
    ``np.count_nonzero`` over rows, ``np.sort``), kept as the reference of
    ``editpath.lower_bound``: the same terms, each from the whole matrix."""
    n = d.shape[0]
    k2 = float(k2)
    if not (
        k2.is_integer()
        and bool(np.all((np.floor(d) == d) & (d < 2.0**53)))
        and bool(d.sum() + k2 * n * n < 2.0**53)
    ):
        return None
    if n == 0:
        return 0.0
    node = max(d.min(axis=1).sum(), d.min(axis=0).sum())
    deg_a = np.sort(np.count_nonzero(a, axis=1))
    deg_b = np.sort(np.count_nonzero(b, axis=1))
    slots = (int(np.abs(deg_a - deg_b).sum()) + 1) // 2
    edges = (int(deg_a.sum()) + int(deg_b.sum())) // 2
    slots += (slots - edges) % 2
    return float(node + k2 * slots)


#: integral, fractional and ceiling costs: the bound exists, or is refused for
#: a fractional cost or for sums past 2**53
SCORED_COST_MODELS = st.sampled_from(ORACLE_COST_MODELS) | extreme_cost_models()


def _matrices(g1, g2, cm):
    pair = pad_pair(g1, g2)
    n = pair.order
    return pair, build_cost_matrix(pair, cm), adjacency(pair.g1, n), adjacency(pair.g2, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g1=graphs(max_order=7), g2=graphs(max_order=7), cm=SCORED_COST_MODELS)
def test_lower_bound_equals_its_reference(g1, g2, cm):
    # empty and padded pairs included; None exactly where the reference
    # refuses, and otherwise the same bits
    _, d, a, b = _matrices(g1, g2, cm)
    bound = lower_bound(d, a, b, cm.edge_cost_squared)
    expected = _reference_lower_bound(d, a, b, cm.edge_cost_squared)
    assert (bound is None) == (expected is None)
    if bound is not None:
        assert bound.hex() == expected.hex()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g1=graphs(max_order=7), g2=graphs(max_order=7), cm=SCORED_COST_MODELS, data=st.data())
def test_one_mapping_scores_as_in_a_block_and_in_its_edit_path(g1, g2, cm, data):
    # the solver's one-mapping score has the bits of the block reference on a
    # block of one and of the edit path's total, fractional costs included
    pair, d, a, b = _matrices(g1, g2, cm)
    mapping = tuple(data.draw(st.permutations(range(pair.order))))
    k2 = cm.edge_cost_squared
    cost = _score_mapping(d, a, b, mapping, k2)
    block = score_block(d, a, b, np.array([mapping], dtype=np.int64), k2)
    assert cost.hex() == float(block[0]).hex()
    assert cost.hex() == extract_edit_path(pair, Permutation(mapping), cm).total_cost.hex()


#: names the readers look up and the drawn corpus's two graph files, so that
#: keys and strings in drawn trees sometimes mean something
NAMES = st.sampled_from(
    ("nodes", "edges", "id", "label", "default", "pairs", "cases", "g1", "a.json", "b.json")
) | st.text(max_size=2)
NUMBERS = st.integers() | st.floats()
JSON_TREES = st.recursive(
    st.none() | st.booleans() | NUMBERS | NAMES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(NAMES, kids, max_size=3),
    max_leaves=10,
)


def _shaped(fields: dict) -> st.SearchStrategy:
    """Objects with ``fields``, each value of its expected shape or any JSON
    tree."""
    return st.fixed_dictionaries({k: v | JSON_TREES for k, v in fields.items()})


NODE = _shaped({"id": st.integers(-1, 3), "label": st.text(max_size=1)})
EDGE = st.lists(st.integers(-1, 4), max_size=3)
GRAPH = _shaped({"nodes": st.lists(NODE, max_size=4), "edges": st.lists(EDGE, max_size=4)})
PAIR = st.lists(st.text(max_size=1) | NUMBERS, max_size=4)
TABLE = _shaped({"default": NUMBERS, "a": NUMBERS})
COST = _shaped(
    {"edge_cost_squared": NUMBERS, "node_insert": TABLE, "node_delete": TABLE,
     "node_substitute": _shaped({"default": NUMBERS, "pairs": st.lists(PAIR, max_size=3)})}
)  # fmt: skip
FILE = st.sampled_from(("a.json", "b.json"))
CASE = _shaped(
    {"id": st.text(max_size=1), "g1": FILE, "g2": FILE, "true_ged": NUMBERS,
     "applied_edits": st.integers(-1, 3), "applied_cost": NUMBERS}
)  # fmt: skip
INDEX = _shaped({"cases": st.lists(CASE, max_size=3)})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    graph=GRAPH | JSON_TREES,
    cost=COST | JSON_TREES,
    index=INDEX | JSON_TREES,
    a=GRAPH,
    b=GRAPH,
)
def test_readers_raise_nothing_but_ged_error(graph, cost, index, a, b):
    # a JSON document is read or refused with a GedError, never a traceback;
    # non-finite floats are written as NaN and Infinity, which json reads back
    for read, doc in ((load_graph, graph), (load_cost_model, cost)):
        try:
            read(json.dumps(doc))
        except GedError:
            pass
    with tempfile.TemporaryDirectory() as root:
        for name, doc in (("index.json", index), ("a.json", a), ("b.json", b)):
            Path(root, name).write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_corpus(root)
        except GedError:
            pass


#: ``--out``, joined to the run's directory: absent, a new file, a file under
#: a missing directory, or the directory itself
OUTS = st.sampled_from((None, "report.json", "missing/report.json", ""))
CASES = ("case1", "case2", "case3")
#: cost files that load, every cost at 0, 1 or the ceiling
COST_FILE = st.fixed_dictionaries(
    {"edge_cost_squared": st.sampled_from((1.0, MAX_COST)),
     "node_insert": st.fixed_dictionaries({"default": COSTS}),
     "node_delete": st.fixed_dictionaries({"default": COSTS})}
)  # fmt: skip


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(("estimate", "exact")),
    a=graphs().map(save_graph) | GRAPH.map(json.dumps),
    b=graphs().map(save_graph),
    cost=st.sampled_from(CASES) | (COST_FILE | COST).map(json.dumps),
    out=OUTS,
)
def test_cli_exits_with_a_documented_code(command, a, b, cost, out):
    # any graph and cost documents, and any --out, end in exit 0, 2, 3 or 4:
    # never a traceback
    with tempfile.TemporaryDirectory() as root:
        argv = [command]
        for name, text in (("a.json", a), ("b.json", b)):
            Path(root, name).write_text(text, encoding="utf-8")
            argv.append(str(Path(root, name)))
        if cost not in CASES:
            Path(root, "cost.json").write_text(cost, encoding="utf-8")
            cost = f"file:{Path(root, 'cost.json')}"
        argv += ["--cost", cost]
        if out is not None:
            argv += ["--out", str(Path(root, out))]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_SOLVER, EXIT_BUDGET)
        if code == EXIT_OK and out == "report.json":
            assert isinstance(json.loads(Path(root, out).read_text(encoding="utf-8")), dict)
