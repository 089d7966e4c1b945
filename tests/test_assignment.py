"""Linear assignment optimality, determinism, and permutation algebra."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gedalign import Permutation, round_to_permutation, solve_assignment
import gedalign.assignment as assignment_module
from gedalign.assignment import (
    SCALAR_MAX_ORDER,
    _augmenting_path_lap,
    _bitrows,
    _lexicographic_refine,
)
from conftest import brute_force_assignment, regularizer


def _outer_product(n: int) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    return np.outer(i, i)


def _neg_outer_product_mod3(n: int) -> np.ndarray:
    i = np.arange(n)
    return (-np.outer(i, i) % 3).astype(np.float64)


def _all_equal(n: int) -> np.ndarray:
    return np.full((n, n), 7.0)


def _one_dominant_column(n: int) -> np.ndarray:
    # column 0 is the cheapest entry of every row; the others cost 1 + row
    cost = np.repeat(np.arange(1.0, n + 1.0)[:, None], n, axis=1)
    cost[:, 0] = 0.0
    return cost


# After the column and row reduction, these leave many rows without a free
# zero column (i*j and the dominant column leave n-1 of n, (-i*j) mod 3 about
# a third), so those rows go through the augmenting search; the all-equal
# matrix is the opposite extreme, matched entirely by the greedy start.
GREEDY_ADVERSARIAL = [_outer_product, _neg_outer_product_mod3, _all_equal, _one_dominant_column]


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation((0, 0, 1))

    def test_matrix_form(self):
        p = Permutation((1, 0, 2)).matrix()
        assert np.array_equal(p, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_inverse(self):
        perm = Permutation((2, 0, 1))
        assert perm.inverse().mapping == (1, 2, 0)
        assert all(perm.inverse().mapping[perm.mapping[i]] == i for i in range(3))

    def test_rejects_float_entries(self):
        with pytest.raises(ValueError, match="integers"):
            Permutation((1.0, 0.0))

    def test_rejects_bool_entries(self):
        with pytest.raises(ValueError, match="integers"):
            Permutation((True, False))

    def test_stores_numpy_integers_as_python_ints(self):
        perm = Permutation(tuple(np.array([1, 0, 2])))
        assert perm.mapping == (1, 0, 2)
        assert all(type(j) is int for j in perm.mapping)
        assert json.dumps(perm.mapping) == "[1, 0, 2]"


def _refined_index_order(cost: np.ndarray) -> tuple[int, ...]:
    """``solve_assignment`` with the augmenting search's index-order stop in
    place of its tie stop: the refine makes the mapping independent of which
    optimum the search finds."""
    n = cost.shape[0]
    row_to_col, u, v = _augmenting_path_lap(cost)
    tight = (cost - u[:, None] - v[None, :]) <= 1e-9 * float(np.abs(cost).max(initial=1.0))
    tight[np.arange(n), row_to_col] = True
    return tuple(_lexicographic_refine(tight, row_to_col).tolist())


class TestSolveAssignment:
    def test_identity_dominant_maximization(self):
        perm = solve_assignment(-np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert perm.mapping == (0, 1)

    def test_all_equal_breaks_ties_to_identity(self):
        perm = solve_assignment(np.full((4, 4), 7.0))
        assert perm.mapping == (0, 1, 2, 3)

    def test_three_by_three_minimum(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm = solve_assignment(cost)
        assert perm.mapping == (1, 0, 2)
        assert sum(cost[i, perm.mapping[i]] for i in range(3)) == 5.0

    def test_matches_enumeration_on_random_floats(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            cost = rng.random((n, n))
            for c in (cost, -cost):  # minimize, then maximize
                perm = solve_assignment(c)
                total = sum(c[i, perm.mapping[i]] for i in range(n))
                best, _ = brute_force_assignment(c)
                assert total == best

    def test_lexicographically_smallest_optimum(self, rng):
        # small integer costs force plenty of ties
        for _ in range(80):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            for c in (cost, -cost):  # minimize, then maximize
                perm = solve_assignment(c)
                best, _ = brute_force_assignment(c)
                optima = [
                    p
                    for p in itertools.permutations(range(n))
                    if sum(c[i, p[i]] for i in range(n)) == best
                ]
                assert perm.mapping == min(optima)

    @pytest.mark.parametrize("family", GREEDY_ADVERSARIAL, ids=lambda f: f.__name__[1:])
    def test_greedy_adversarial_lexicographic_minimum(self, family):
        for n in range(1, 8):
            cost = family(n)
            for c in (cost, -cost):  # minimize, then maximize
                _, lex_first = brute_force_assignment(c)
                assert solve_assignment(c).mapping == lex_first

    @pytest.mark.parametrize("family", GREEDY_ADVERSARIAL, ids=lambda f: f.__name__[1:])
    def test_greedy_adversarial_optimum_at_n60(self, family):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        cost = family(60)
        for c in (cost, -cost):  # minimize, then maximize
            rows, cols = linear_sum_assignment(c)
            mapping = solve_assignment(c).mapping
            assert c[np.arange(60), mapping].sum() == c[rows, cols].sum()

    def test_duals_feasible_and_matching_tight(self, rng):
        for trial in range(40):
            n = int(rng.integers(1, 51))
            integer = trial % 2 == 0
            if integer:
                cost = rng.integers(-5, 6, size=(n, n)).astype(np.float64)
            else:
                cost = rng.normal(size=(n, n))
            row_to_col, u, v = _augmenting_path_lap(cost)
            assert sorted(row_to_col.tolist()) == list(range(n))
            slack = cost - u[:, None] - v[None, :]
            matched = slack[np.arange(n), row_to_col]
            if integer:
                assert slack.min() >= 0.0
                assert np.all(matched == 0.0)
            else:
                assert slack.min() >= -1e-12
                assert np.abs(matched).max() <= 1e-12

    def test_any_column_duals_start_an_optimal_solve(self, rng):
        # the warm start of the solver's direction search: arbitrary column
        # duals in place of the column minima still give an optimum
        for trial in range(60):
            n = int(rng.integers(1, 8))
            if trial % 2 == 0:
                cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            else:
                cost = rng.normal(size=(n, n))
            v = rng.normal(scale=3.0, size=n)
            given = v.copy()
            row_to_col, u, v_out = _augmenting_path_lap(cost, v)
            assert np.array_equal(v, given)  # the caller's duals are not written
            assert sorted(row_to_col.tolist()) == list(range(n))
            total = cost[np.arange(n), row_to_col].sum()
            assert total == pytest.approx(brute_force_assignment(cost)[0], abs=1e-12)
            assert (cost - u[:, None] - v_out[None, :]).min() >= -1e-12

    def test_pinned_mapping_at_n350(self):
        # hashes recorded from the augmenting-path solver that inserted every
        # row by a shortest path search, before the greedy start was added
        cost = np.random.default_rng(350).integers(0, 3, size=(350, 350)).astype(np.float64)
        digest = {
            sense: hashlib.sha256(repr(solve_assignment(c).mapping).encode()).hexdigest()
            for sense, c in (("min", cost), ("max", -cost))
        }
        assert digest == {
            "min": "28fbbf74abf663f3b107966ecc99c98968345d16cdfe41966f650ab5466f6380",
            "max": "9847cf3b4a9208af118cd7f1bd04b5c591380099cc24be60e9518cc6b2391622",
        }

    def test_pinned_mappings_at_the_tie_workload_orders(self):
        # one hash per sense over 12 {0,1,2} matrices of orders 300-400 (the
        # low-discrepancy walk of perfbench's lap_ties), recorded before the
        # refine moved from numpy rows to Python-int bitsets
        rng = np.random.default_rng(2026)
        walk = [(0.5 + k * 0.6180339887498949) % 1.0 for k in range(12)]
        orders = [300 + int(round(100 * frac)) for frac in walk]
        costs = [rng.integers(0, 3, size=(n, n)).astype(np.float64) for n in orders]
        digest = {
            sense: hashlib.sha256(
                repr([solve_assignment(sign * c).mapping for c in costs]).encode()
            ).hexdigest()
            for sense, sign in (("min", 1.0), ("max", -1.0))
        }
        assert digest == {
            "min": "4a5f9f5044865c3279c086aa0e041dcccbc0e3dae6c3b71fc622314b899e7910",
            "max": "54642a28316bd0df58c414ae7c3e3ac9d75053dd3d405e1480cbc60df71eea99",
        }

    def test_tie_stop_finds_the_index_order_mapping(self, rng):
        for n in rng.integers(1, 61, size=40):
            cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            assert solve_assignment(cost).mapping == _refined_index_order(cost)

    @pytest.mark.parametrize("family", GREEDY_ADVERSARIAL, ids=lambda f: f.__name__[1:])
    def test_tie_stop_finds_the_index_order_mapping_at_n350(self, family):
        cost = family(350)
        for c in (cost, -cost):  # minimize, then maximize
            assert solve_assignment(c).mapping == _refined_index_order(c)

    def test_deterministic(self, rng):
        cost = rng.random((6, 6))
        runs = {solve_assignment(cost).mapping for _ in range(5)}
        assert len(runs) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        # finite entries, but the duals' bound is not: cost - v would overflow
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(np.array([[1e308, -1e308], [-1e308, 1e308]]))

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 0))).mapping == ()

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
    def test_refuses_a_single_non_finite_entry(self, entry, where):
        # among entries below 1 in magnitude, a lone NaN or -inf changes
        # neither reduction's floor of 1 on its own side: it must still show
        cost = np.full((3, 3), 0.5)
        cost[where] = entry
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(cost)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_duals_bound_on_both_signs(self, sign, n):
        # one entry of either sign sets s = max |cost|; the matrix is
        # refused exactly when 12 n s passes float range
        edge = sys.float_info.max / (12 * n)
        cost = np.ones((n, n))
        cost[n - 1, 0] = sign * edge * 1.01
        with pytest.raises(ValueError, match="too large"):
            solve_assignment(cost)
        cost[n - 1, 0] = sign * edge * 0.99
        assert sorted(solve_assignment(cost).mapping) == list(range(n))
        assert solve_assignment(np.zeros((0, 0)) * sign).mapping == ()

    def test_refine_follows_an_alternating_path_through_every_row(self):
        # tight edges i -> i and i -> i+1 (mod n), starting from the shift:
        # pinning row 0 to column 0 displaces row n-1, whose only way back to
        # a free column runs through all other rows, one step per row
        n = 1200
        idx = np.arange(n)
        tight = np.zeros((n, n), dtype=bool)
        tight[idx, idx] = True
        tight[idx, (idx + 1) % n] = True
        assert np.array_equal(_lexicographic_refine(tight, (idx + 1) % n), idx)


def _both_paths(monkeypatch, cost, v, tie_stop):
    """``_augmenting_path_lap`` forced onto the list path, then onto the array
    path, each as (row_to_col, u bytes, v bytes); checks that neither writes
    the caller's ``v``."""
    results = []
    for limit in (cost.shape[0], -1):
        monkeypatch.setattr(assignment_module, "SCALAR_MAX_ORDER", limit)
        given = None if v is None else v.copy()
        row_to_col, u, v_out = _augmenting_path_lap(cost, given, stop_at_unmatched_tie=tie_stop)
        assert v is None or given.tobytes() == v.tobytes()
        results.append((row_to_col.tolist(), u.tobytes(), v_out.tobytes()))
    return results


# every order up to 16, then a few up to and past the path border
CROSS_CHECK_ORDERS = [*range(17), 32, 64, SCALAR_MAX_ORDER, SCALAR_MAX_ORDER + 3]


def _array_path_inputs():
    """Cold and warm starts above the list border: {0,1,2} ties in both senses,
    normals, and negated sparse matrices, whose zeros are -0.0 as in a
    negated alignment."""
    rng = np.random.default_rng(97128200)
    for n in (97, 128, 200):
        ties = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        sparse = np.where(rng.random((n, n)) < 0.1, rng.random((n, n)), 0.0)
        for cost in (ties, -ties, rng.normal(size=(n, n)), -sparse):
            for v in (None, rng.normal(scale=3.0, size=n)):
                yield cost, v


class TestListPath:
    """The list path for small orders against the array path, the reference,
    under both stops of the augmenting search."""

    def test_matches_the_array_path_bit_for_bit(self, monkeypatch, rng):
        for n in CROSS_CHECK_ORDERS:
            ties = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            for cost in (ties, -ties, rng.normal(size=(n, n))):
                for v in (None, rng.normal(scale=3.0, size=n)):
                    for tie_stop in (False, True):
                        lists, arrays = _both_paths(monkeypatch, cost, v, tie_stop)
                        assert lists == arrays

    @pytest.mark.parametrize("family", GREEDY_ADVERSARIAL, ids=lambda f: f.__name__[1:])
    def test_greedy_adversarial_bit_for_bit(self, monkeypatch, rng, family):
        for n in CROSS_CHECK_ORDERS[1:]:  # the families start at order 1
            cost = family(n)
            for c in (cost, -cost):
                for v in (None, rng.normal(scale=3.0, size=n)):
                    for tie_stop in (False, True):
                        lists, arrays = _both_paths(monkeypatch, c, v, tie_stop)
                        assert lists == arrays

    @pytest.mark.parametrize(
        "tie_stop, digest",
        [
            (False, "9dcd21689e304d3fa6b7ed2d2e3b38dc62b7679d501a40323573106a1b903ae5"),
            (True, "e0245e64e62de228fd4f5638e352b73e724e4f8fc0ffd8718e9730976a2a9bee"),
        ],
        ids=["index-order", "tie-stop"],
    )
    def test_array_path_bits_pinned_above_the_border(self, monkeypatch, tie_stop, digest):
        # recorded from the array path that gathered and scattered by index,
        # before it moved to boolean masks; the list path gives the same
        monkeypatch.setattr(assignment_module, "SCALAR_MAX_ORDER", -1)
        h = hashlib.sha256()
        for cost, v in _array_path_inputs():
            for part in _augmenting_path_lap(cost, v, stop_at_unmatched_tie=tie_stop):
                h.update(part.tobytes())
        assert h.hexdigest() == digest

    def test_order_alone_picks_the_path(self, monkeypatch):
        taken = []
        for name in ("_phases_on_lists", "_phases_on_arrays"):
            real = getattr(assignment_module, name)
            monkeypatch.setattr(
                assignment_module,
                name,
                lambda *args, real=real, name=name: taken.append(name) or real(*args),
            )
        for n in (0, 1, SCALAR_MAX_ORDER, SCALAR_MAX_ORDER + 1):
            _augmenting_path_lap(np.zeros((n, n)))
        assert taken == ["_phases_on_lists"] * 3 + ["_phases_on_arrays"]


# the byte-width edges and the list border, each with its neighbours
BITSET_ORDERS = [*range(18), 63, 64, 65, 95, 96, 97, 127, 128, 129]
DENSITIES = [0.0, 0.1, 0.9, 1.0]


class _PhaseTwoCalled(Exception):
    """Raised in place of phase two, carrying what phase one hands it."""


def _reference_phase_one(cost: np.ndarray, v: np.ndarray | None) -> tuple[list[int], list[int]]:
    """Phase one as the list path ran it on float rows before the bitsets,
    kept as their reference: (col_to_row with its scratch entry, free rows)."""
    n = cost.shape[0]
    v = cost.min(axis=0, initial=np.inf) if v is None else v
    slack = cost - v
    u = slack.min(axis=1, initial=np.inf).tolist()
    col_to_row = [-1] * (n + 1)
    free_rows = []
    for i, row in enumerate(slack.tolist()):
        for j in range(n):
            if row[j] == u[i] and col_to_row[j] == -1:
                col_to_row[j] = i
                break
        else:
            free_rows.append(i)
    return col_to_row, free_rows


class TestBitsets:
    """The bitset rows shared by phase one, the refine and the oracle's twins,
    and phase one on them, against plain loops."""

    def test_bitrows_match_a_per_bit_sum(self):
        rng = np.random.default_rng(34)
        for n in BITSET_ORDERS:
            for density in DENSITIES:
                mask = rng.random((n, n)) < density
                for m in (mask, mask.T):  # the refine packs the transpose too
                    expected = [sum(bool(x) << j for j, x in enumerate(row)) for row in m]
                    assert _bitrows(m) == expected

    def test_phase_one_matches_the_list_loop(self, monkeypatch):
        def stop(cost, u, v, col_to_row, free_rows, tie_stop):
            raise _PhaseTwoCalled(list(col_to_row), list(free_rows))

        for name in ("_phases_on_lists", "_phases_on_arrays"):
            monkeypatch.setattr(assignment_module, name, stop)
        rng = np.random.default_rng(3400)
        for n in BITSET_ORDERS:
            for density in DENSITIES:
                # zeros at the density, the rest 1 or 2
                cost = np.where(rng.random((n, n)) < density, 0.0, rng.integers(1, 3, (n, n)))
                for v in (None, np.zeros(n), rng.integers(0, 3, n) * 1.0, rng.normal(size=n)):
                    with pytest.raises(_PhaseTwoCalled) as called:
                        _augmenting_path_lap(cost, v)
                    assert called.value.args == _reference_phase_one(cost, v)


def _reference_refine(tight: np.ndarray, row_to_col: np.ndarray) -> np.ndarray:
    """The refine on numpy rows and columns, kept as the bitset refine's
    reference: the same searches in the same order, with one numpy call per
    candidate look-up and per row expanded."""
    n = tight.shape[0]
    col_of = row_to_col.copy()
    row_of = np.empty(n, dtype=np.int64)
    row_of[col_of] = np.arange(n)
    leftmost = tight.argmax(axis=1).tolist() if n else []
    parent = np.empty(n, dtype=np.int64)
    for i in range(n):
        current = int(col_of[i])
        if leftmost[i] == current:
            continue
        candidates = np.flatnonzero(tight[i, :current] & (row_of[:current] > i))
        if not candidates.size:
            continue
        first_holder = int(row_of[candidates[0]])
        reached = np.arange(n) <= i  # earlier rows are pinned; row i is the root
        queue = [i]
        for row in queue:
            joins = np.flatnonzero(tight[:, col_of[row]] & ~reached)
            reached[joins] = True
            parent[joins] = row
            queue.extend(joins.tolist())
            if reached[first_holder]:
                break
        taken = candidates[reached[row_of[candidates]]]
        if not taken.size:
            continue
        chain = [int(row_of[taken[0]])]
        while chain[-1] != i:
            chain.append(int(parent[chain[-1]]))
        # each row on the chain takes its parent's column; row i takes the candidate
        col_of[chain] = col_of[chain[1:] + chain[:1]]
        row_of[col_of[chain]] = chain
    return col_of


def _lexicographic_first_matching(tight: np.ndarray) -> tuple[int, ...]:
    """First perfect matching of ``tight`` in lexicographic order, by enumeration."""
    n = tight.shape[0]
    return next(p for p in itertools.permutations(range(n)) if all(tight[np.arange(n), p]))


_NAN_SEARCH = """
import numpy as np
from gedalign.assignment import _augmenting_path_lap
cost = np.full(({n}, {n}), 0.5)
cost[1, 2] = np.nan
try:
    _augmenting_path_lap(cost, stop_at_unmatched_tie={tie_stop})
except ValueError as exc:
    print("ValueError:", exc)
"""


class TestNonFiniteSearch:
    @pytest.mark.parametrize("tie_stop", [False, True], ids=["index_stop", "tie_stop"])
    @pytest.mark.parametrize("n", [3, SCALAR_MAX_ORDER + 1], ids=["lists", "arrays"])
    def test_nan_cost_raises_rather_than_hanging(self, n, tie_stop):
        # a NaN cost leaves no finite distance in the search, whose path could
        # not be traced back. The search runs in a child process, so one that
        # never ends fails here at the timeout rather than hang the suite
        src = Path(assignment_module.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-c", _NAN_SEARCH.format(n=n, tie_stop=tie_stop)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("ValueError: augmenting search found no finite distance")


class TestLexicographicRefine:
    def test_matches_enumeration_from_arbitrary_matchings(self, rng):
        # any tight graph with any perfect matching in it, not only the tight
        # graphs and matchings that the augmenting-path solver leaves
        for _ in range(150):
            n = int(rng.integers(1, 9))
            start = rng.permutation(n)
            tight = rng.random((n, n)) < rng.uniform(0.1, 0.8)
            tight[np.arange(n), start] = True
            refined = _lexicographic_refine(tight, start)
            assert tuple(refined.tolist()) == _lexicographic_first_matching(tight)

    def test_matches_the_reference_on_random_tight_graphs(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            n = int(rng.integers(0, 65))
            start = rng.permutation(n)
            tight = rng.random((n, n)) < rng.uniform(0.05, 0.9)
            tight[np.arange(n), start] = True
            refined = _lexicographic_refine(tight, start)
            assert refined.tolist() == _reference_refine(tight, start).tolist()

    def test_all_tight_from_the_reversed_matching(self):
        # row i's first candidate, column i, is held by row n - 1 - i, which
        # joins at the search's first expansion: n searches of one step each
        n = 1200
        tight = np.ones((n, n), dtype=bool)
        start = np.arange(n)[::-1].copy()
        refined = _lexicographic_refine(tight, start)
        assert refined.tolist() == list(range(n))
        assert refined.tolist() == _reference_refine(tight, start).tolist()

    def test_smallest_candidate_whose_holder_cannot_give_it_up(self):
        # row 0 would take column 0 first, but row 1 has no other tight column,
        # so row 0 takes column 1 and row 2 moves to column 2
        tight = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 1]], dtype=bool)
        refined = _lexicographic_refine(tight, np.array([2, 0, 1]))
        assert refined.tolist() == [1, 0, 2]


class TestRoundToPermutation:
    def test_permutation_is_fixed_point(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            perm = Permutation(tuple(int(x) for x in rng.permutation(n)))
            assert round_to_permutation(perm.matrix()) == perm

    def test_uniform_matrix_rounds_to_identity(self):
        assert round_to_permutation(np.full((3, 3), 1.0 / 3.0)) == Permutation.identity(3)

    def test_swapped_weight_rows(self):
        # identity-ish except rows 1 and 2 put their weight on each other
        p = np.eye(4)
        p[1, 1] = 0.2
        p[1, 2] = 0.8
        p[2, 2] = 0.1
        p[2, 1] = 0.9
        best, _ = brute_force_assignment(-p)
        perm = round_to_permutation(p)
        assert perm.mapping == (0, 2, 1, 3)
        assert sum(p[i, perm.mapping[i]] for i in range(4)) == -best

    def test_outputs_satisfy_permutation_conditions_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            h = round_to_permutation(rng.random((n, n))).matrix()
            assert np.array_equal(h.sum(axis=0), np.ones(n))
            assert np.array_equal(h.sum(axis=1), np.ones(n))
            assert regularizer(h) == 0.0
