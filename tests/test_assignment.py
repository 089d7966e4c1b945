"""Linear assignment optimality, determinism, and permutation algebra."""

import hashlib
import itertools

import numpy as np
import pytest

from gedalign import Permutation, round_to_permutation, solve_assignment
from gedalign.assignment import _augmenting_path_lap, _lexicographic_refine
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

    def test_deterministic(self, rng):
        cost = rng.random((6, 6))
        runs = {solve_assignment(cost).mapping for _ in range(5)}
        assert len(runs) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_empty_matrix(self):
        assert solve_assignment(np.zeros((0, 0))).mapping == ()

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
