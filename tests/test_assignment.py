"""Linear assignment optimality, determinism, and permutation algebra."""

import itertools

import numpy as np
import pytest

from gedalign import Permutation, quasi_perm_residual, round_to_permutation, solve_assignment
from gedalign.assignment import _lexicographic_refine
from conftest import brute_force_assignment


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
        perm = solve_assignment(np.array([[0.9, 0.1], [0.2, 0.8]]), "max")
        assert perm.mapping == (0, 1)

    def test_all_equal_breaks_ties_to_identity(self):
        perm = solve_assignment(np.full((4, 4), 7.0), "min")
        assert perm.mapping == (0, 1, 2, 3)

    def test_three_by_three_minimum(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        perm = solve_assignment(cost, "min")
        assert perm.mapping == (1, 0, 2)
        assert sum(cost[i, perm.mapping[i]] for i in range(3)) == 5.0

    def test_matches_enumeration_on_random_floats(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            cost = rng.random((n, n))
            for sense in ("min", "max"):
                perm = solve_assignment(cost, sense)
                total = sum(cost[i, perm.mapping[i]] for i in range(n))
                best, _ = brute_force_assignment(cost, sense)
                assert total == best

    def test_lexicographically_smallest_optimum(self, rng):
        # small integer costs force plenty of ties
        for _ in range(80):
            n = int(rng.integers(2, 6))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            for sense in ("min", "max"):
                perm = solve_assignment(cost, sense)
                best, _ = brute_force_assignment(cost, sense)
                optima = [
                    p
                    for p in itertools.permutations(range(n))
                    if sum(cost[i, p[i]] for i in range(n)) == best
                ]
                assert perm.mapping == min(optima)

    def test_deterministic(self, rng):
        cost = rng.random((6, 6))
        runs = {solve_assignment(cost, "min").mapping for _ in range(5)}
        assert len(runs) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="sense"):
            solve_assignment(np.zeros((2, 2)), "argmax")

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
        best, _ = brute_force_assignment(p, "max")
        perm = round_to_permutation(p)
        assert perm.mapping == (0, 2, 1, 3)
        assert sum(p[i, perm.mapping[i]] for i in range(4)) == best

    def test_outputs_satisfy_permutation_conditions_exactly(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            h = round_to_permutation(rng.random((n, n))).matrix()
            assert np.array_equal(h.sum(axis=0), np.ones(n))
            assert np.array_equal(h.sum(axis=1), np.ones(n))
            assert quasi_perm_residual(h) == 0.0
