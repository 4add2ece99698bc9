"""The exact linear solve over Q (integer kernel) against sympy's reduced row
echelon form and against the Fraction reference in ``oracle.py``; the field
path over Q(x) on a small system."""

import math
import random
from fractions import Fraction

import pytest

from diffalg import RatFun
from diffalg.linalg import invert_matrix, solve_affine
from diffalg.numcore import RAT_ONE, RAT_ZERO
from oracle import fraction_solve


def _sympy_solution(rows, rhs, ncols):
    """(particular or None, canonical nullspace) read off sympy's rref of the
    augmented matrix: free variables 0, one basis vector per free column."""
    sympy = pytest.importorskip("sympy")
    aug = sympy.Matrix(
        [[sympy.Rational(v.numerator, v.denominator) for v in list(row) + [b]] for row, b in zip(rows, rhs)]
    )
    red, pivots = aug.rref()

    def entry(r, c):
        return Fraction(int(red[r, c].p), int(red[r, c].q))

    pivot_rows = [(r, pc) for r, pc in enumerate(pivots) if pc < ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in pivot_rows:
            vec[pc] = -entry(r, fc)
        basis.append(vec)
    if ncols in pivots:
        return None, basis
    particular = [Fraction(0)] * ncols
    for r, pc in pivot_rows:
        particular[pc] = entry(r, ncols)
    return particular, basis


def _rand_rational(rng):
    if rng.random() < 0.4:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))


def _rand_system(rng):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[_rand_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.choice(["full", "rank-deficient", "zero-row", "zero-column", "inconsistent"])
    if shape == "rank-deficient" and nrows > 1:
        a, b = rng.sample(range(nrows), 2)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        rows[b] = [s * v for v in rows[a]]
    elif shape == "zero-row":
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    elif shape == "zero-column":
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = Fraction(0)
    if shape == "inconsistent":
        # a zero row with a nonzero right-hand side
        rows.append([Fraction(0)] * ncols)
        rhs = [_rand_rational(rng) for _ in range(nrows)] + [Fraction(rng.choice([-2, 1, 5]), 3)]
    else:
        rhs = [_rand_rational(rng) for _ in range(nrows)]
    return rows, rhs, ncols


class TestSolveAffineOverQ:
    def test_matches_sympy_rref(self):
        rng = random.Random(2024)
        for _ in range(250):
            rows, rhs, ncols = _rand_system(rng)
            ours = solve_affine(rows, rhs, RAT_ZERO, RAT_ONE)
            assert ours == _sympy_solution(rows, rhs, ncols)
            assert ours == fraction_solve(rows, rhs)

    def test_integer_rows_scaled_per_row(self):
        rng = random.Random(7)
        for _ in range(100):
            rows, rhs, _ = _rand_system(rng)
            scaled = []
            for row, b in zip(rows, rhs):
                k = rng.randint(1, 5) * math.lcm(*[v.denominator for v in row + [b]])
                scaled.append([int(v * k) for v in row + [b]])
            ours = solve_affine([r[:-1] for r in scaled], [r[-1] for r in scaled], RAT_ZERO, RAT_ONE)
            assert ours == fraction_solve(rows, rhs)

    def test_empty_system(self):
        assert solve_affine([], [], RAT_ZERO, RAT_ONE) == ([], [])

    def test_no_columns(self):
        assert solve_affine([[], []], [Fraction(0), Fraction(0)], RAT_ZERO, RAT_ONE) == ([], [])
        assert solve_affine([[], []], [Fraction(0), Fraction(1, 2)], RAT_ZERO, RAT_ONE) == (None, [])

    def test_inconsistent_keeps_nullspace(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        particular, basis = solve_affine(rows, [Fraction(1), Fraction(3)], RAT_ZERO, RAT_ONE)
        assert particular is None
        assert basis == [[Fraction(-2), Fraction(1)]]

    def test_results_are_exact_rationals(self):
        particular, _ = solve_affine([[3, 6], [0, 7]], [1, 2], RAT_ZERO, RAT_ONE)
        assert particular == [Fraction(-5, 21), Fraction(2, 7)]
        assert all(type(v) is type(RAT_ZERO) for v in particular)


class TestFieldPath:
    def test_solve_over_qx(self):
        x = RatFun.x()
        rows = [[x, RatFun.one()], [RatFun.one(), RatFun.one() / x]]
        particular, basis = solve_affine(rows, [x * x, x], RatFun.zero(), RatFun.one())
        assert particular == [x, RatFun.zero()]
        assert basis == [[-1 / x, RatFun.one()]]

    def test_invert_over_qx(self):
        x = RatFun.x()
        m = [[x, RatFun.one()], [RatFun.zero(), x + 1]]
        inv = invert_matrix(m, RatFun.zero(), RatFun.one())
        assert inv == [[1 / x, -1 / (x * (x + 1))], [RatFun.zero(), 1 / (x + 1)]]
        assert invert_matrix([[x, x], [x, x]], RatFun.zero(), RatFun.one()) is None
