"""The exact linear solve over Q (sparse row-incremental integer kernel)
against sympy's reduced row echelon form and against the Fraction reference
in ``oracle.py``; the field path over Q(x) on a small system and through the
``MatrixRF`` inverse it serves."""

import math
import random
from fractions import Fraction

import pytest

from diffalg import (
    MatrixRF,
    Poly,
    RatFun,
    ScalarDiffEq,
    SingularMatrixError,
    parse_ratfun,
    q_structure,
    solver,
)
from diffalg.linalg import solve_affine
from diffalg.numcore import RAT_ONE, RAT_ZERO
from diffalg.parsing import parse_poly
from oracle import fraction_solve, sympy_solve


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


def _check(rows, rhs):
    """solve_affine agrees with the Fraction reference and with sympy."""
    ours = solve_affine(rows, rhs, RAT_ZERO, RAT_ONE)
    assert ours == fraction_solve(rows, rhs)
    assert ours == sympy_solve(rows, rhs)
    return ours


class TestSolveAffineOverQ:
    def test_matches_sympy_rref(self):
        rng = random.Random(2024)
        for _ in range(250):
            rows, rhs, _ = _rand_system(rng)
            _check(rows, rhs)

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


def _ansatz_system(rng, sigma, order, bound):
    """The coefficient system of sum_i p_i(x) * sigma^i(y) = rhs for a
    polynomial y of degree <= bound: column j holds the coefficients of
    sum_i p_i * sigma^i(x^j), so the rows form a band."""
    ps = [Poly([rng.randint(-4, 4) for _ in range(2)] + [rng.choice([-2, 1, 3])]) for _ in range(order + 1)]
    cols = []
    for j in range(bound + 1):
        xj = Poly.monomial(1, j)
        col = Poly.zero()
        for i, p in enumerate(ps):
            col = col + p * sigma(xj, i)
        cols.append(col)
    height = max(c.degree for c in cols) + 1
    rows = [[c[k] for c in cols] for k in range(height)]
    if rng.random() < 0.5:
        # a planted solution: consistent
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in cols]
        rhs = [sum((v * w for v, w in zip(row, y)), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
    order_ = list(range(len(rows)))
    rng.shuffle(order_)
    return [rows[k] for k in order_], [rhs[k] for k in order_]


class TestKernelShapes:
    """Inputs shaped like the solver's systems and the kernel's edge cases:
    banded ansatz systems, repeated and zero rows, right-hand-side-only
    inconsistency, rank deficiency, shared powers of two."""

    @pytest.mark.parametrize(
        "sigma",
        [
            lambda p, i: p.shift_arg(i),
            lambda p, i: p.scale_arg(Fraction(2) ** i),
            lambda p, i: p.scale_arg(Fraction(1, 4) ** i),
        ],
        ids=["shift", "q=2", "q=1/4"],
    )
    def test_banded_ansatz_systems_shuffled(self, sigma):
        rng = random.Random(11)
        for _ in range(12):
            rows, rhs = _ansatz_system(rng, sigma, rng.randint(1, 3), rng.randint(2, 12))
            _check(rows, rhs)

    def test_duplicated_and_zero_rows(self):
        rng = random.Random(5)
        for _ in range(60):
            rows, rhs, ncols = _rand_system(rng)
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(rows))
                s = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
                for row, b in (([s * v for v in rows[k]], s * rhs[k]), ([Fraction(0)] * ncols, Fraction(0))):
                    at = rng.randrange(len(rows) + 1)
                    rows.insert(at, row)
                    rhs.insert(at, b)
            _check(rows, rhs)

    def test_inconsistent_only_in_the_right_hand_side(self):
        rng = random.Random(3)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            base = [[_rand_rational(rng) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
            brhs = [_rand_rational(rng) for _ in base]
            # a combination of the rows whose right-hand side is off by one
            w = [Fraction(rng.randint(-2, 2)) for _ in base]
            combo = [sum((a * row[c] for a, row in zip(w, base)), Fraction(0)) for c in range(ncols)]
            rows = base + [combo]
            rhs = brhs + [sum((a * b for a, b in zip(w, brhs)), Fraction(0)) + 1]
            particular, _ = _check(rows, rhs)
            assert particular is None
        assert _check([[Fraction(0)] * 3] * 2, [Fraction(0), Fraction(2)])[0] is None

    def test_rank_deficient(self):
        rng = random.Random(17)
        for _ in range(40):
            nrows, ncols, rank = rng.randint(2, 8), rng.randint(2, 8), rng.randint(1, 3)
            left = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
            right = [[_rand_rational(rng) for _ in range(ncols)] for _ in range(rank)]
            rows = [[sum((l[t] * right[t][c] for t in range(rank)), Fraction(0)) for c in range(ncols)] for l in left]
            if rng.random() < 0.5:
                y = [_rand_rational(rng) for _ in range(ncols)]
                rhs = [sum((v * w for v, w in zip(row, y)), Fraction(0)) for row in rows]
            else:
                rhs = [_rand_rational(rng) for _ in rows]
            _check(rows, rhs)

    def test_rows_sharing_a_large_power_of_two(self):
        rng = random.Random(23)
        for _ in range(40):
            rows, rhs, ncols = _rand_system(rng)
            big = [2 ** rng.randint(100, 400) for _ in rows]
            rows = [[v * 2 ** rng.randint(0, 60) * k for v in row] for row, k in zip(rows, big)]
            rhs = [b * k for b, k in zip(rhs, big)]
            _check(rows, rhs)

    def test_adversarial_family_k40(self, monkeypatch):
        """The q = 1/4 equations with coefficients (1/4)^k of the solver's
        adversarial family, at k = 40: every Q system the solver builds."""
        systems = []
        real = solver.solve_affine

        def record(rows, rhs, zero, one):
            systems.append(([list(r) for r in rows], list(rhs)))
            return real(rows, rhs, zero, one)

        monkeypatch.setattr(solver, "solve_affine", record)
        coeffs = [parse_poly(t) for t in ("5*(1/4)^40*x+1", "-((1/4)^40+5)*x+2", "x+3")]
        eq = ScalarDiffEq(q_structure(Fraction(1, 4)), tuple(coeffs), (parse_ratfun("x^2+1"),), (RAT_ONE,))
        assert solver.solve_scalar(eq).is_solved()
        assert max(len(rows) for rows, _ in systems) > 40
        for rows, rhs in systems:
            _check(rows, rhs)


class TestFieldPath:
    def test_invert_over_qx(self):
        x = RatFun.x()
        m = MatrixRF([[x, RatFun.one()], [RatFun.zero(), x + 1]])
        assert m.inverse() == MatrixRF([[1 / x, -1 / (x * (x + 1))], [RatFun.zero(), 1 / (x + 1)]])
        singular = MatrixRF([[x, x], [x, x]])
        with pytest.raises(SingularMatrixError):
            singular.inverse()

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_inverse_matches_sympy_det(self, n):
        sympy = pytest.importorskip("sympy")
        sx = sympy.Symbol("x")

        def sym(cs):
            return sum(c * sx**i for i, c in enumerate(cs))

        rng = random.Random(8100 + n)
        identity = MatrixRF([[int(i == j) for j in range(n)] for i in range(n)])
        outcomes = set()
        for _ in range(25):
            # entries num/den with small integer coefficients; zeros and
            # constants are common, so some matrices come out singular
            entries = [
                [
                    ([rng.choice((0, 0, 1, -1, 2)) for _ in range(rng.randint(1, 2))],
                     [rng.randint(-2, 2), 1] if rng.random() < 0.3 else [1])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            m = MatrixRF([[RatFun(Poly(a), Poly(b)) for a, b in row] for row in entries])
            det = sympy.Matrix([[sym(a) / sym(b) for a, b in row] for row in entries]).det()
            invertible = sympy.cancel(det) != 0
            outcomes.add(invertible)
            if invertible:
                assert m @ m.inverse() == identity
            else:
                with pytest.raises(SingularMatrixError):
                    m.inverse()
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "rows",
        [
            [["x", "1", "x^2"], ["0", "0", "0"], ["1", "1/x", "x+1"]],  # zero row
            [["x", "1", "2"], ["1/(x+1)", "x", "3"], ["x", "1", "2"]],  # repeated row
            # rank one: the column (1, x, 1/(x-1)) times the row (x+2, 3, 1/x)
            [["x+2", "3", "1/x"], ["x*(x+2)", "3*x", "1"], ["(x+2)/(x-1)", "3/(x-1)", "1/(x*(x-1))"]],
        ],
    )
    def test_singular_matrix_raises(self, rows):
        m = MatrixRF([[parse_ratfun(v) for v in row] for row in rows])
        with pytest.raises(SingularMatrixError):
            m.inverse()
