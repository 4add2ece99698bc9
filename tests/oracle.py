"""Brute-force ansatz solvers used to cross-check ``solve_scalar`` and
``solve_system`` in tests.

They share no linear algebra with the package: their linear solve is the
textbook Gauss-Jordan elimination over ``Fraction`` below, not the integer
kernel of ``diffalg.linalg``.
"""

from __future__ import annotations

from fractions import Fraction

from diffalg.dispersion import orbit_gaps
from diffalg.errors import PreconditionError
from diffalg.numcore import Poly, RatFun, poly_gcd, poly_lcm, radical
from diffalg.solver import (
    MatrixRF,
    ScalarDiffEq,
    SolutionSpace,
    Status,
    VectorSolutionSpace,
    _prepare,
    _q_valuation_floor,
    _verify_space,
    eliminate_coordinate,
    universal_denominator,
)
from diffalg.structures import DiffStructure, apply_sigma, sigma_poly, split_x_power


def brute_force_oracle(
    ds: DiffStructure,
    eq: ScalarDiffEq,
    deg_bound: int,
    universal_den: Poly | None = None,
) -> SolutionSpace:
    """Exhaustive ansatz solver for cross-checking solve_scalar in tests.

    Tries y = (sum_j alpha_j x^j)/u with j <= deg_bound and u a supplied
    universal denominator, applying the operator to each basis function with
    plain rational-function arithmetic (no degree analysis, no polynomial
    identity shortcuts).
    """
    if deg_bound > 12:
        raise PreconditionError("oracle degree bound capped at 12")
    u = universal_den if universal_den is not None else universal_denominator(eq)
    fixed_rhs, free_basis = eq.split_rhs()

    columns: list[RatFun] = []
    for j in range(deg_bound + 1):
        basis_fn = RatFun(Poly.monomial(1, j), u)
        columns.append(eq.apply_operator(basis_fn))
    for r in free_basis:
        columns.append(-r)

    den = fixed_rhs.den
    for col in columns:
        den = poly_lcm(den, col.den)
    den_rf = RatFun.from_poly(den)
    col_polys = [(col * den_rf).num for col in columns]
    rhs_poly = (fixed_rhs * den_rf).num
    max_e = max([p.degree for p in col_polys] + [rhs_poly.degree, 0])
    rows = [[p[e] for p in col_polys] for e in range(max_e + 1)]
    rhs_vec = [rhs_poly[e] for e in range(max_e + 1)]
    particular, nullsp = fraction_solve(rows, rhs_vec)

    def unpack(vec, homogeneous: bool):
        z = Poly(vec[: deg_bound + 1])
        g = RatFun(z, u)
        return g, eq.lambdas(vec[deg_bound + 1 :], homogeneous)

    basis = tuple(unpack(v, True) for v in nullsp)
    basis = tuple(p for p in basis if not (p[0].is_zero() and all(v == 0 for v in p[1])))
    if particular is None:
        return SolutionSpace(
            Status.NO_SOLUTION,
            homogeneous_basis=basis,
            witness="oracle: no solution within the supplied ansatz",
            universal_den=u,
            degree_bound=deg_bound,
        )
    space = SolutionSpace(
        Status.SOLVED,
        particular=unpack(particular, False),
        homogeneous_basis=basis,
        universal_den=u,
        degree_bound=deg_bound,
    )
    _verify_space(eq, space)
    return space


def system_oracle(ds: DiffStructure, m: MatrixRF, c, deg_bound: int) -> VectorSolutionSpace:
    """Stacked-ansatz solver for cross-checking solve_system in tests.

    Coordinate j of every solution of sigma(v) = M v + c solves the scalar
    equation ``eliminate_coordinate(ds, m, c, j)``, so its denominator
    divides that equation's universal denominator u_j.  The ansatz is
    v_j = P_j / u_j with deg P_j <= deg u_j + deg_bound, the numerator
    coefficients of all coordinates stacked into one unknown vector.  Each
    residual sigma(v_i) - sum_j M_ij v_j - c_i is built with plain
    rational-function arithmetic and cleared to a polynomial whose
    coefficients must vanish: no cyclic vector, no lift and no solve over
    Q(x).  The space is complete among the v whose coordinates have degree
    (numerator minus denominator) at most ``deg_bound``.
    """
    n = m.n
    c = [RatFun._coerce(v) for v in c]
    columns: list[tuple[int, RatFun]] = []  # (coordinate, ansatz function)
    for j in range(n):
        u = universal_denominator(eliminate_coordinate(ds, m, c, j))
        columns += [(j, RatFun(Poly.monomial(1, e), u)) for e in range(u.degree + deg_bound + 1)]
    rows, rhs_vec = [], []
    for i in range(n):
        res = [(apply_sigma(ds, f) if j == i else RatFun.zero()) - m.entries[i][j] * f for j, f in columns]
        den = c[i].den
        for r in res:
            den = poly_lcm(den, r.den)
        den_rf = RatFun.from_poly(den)
        polys = [(r * den_rf).num for r in res]
        target = (c[i] * den_rf).num
        for e in range(max([p.degree for p in polys] + [target.degree, 0]) + 1):
            rows.append([p[e] for p in polys])
            rhs_vec.append(target[e])
    particular, nullsp = fraction_solve(rows, rhs_vec)

    def unpack(vec) -> tuple[RatFun, ...]:
        out = [RatFun.zero()] * n
        for (j, f), a in zip(columns, vec):
            if a:
                out[j] = out[j] + RatFun.const(a) * f
        return tuple(out)

    basis = tuple(unpack(v) for v in nullsp)
    if particular is None:
        return VectorSolutionSpace(
            Status.NO_SOLUTION, homogeneous_basis=basis, witness="oracle: no solution within the stacked ansatz"
        )
    return VectorSolutionSpace(Status.SOLVED, particular=unpack(particular), homogeneous_basis=basis)


def two_sided_universal_denominator(eq: ScalarDiffEq) -> Poly:
    """A wider universal denominator, kept as a reference for the sharp one
    of ``diffalg.solver.universal_denominator``: besides each forward chain
    from a root of the shifted leading coefficient up to a root of the
    trailing one, it takes the squarefree chain of every reversed pairing,
    and it scans the gaps of the product of the two sides, internal gaps
    included.  It can only enlarge u."""
    prep = _prepare(eq)
    ds, coeffs = prep.ds, prep.coeffs
    m = len(coeffs) - 1
    u, _ = split_x_power(ds, coeffs[0].monic())
    if m > 0:
        a_side = u
        b_side, _ = split_x_power(ds, sigma_poly(ds, coeffs[m], -m).monic())
        u = reversed_chains = Poly.one()
        for h in sorted(set([0] + orbit_gaps(ds, a_side * b_side)), reverse=True):
            g1 = poly_gcd(sigma_poly(ds, a_side, h), b_side)
            if g1.degree > 0:
                a_side = a_side.exact_div(sigma_poly(ds, g1, -h))
                b_side = b_side.exact_div(g1)
                u = u * _chain(ds, g1, h)
            if h > 0:
                g2 = poly_gcd(sigma_poly(ds, b_side, h), a_side)
                if g2.degree > 0:
                    reversed_chains = poly_lcm(reversed_chains, _chain(ds, radical(g2), h))
        u = poly_lcm(u, reversed_chains)
    if not ds.is_shift:
        u = u * Poly.monomial(1, max(0, -_q_valuation_floor(prep)))
    return u


def _chain(ds: DiffStructure, g: Poly, h: int) -> Poly:
    chain = Poly.one()
    for j in range(h + 1):
        chain = chain * sigma_poly(ds, g, -j).monic()
    return chain


def fraction_solve(rows, rhs):
    """Reference solve of rows * v = rhs over Q by Gauss-Jordan on Fractions.

    Returns (particular with free variables 0 or None when inconsistent,
    canonical nullspace basis with one vector per free column), the contract
    of ``diffalg.linalg.solve_affine``.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(aug, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    if any(row[ncols] for row in aug[len(pivots):]):
        return None, basis
    particular = [Fraction(0)] * ncols
    for row, pc in zip(aug, pivots):
        particular[pc] = row[ncols]
    return particular, basis
