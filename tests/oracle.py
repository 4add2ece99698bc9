"""Brute-force ansatz solvers used to cross-check ``solve_scalar`` and
``solve_system`` in tests, and a summation criterion for the verdicts on
sigma(y) - y = f.

They share no linear algebra with the package: their linear solve is the
textbook Gauss-Jordan elimination over ``Fraction`` below, or sympy's, not
the integer kernel of ``diffalg.linalg``.  Besides the polynomial arithmetic
of ``diffalg.numcore``, each still reuses these package stages:

- ``brute_force_oracle``: ``universal_denominator`` (unless a denominator
  is supplied) and ``_verify_space``;
- ``two_sided_universal_denominator``: ``_prepare``, ``_q_valuation_floor``,
  ``orbit_gaps`` and ``radical``;
- ``system_oracle``: none; its denominator bound and its linear solve are
  sympy's;
- ``summation_oracle``: none; its partial fractions, factors and orbit
  matching are sympy's.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import pytest

from diffalg.criteria import GroupKind
from diffalg.dispersion import orbit_gaps
from diffalg.errors import PreconditionError
from diffalg.numcore import Poly, Rat, RatFun, poly_gcd, poly_lcm, radical
from diffalg.solver import (
    MatrixRF,
    ScalarDiffEq,
    SolutionSpace,
    Status,
    VectorSolutionSpace,
    _prepare,
    _q_valuation_floor,
    _verify_space,
    universal_denominator,
)
from diffalg.structures import DiffStructure, apply_sigma, sigma_poly, split_x_power


def to_sympy(p: Poly):
    """p as a sympy polynomial over QQ in x; skips the test without sympy."""
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, sympy.Symbol("x"), domain="QQ")


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


def system_oracle(
    ds: DiffStructure, m: MatrixRF, c, deg_bound: int, x_power: int = 0
) -> VectorSolutionSpace:
    """Stacked-ansatz solver for cross-checking solve_system in tests.

    Every coordinate of every solution v of sigma(v) = M v + c has its
    denominator in one universal denominator U of the system (Abramov and
    Barkatou, ISSAC 1998; in the q case Abramov, Discrete Math. 246, 2002),
    which ``_system_denominator`` takes from the system alone.  Let
    A = den(M) den(c) and B = den(M^-1) den(c), with x divided out in the
    q case, and write o(d) for the largest pole order of v's coordinates
    at a point d (0 when none has a pole there).

    - From sigma(v) = M v + c at d: o(sigma(d)) <= o(d) + mult_d(A), since
      M v has pole order at most ord_d(M) + o(d) there, and c at most
      ord_d(c).
    - From v = M^-1 (sigma(v) - c) at d, likewise:
      o(d) <= o(sigma(d)) + mult_d(B).

    The poles of v in one orbit, d != 0, run from a bottom pole beta (no
    pole at sigma^-1(beta)) to a top pole sigma^h(beta) (none at
    sigma^(h+1)(beta)).  The first bound at sigma^-1(beta) makes A vanish
    there, and the second at the top makes B vanish there, so sigma^-1(A)
    and sigma^h(B) share the root beta: h is a gap between the roots of
    sigma^-1(A) and B, at most their largest gap N.  Summing the first
    bound down from a pole d of the orbit to sigma^-1(beta), at most N + 1
    steps, gives o(d) <= sum_(i=0..N) mult_d(sigma^(-1-i)(A)); summing the
    second up to the top gives o(d) <= sum_(i=0..N) mult_d(sigma^i(B)).
    So o(d) is at most the multiplicity of d in
    U = gcd(prod_(i=0..N) sigma^(-1-i)(A), prod_(i=0..N) sigma^i(B)),
    and every den(v_j) divides U, times a power of x in the q case, where
    sigma fixes 0.  That power is the parameter ``x_power`` (ignored in the
    shift case), as the numerator degree is ``deg_bound``.

    The ansatz is v_j = P_j / u for u = U (times x^x_power in the q case)
    and deg P_j <= deg u + deg_bound, the numerator coefficients of all
    coordinates stacked into one unknown vector.  Each residual
    sigma(v_i) - sum_j M_ij v_j - c_i is built with plain rational-function
    arithmetic and cleared to a polynomial whose coefficients must vanish,
    and sympy solves the stacked system: no cyclic vector, no lift and no
    solve over Q(x).  The space is complete among the v whose coordinates
    have degree (numerator minus denominator) at most ``deg_bound``, and in
    the q case valuation at 0 at least -``x_power``.
    """
    n = m.n
    c = [RatFun._coerce(v) for v in c]
    u = _system_denominator(ds, m, c)
    if not ds.is_shift:
        u = u * Poly.monomial(1, x_power)
    columns = [(j, RatFun(Poly.monomial(1, e), u)) for j in range(n) for e in range(u.degree + deg_bound + 1)]
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
    particular, nullsp = sympy_solve(rows, rhs_vec)

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


def _system_denominator(ds: DiffStructure, m: MatrixRF, c: list[RatFun]) -> Poly:
    """The monic U of ``system_oracle``, computed in sympy: M^-1 from a
    sympy ``Matrix``, inverted as a ``DomainMatrix`` over Z(x); the shift
    gaps from sympy's ``dispersionset``; the q gaps from the irreducible
    factors of ``factor_list``."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.dispersion import dispersionset
    from sympy.polys.matrices import DomainMatrix

    x = sympy.Symbol("x")
    entries = [[to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr() for f in row] for row in m.entries]
    inverse = DomainMatrix.from_Matrix(sympy.Matrix(entries)).to_field().inv()

    def lcm(dens):
        return functools.reduce(sympy.Poly.lcm, dens, sympy.Poly(1, x, domain="QQ"))

    den_c = lcm(to_sympy(f.den) for f in c)
    a = lcm(to_sympy(f.den) for row in m.entries for f in row) * den_c
    b = lcm(
        sympy.Poly(inverse.domain.to_sympy(e).as_numer_denom()[1], x, domain="QQ")
        for row in inverse.to_list() for e in row
    ) * den_c
    if ds.is_shift:
        def sigma(p, k):
            return p.compose(sympy.Poly(x + k, x, domain="QQ"))
    else:
        q = sympy.Rational(ds.q.numerator, ds.q.denominator)
        a, b = a.terms_gcd()[1], b.terms_gcd()[1]  # divide out x

        def sigma(p, k):
            return p.compose(sympy.Poly(q**k * x, x, domain="QQ"))
    a_low = sigma(a, -1)
    if a_low.degree() <= 0 or b.degree() <= 0:  # dispersionset gives {0} for a constant
        return Poly.one()
    gaps = dispersionset(a_low, b) if ds.is_shift else _q_gaps(a_low, b, q, sigma)
    if not gaps:
        return Poly.one()
    chains_a = math.prod(sigma(a, -1 - i) for i in range(max(gaps) + 1))
    chains_b = math.prod(sigma(b, i) for i in range(max(gaps) + 1))
    u = chains_a.gcd(chains_b).monic()
    return Poly([Rat(int(v.p), int(v.q)) for v in reversed(u.all_coeffs())])


def _q_gaps(a, b, q, sigma) -> set[int]:
    """The h >= 0 with a root of a equal to q^-h times a root of b.  For
    irreducible factors f of a and g of b of one degree d, with nonzero
    constant terms, g(q^h x) is proportional to f only if q^(h d) is the
    ratio r of their monic constant terms, so h is read off r and then
    checked on the whole factor."""
    out = set()
    b_factors = [g for g, _ in b.factor_list()[1]]
    for f, _ in a.factor_list()[1]:
        d = f.degree()
        for g in b_factors:
            if g.degree() != d:
                continue
            r = (g.nth(0) * f.LC()) / (g.LC() * f.nth(0))
            step, power, h = q**d, q**0, 0
            # |q^(h d)| moves monotonically away from 1: stop once past |r|
            while abs(power) <= abs(r) if abs(step) > 1 else abs(power) >= abs(r):
                if power == r and sigma(g, h).monic() == f.monic():
                    out.add(h)
                    break
                power, h = power * step, h + 1
    return out


def summation_oracle(ds: DiffStructure, f: RatFun) -> tuple[GroupKind, Rat | None]:
    """The group of sigma(y) - y = f by Abramov's criterion (Abramov, "The
    rational component of the solution of a first-order linear recurrence
    relation with rational right-hand side", USSR Comput. Math. Math. Phys.
    15, 1975), with c the constant of a constants-level verdict.

    sympy's ``apart`` writes f as a polynomial (Laurent, in the q case) part
    plus terms a/p^j, p irreducible and monic, deg a < deg p.  Since
    sigma^h(A) - A is summable, a term over p = sigma^h(p0) (up to a unit
    kappa) may be moved back to the class base p0: a(x - h)/p0^j in the
    shift case, a(q^-h x)/(kappa^j p0^j) in the q case.  sigma maps each
    part of the decomposition to itself, so f is summable exactly when
    every class sum of moved numerators, per power j, is zero, and its
    polynomial part is summable: always in the shift case, and in the q case
    when it has no constant term, as sigma(x^k) - x^k = (q^k - 1) x^k.  A
    nonzero constant alone gives the constants level."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    q = None if ds.is_shift else sympy.Rational(ds.q.numerator, ds.q.denominator)
    constant = sympy.Rational(0)
    classes: list[tuple[object, dict]] = []  # (base p0, {power j: sum of moved numerators})
    for term in sympy.Add.make_args(sympy.apart(to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr(), x)):
        num, den = (sympy.Poly(e, x, domain="QQ") for e in term.as_numer_denom())
        unit, factors = den.factor_list()
        if not factors or (q is not None and factors[0][0].monic() == sympy.Poly(x, x, domain="QQ")):
            j = factors[0][1] if factors else 0
            constant += num.nth(j) / unit  # the x^0 coefficient of num / (unit x^j)
            continue
        ((p, j),) = factors
        a, p = num.quo_ground(unit * p.LC() ** j), p.monic()
        for base, sums in classes:
            moved = _move_to_base(p, base, a, j, q, x)
            if moved is not None:
                sums[j] = sums.get(j, sympy.Poly(0, x, domain="QQ")) + moved
                break
        else:
            classes.append((p, {j: a}))
    if any(not v.is_zero for _, sums in classes for v in sums.values()):
        return GroupKind.FULL_GA, None
    if q is not None and constant != 0:
        return GroupKind.CONSTANTS_GA, Rat(int(constant.p), int(constant.q))
    return GroupKind.TRIVIAL, None


def _move_to_base(p, base, a, j, q, x):
    """The numerator of a/p^j moved back to base^j when the monic p is
    sigma^h(base) up to a unit, else None."""
    sympy = pytest.importorskip("sympy")
    d = base.degree()
    if p.degree() != d:
        return None
    if q is None:
        h = (p.nth(d - 1) - base.nth(d - 1)) / d  # sigma^h shifts the x^(d-1) coefficient by d*h
        if not h.is_integer or base.compose(sympy.Poly(x + h, x)) != p:
            return None
        return a.compose(sympy.Poly(x - h, x))
    # p(x) = base(q^h x)/q^(h d): the constant terms give q^(-h d)
    k = _q_log(q, p.nth(0) / base.nth(0))
    if k is None or k % d:
        return None
    h = -k // d
    if base.compose(sympy.Poly(q**h * x, x)).monic() != p:
        return None
    return a.compose(sympy.Poly(q ** (-h) * x, x)).mul_ground(q ** (h * d * j))


def _q_log(q, r):
    """The integer k with q^k = r, or None (|q| != 1)."""
    step = q if (abs(q) > 1) == (abs(r) >= 1) else 1 / q
    k, power = 0, 1
    # |step^k| moves monotonically away from 1: stop once past |r|
    while abs(power) <= abs(r) if abs(step) > 1 else abs(power) >= abs(r):
        if power == r:
            return k if step == q else -k
        power, k = power * step, k + 1
    return None


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
    for c in range(ncols + 1):
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
    return _read_off(aug, pivots, ncols)


def sympy_solve(rows, rhs):
    """The solve of ``fraction_solve``, read off sympy's sparse reduced row
    echelon form of the augmented matrix (``DomainMatrix`` over QQ)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    ncols = len(rows[0]) if rows else 0
    aug = [[qq(int(v.numerator), int(v.denominator)) for v in [*row, b]] for row, b in zip(rows, rhs)]
    red, pivots = DomainMatrix(aug, (len(aug), ncols + 1), qq).to_sparse().rref(method="GJ")
    red = [[Fraction(int(qq.numer(v)), int(qq.denom(v))) for v in row] for row in red.to_list()]
    return _read_off(red, list(pivots), ncols)


def _read_off(red, pivots, ncols):
    """(particular or None, canonical nullspace) from the reduced row echelon
    form ``red`` of an augmented matrix, whose row i has its pivot in column
    pivots[i]; a pivot in the right-hand column ncols means no solution."""
    pivot_rows = [(row, pc) for row, pc in zip(red, pivots) if pc < ncols]
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in pivot_rows:
            vec[pc] = -row[fc]
        basis.append(vec)
    if ncols in pivots:
        return None, basis
    particular = [Fraction(0)] * ncols
    for row, pc in pivot_rows:
        particular[pc] = row[ncols]
    return particular, basis
