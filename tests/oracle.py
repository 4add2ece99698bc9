"""Reference solvers used to cross-check ``solve_scalar`` and
``solve_system`` in tests, a summation criterion for the verdicts on
sigma(y) - y = f, an orbit criterion for the verdict on sigma(u) = b*u,
and reference solves over Q for ``diffalg.linalg``.

They share no pipeline stage with the package.  They take from it only
its record types, the ``Poly`` and ``RatFun`` arithmetic of
``diffalg.numcore`` and ``criteria.companion_matrix``, and compute the rest
in sympy:

- ``system_oracle`` checks ``solve_system``, and ``solve_scalar`` on
  ``companion_system``: its denominator bound and its linear solve are
  sympy's;
- ``summation_oracle``: its partial fractions, factors and orbit matching
  are sympy's;
- ``hypergeom_oracle`` checks ``hypergeom_da_test`` on sympy's factors of
  b, grouped into sigma-orbits by ``sigma_orbits``, which also checks that
  a standard part keeps one factor per orbit.  The twisted-ratio
  certificate's one in-package check is ``multiplicative_standard_form``'s;
- ``fraction_solve``, textbook Gauss-Jordan elimination over ``Fraction``,
  and ``sympy_solve`` are the references of ``linalg.solve_affine``.

``tests/test_exports.py`` parses this file and holds it to that.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

import sympy
from sympy.polys.matrices import DomainMatrix

from diffalg.criteria import GroupKind, companion_matrix
from diffalg.errors import PreconditionError
from diffalg.numcore import Poly, Rat, RatFun
from diffalg.solver import MatrixRF, ScalarDiffEq, Status, VectorSolutionSpace
from diffalg.structures import DiffStructure

X = sympy.Symbol("x")
QQX = sympy.QQ[X]
QQX_FRAC = sympy.QQ.frac_field(X)


def to_sympy(p: Poly):
    """p as a sympy polynomial over QQ in x."""
    coeffs = [sympy.Rational(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, X, domain="QQ")


def companion_system(eq: ScalarDiffEq) -> tuple[MatrixRF, list[RatFun], list[list[RatFun]]]:
    """(M, c, free) with sigma(v) = M v + c + sum_k lambda_k free[k] the
    system of the order-m equation sum_i p_i sigma^i(y) = r + sum_k
    lambda_k r_k (r its pinned part, r_k its free basis in slot order) on
    v = (y, sigma(y), ..., sigma^(m-1)(y)): M = companion_matrix(ds, p),
    c = (0, ..., 0, r/p_m) and free[k] = (0, ..., 0, r_k/p_m).  M must be
    invertible, so m >= 1 and p_0 != 0.  The solutions (v, lambda) of the
    system are the (y, lambda) of the equation, as v is y and its shifts.

    The solver's universal denominator u, with x divided out in the q case,
    divides the U that ``system_oracle`` takes from this system when
    p_0, ..., p_m have no common root.  Let D be the monic lcm of the
    right-hand-side denominators; the solver's chains run from roots beta of
    b = sigma^-m(p_m D) up to roots sigma^h(beta), h >= 0, of a = p_0 D,
    each of multiplicity e at most that of beta in b and of sigma^h(beta)
    in a, stripped from both before shorter gaps.  Without a common root,
    den(M) = p_m and den(M^-1) = p_0 (its first row is -p_1/p_0, ...,
    -p_m/p_0), and a pole of r_k keeps at least its order in r_k/p_m, so
    p_m D divides A and p_0 D divides B.  A chain thus has a root of A at
    sigma^-m(beta) and of B at sigma^h(beta), a gap h + m - 1 between the
    roots of sigma^-1(A) and B, so h + m - 1 <= N.  A point
    d = sigma^j(beta) of it, 0 <= j <= h, has that root of A at
    sigma^(-1-i)(d) for i = j + m - 1 <= N, and that root of B at
    sigma^i(d) for i = h - j <= N.  The chains through d with one bottom
    beta sum to at most the multiplicity of beta in b, which A has at
    sigma^-m(beta), and those with one top to at most its multiplicity in
    a, which B has there; so the multiplicity of d in u is at most both
    sums that define U.  A common root breaks it: x sigma(y) - x(x-1) y = 0
    has u = x - 1 (the root 1 of sigma^-1(x) against that of x - 1), while
    M = (x - 1) and A = 1 give U = 1.
    """
    fixed, free = eq.split_rhs()
    p = [RatFun.from_poly(c) for c in eq.coeffs]
    n = len(p) - 1
    if n < 1 or p[0].is_zero():
        raise PreconditionError("the companion system needs order >= 1 and p_0 != 0")

    def last(r: RatFun) -> list[RatFun]:
        return [RatFun.zero()] * (n - 1) + [r / p[n]]

    return companion_matrix(eq.structure, p), last(fixed), [last(r) for r in free]


def system_oracle(
    ds: DiffStructure, m: MatrixRF, c, deg_bound: int, x_power: int = 0, free=()
) -> VectorSolutionSpace:
    """Stacked-ansatz solver for cross-checking solve_system, and
    solve_scalar on ``companion_system``, in tests.

    With vectors ``free`` = (c_1, ..., c_t) the system is
    sigma(v) = M v + c + sum_k lambda_k c_k in the unknowns v and the
    constants lambda_k, and each solution vector is v followed by its t
    lambdas as constant entries.  Every coordinate of every solution v has
    its denominator in one universal denominator U of the system (Abramov
    and Barkatou, ISSAC 1998; in the q case Abramov, Discrete Math. 246,
    2002), which ``_system_denominator`` takes from the system alone.  Let
    A = den(M) den(c) and B = den(M^-1) den(c), den(c) the lcm of the
    denominators of c and every c_k, with x divided out in the q case, and
    write o(d) for the largest pole order of v's coordinates at a point d
    (0 when none has a pole there).

    - From sigma(v) = M v + c + sum_k lambda_k c_k at d:
      o(sigma(d)) <= o(d) + mult_d(A), since M v has pole order at most
      ord_d(M) + o(d) there, and the constant terms at most ord_d(den(c)).
    - From v = M^-1 (sigma(v) - c - sum_k lambda_k c_k) at d, likewise:
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
    coordinates and the lambdas stacked into one unknown vector.  Each
    residual sigma(v_i) - sum_j M_ij v_j - sum_k lambda_k c_k,i - c_i is
    cleared over a common multiple of its denominators to a polynomial in
    sympy's QQ[x] whose coefficients must vanish, and sympy solves the
    stacked system: no cyclic vector, no lift and no solve over Q(x).  The
    space is complete among the v whose coordinates have degree (numerator
    minus denominator) at most ``deg_bound``, and in the q case valuation
    at 0 at least -``x_power``.
    """
    n, t = m.n, len(free)
    c = [RatFun._coerce(v) for v in c]
    u = _system_denominator(ds, m, [c, *free])
    if not ds.is_shift:
        u = u * Poly.monomial(1, x_power)
    q = _sympy_q(ds)
    mk = [[_to_field(f) for f in row] for row in m.entries]
    ck = [_to_field(f) for f in c]
    u_ring = _to_ring(u)
    width = u.degree + deg_bound + 1  # numerator coefficients per coordinate
    ncols = n * width + t
    s_u = _sigma(q, u_ring, 1)
    both = u_ring.lcm(s_u)
    aug, offset = {}, 0  # the augmented matrix {row: {column: value}}, right-hand column ncols
    for i in range(n):
        # residual i times den, a multiple of every denominator in it: the
        # unknown of x^e / u in coordinate j has the coefficient
        # [j = i] sigma(x)^e den/sigma(u) - x^e den M_ij/u
        consts = [-_to_field(vec[i]) for vec in free] + [ck[i]]
        den = both * functools.reduce(lambda a, b: a.lcm(b), [f.denom for f in mk[i] + consts])
        cols = {}
        for j, f in enumerate(mk[i]):
            if f:
                weight = -f.numer * den.exquo(u_ring * f.denom)
                cols.update((j * width + e, weight.mul_monom((e,))) for e in range(width))
        power = den.exquo(s_u)
        for e in range(width):
            cols[i * width + e] = cols.get(i * width + e, 0) + power
            power = power.mul_monom((1,)) + power if q is None else power.mul_term(((1,), q))
        cols.update((n * width + k, f.numer * den.exquo(f.denom)) for k, f in enumerate(consts))
        for col, poly in cols.items():
            for (e,), v in poly.items():
                aug.setdefault(offset + e, {})[col] = v
        offset += max(poly.degree() for poly in cols.values() if poly) + 1
    particular, nullsp = _solve_augmented(aug, offset, ncols)

    def unpack(vec) -> tuple[RatFun, ...]:
        coords = [RatFun(Poly(vec[j * width : (j + 1) * width]), u) for j in range(n)]
        return (*coords, *(RatFun.const(a) for a in vec[n * width :]))

    basis = tuple(unpack(v) for v in nullsp)
    if particular is None:
        return VectorSolutionSpace(
            Status.NO_SOLUTION, homogeneous_basis=basis, witness="oracle: no solution within the stacked ansatz"
        )
    return VectorSolutionSpace(Status.SOLVED, particular=unpack(particular), homogeneous_basis=basis)


def _system_denominator(ds: DiffStructure, m: MatrixRF, vectors: list[list[RatFun]]) -> Poly:
    """The monic U of ``system_oracle``, computed in sympy's QQ(x), for
    den(c) the lcm over the entries of ``vectors``: M^-1 from a
    ``DomainMatrix``, and U read off the irreducible factors of A and B,
    taken from ``factor_list`` of each denominator.  sigma maps an
    irreducible factor to one, so the gaps are the h with sigma^h(g)
    proportional to sigma^-1(f) for factors f of A and g of B, and the
    multiplicity of an irreducible in either product of U is the sum of
    those of the factors of A (or B) that its shifts reach."""
    q, x = _sympy_q(ds), QQX.ring.gens[0]
    mk = [[_to_field(f) for f in row] for row in m.entries]
    inverse = DomainMatrix(mk, (m.n, m.n), QQX_FRAC).inv()

    def lcm(dens) -> Counter:  # monic irreducible factors, x left out in the q case
        out = Counter()
        for d in set(dens):
            out |= Counter({f.monic(): e for f, e in d.factor_list()[1] if q is None or f.monic() != x})
        return out

    den_c = lcm(_to_ring(f.den) for vec in vectors for f in vec)
    fa = lcm(f.denom for row in mk for f in row) + den_c
    fb = lcm(f.denom for row in inverse.to_list() for f in row) + den_c
    gaps = [h for f in fa for g in fb if (h := _gap(q, _sigma(q, f, -1).monic(), g)) is not None]
    chain_a, chain_b = Counter(), Counter()
    for i in range(max(gaps, default=-1) + 1):
        for f, e in fa.items():
            chain_a[_sigma(q, f, -1 - i).monic()] += e
        for g, e in fb.items():
            chain_b[_sigma(q, g, i).monic()] += e
    u = math.prod((f ** min(e, chain_b[f]) for f, e in chain_a.items() if f in chain_b), start=QQX.ring.one)
    return Poly([Rat(int(v.numerator), int(v.denominator)) for v in reversed(u.to_dense())])


def _sympy_q(ds: DiffStructure):
    """q in sympy's QQ, None in the shift case."""
    return None if ds.is_shift else sympy.QQ(int(ds.q.numerator), int(ds.q.denominator))


def _sigma(q, p, k: int):
    """sigma^k(p) for p in sympy's QQ[x]: p(x + k), or p(q^k x) when q is
    not None."""
    if q is None:
        return p.shift(k)
    return p.ring({mon: v * q ** (k * mon[0]) for mon, v in p.items()})


def _gap(q, f, g) -> int | None:
    """The h >= 0 with sigma^h(g) = f, for monic irreducible f and g in
    sympy's QQ[x], or None.  In the shift case g(x + h) raises the x^(d-1)
    coefficient by d*h.  In the q case, with f and g prime to x, the
    constant term of the monic g(q^h x) is g(0)/q^(h d), so q^(h d) is the
    ratio of the constant terms and h is read off it."""
    d = f.degree()
    if g.degree() != d:
        return None
    fc, gc = f.to_dense(), g.to_dense()  # leading coefficient first
    if q is None:
        h = (fc[1] - gc[1]) / d
        h = int(h.numerator) if h.denominator == 1 else None
    else:
        h = _q_log(q**d, gc[-1] / fc[-1])
    if h is None or h < 0 or _sigma(q, g, h).monic() != f:
        return None
    return h


def sigma_orbits(ds: DiffStructure, *polys: Poly) -> list[dict]:
    """The monic irreducible factors over QQ of the nonzero ``polys``, x
    left out in the q case, grouped into sigma-orbits: one dict per orbit,
    from each factor (an element of sympy's QQ[x]) to its multiplicities in
    ``polys``, in order.  sympy's ``factor_list`` factors, and ``_gap``,
    tried both ways against an orbit's first factor, decides membership."""
    q, x = _sympy_q(ds), QQX.ring.gens[0]
    orbits: list[dict] = []
    for i, p in enumerate(polys):
        for f, e in _to_ring(p).factor_list()[1]:
            f = f.monic()
            if q is not None and f == x:
                continue
            for orbit in orbits:
                g = next(iter(orbit))
                if _gap(q, f, g) is not None or _gap(q, g, f) is not None:
                    break
            else:
                orbits.append(orbit := {})
            orbit.setdefault(f, [0] * len(polys))[i] += e
    return orbits


def hypergeom_oracle(ds: DiffStructure, b: RatFun) -> bool:
    """Whether a nonzero solution of sigma(u) = b*u is differentially
    algebraic, by the criterion that b = c*sigma(g)/g, times x^n in the q
    case, for a constant c and a rational g: since sigma maps a monic
    irreducible to a monic irreducible times a unit, b has that form exactly
    when the multiplicities of every orbit of ``sigma_orbits`` sum to zero,
    the numerator's counted positive and the denominator's negative."""
    return all(sum(m[0] - m[1] for m in orbit.values()) == 0 for orbit in sigma_orbits(ds, b.num, b.den))


def _to_field(f: RatFun):
    """f as an element of sympy's QQ(x), taken as it is: f is reduced."""
    return QQX_FRAC.field.raw_new(_to_ring(f.num), _to_ring(f.den))


def _to_ring(p: Poly):
    """p as an element of sympy's QQ[x]."""
    return QQX.ring.from_list([sympy.QQ(int(c.numerator), int(c.denominator)) for c in reversed(p.coeffs)])


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
    """The solve of ``fraction_solve`` by ``_solve_augmented``."""
    qq = sympy.QQ
    aug = {}
    for i, (row, b) in enumerate(zip(rows, rhs)):
        entries = {j: qq(int(v.numerator), int(v.denominator)) for j, v in enumerate([*row, b]) if v}
        if entries:  # sympy's sparse rows hold no empty row
            aug[i] = entries
    return _solve_augmented(aug, len(rows), len(rows[0]) if rows else 0)


def _solve_augmented(aug, nrows: int, ncols: int):
    """The solve of ``fraction_solve`` for the augmented matrix
    {row: {column: value}} over sympy's QQ, right-hand column ncols, read
    off sympy's sparse reduced row echelon form (``DomainMatrix``)."""
    red, pivots = DomainMatrix(aug, (nrows, ncols + 1), sympy.QQ).rref(method="GJ")
    dense = []
    for i in range(len(pivots)):
        row = [Fraction(0)] * (ncols + 1)
        for j, v in red.rep.get(i, {}).items():
            row[j] = Fraction(int(v.numerator), int(v.denominator))
        dense.append(row)
    return _read_off(dense, list(pivots), ncols)


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
