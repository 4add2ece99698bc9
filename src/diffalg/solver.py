"""Rational-solution engines for linear difference equations.

``solve_scalar`` finds the complete affine space of rational solutions of

    p_0(x)*y + p_1(x)*sigma(y) + ... + p_m(x)*sigma^m(y)
        = sum_k lambda_k * r_k(x)

over Q(x) x Q^t, where each lambda_k is either a fixed rational or a free
constant.  The pipeline is: clear denominators, normalise the operator
support, bound every solution's denominator by Abramov's universal
denominator (forward orbit chains from the roots of the shifted leading
coefficient up to those of the trailing one), bound the numerator degree by
the indicial analysis of the operator at infinity, read off the difference
basis sum_j r_j*Delta^j in the shift case (plus the analogous valuation
analysis at 0 in the q case), then solve one exact linear system for the
numerator coefficients and the free lambdas.  Negative answers are certified: either the linear system is
inconsistent inside certified bounds (NoSolution, with a witness) or the
certified bound exceeded the degree cap (BoundExceeded; never a wrong
NoSolution).  In the q case the power of x comes from
``structures.split_x_power``, and the scan for powers of q
(``q_power_roots``) from ``dispersion``, beside the q gap scan.

First-order equations with a constant twist first go through the additive
standard decomposition, which moves long pole orbits of the right-hand side
and certifies a pole-orbit obstruction; the Laurent remainder then goes
through the same ansatz as any other equation.  A first-order system is
solved through the scalar equation of one cyclic vector, coordinate 0 when
it is cyclic, else the first cyclic vector of a fixed search.  Each public
solver splits the right-hand side into its fixed part and free basis
(``ScalarDiffEq.split_rhs``) on entry, so the stages between see the free
lambdas only.  A public solver substitutes the space it returns; a criteria
procedure solves through the cores and substitutes only the certificate it
publishes.  The cores (``_solve_unverified``, ``first_order_space``,
``system_space``) substitute nothing; ``_verify_space`` fills out lambdas.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import combinations, count, product

from .dispersion import additive_standard_decomp, orbit_gaps_between, q_power_roots
from .errors import InternalVerificationError, PreconditionError, SingularMatrixError
from .linalg import FractionFreeRows, MatrixRF, common_denominator, solve_affine
from .numcore import (
    RAT_ONE,
    RAT_ZERO,
    Poly,
    Rat,
    RatFun,
    format_poly,
    integer_multiples,
    integer_roots,
    poly_gcd,
    poly_lcm,
    radical,
)
from .structures import DiffStructure, apply_sigma, sigma_poly, split_x_power

DEFAULT_DEGREE_CAP = 200


class Status(Enum):
    SOLVED = "Solved"
    NO_SOLUTION = "NoSolution"
    BOUND_EXCEEDED = "BoundExceeded"


class ScalarDiffEq(namedtuple("ScalarDiffEq", "structure coeffs rhs_basis lambda_fixed")):
    """sum_i coeffs[i] * sigma^i(y) = sum_k lambda_k * rhs_basis[k].

    ``lambda_fixed`` pins individual lambdas to rational values; a None entry
    leaves that lambda as a free constant unknown.  It is stored with one
    entry per basis function; a None argument makes every lambda free.
    """

    __slots__ = ()

    def __new__(
        cls,
        structure: DiffStructure,
        coeffs: tuple[Poly, ...],
        rhs_basis: tuple[RatFun, ...] = (),
        lambda_fixed: tuple[Rat | None, ...] | None = None,
    ):
        coeffs = tuple(c if isinstance(c, Poly) else Poly.const(c) for c in coeffs)
        rhs_basis = tuple(r if isinstance(r, RatFun) else RatFun._coerce(r) for r in rhs_basis)
        if lambda_fixed is None:
            lambda_fixed = (None,) * len(rhs_basis)
        else:
            lambda_fixed = tuple(None if v is None else Rat(v) for v in lambda_fixed)
            if len(lambda_fixed) != len(rhs_basis):
                raise PreconditionError("lambda_fixed length must match rhs_basis")
        if not coeffs or all(c.is_zero() for c in coeffs):
            raise PreconditionError("equation needs a nonzero operator")
        return tuple.__new__(cls, (structure, coeffs, rhs_basis, lambda_fixed))

    @classmethod
    def _make(cls, fields):  # so that _replace validates like the constructor
        return cls(*fields)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def split_rhs(self) -> tuple[RatFun, list[RatFun]]:
        """(fixed part sum_k lambda_k * r_k over the pinned lambdas, basis
        functions of the free lambdas in slot order)."""
        fixed_rf = RatFun.zero()
        free_basis: list[RatFun] = []
        for r, value in zip(self.rhs_basis, self.lambda_fixed):
            if value is None:
                free_basis.append(r)
            else:
                fixed_rf = fixed_rf + RatFun.const(value) * r
        return fixed_rf, free_basis

    def lambdas(self, free_values, homogeneous: bool) -> tuple[Rat, ...]:
        """The full lambda vector: ``free_values`` fill the free slots in
        order; a pinned slot keeps its value, or 0 when ``homogeneous``."""
        free = iter(free_values)
        return tuple(
            next(free) if value is None else (RAT_ZERO if homogeneous else value)
            for value in self.lambda_fixed
        )

    def rhs_value(self, lambdas: tuple[Rat, ...]) -> RatFun:
        acc = RatFun.zero()
        for lam, r in zip(lambdas, self.rhs_basis):
            if lam != 0:
                acc = acc + RatFun.const(lam) * r
        return acc

    def apply_operator(self, g: RatFun) -> RatFun:
        acc = RatFun.zero()
        for i, p in enumerate(self.coeffs):
            if not p.is_zero():
                acc = acc + RatFun.from_poly(p) * apply_sigma(self.structure, g, i)
        return acc

    def residual(self, g: RatFun, lambdas: tuple[Rat, ...]) -> RatFun:
        return self.apply_operator(g) - self.rhs_value(lambdas)


def scalar_eq_from_ratfun_coeffs(
    ds: DiffStructure,
    coeffs,
    rhs_basis=(),
    lambda_fixed=None,
) -> ScalarDiffEq:
    """Build a ScalarDiffEq from rational-function coefficients by clearing
    their common denominator (the rhs basis is scaled by the same factor, so
    the lambda semantics are unchanged)."""
    den, poly_coeffs = common_denominator([RatFun._coerce(c) for c in coeffs])
    den_rf = RatFun.from_poly(den)
    basis = tuple(RatFun._coerce(r) * den_rf for r in rhs_basis)
    return ScalarDiffEq(ds, tuple(poly_coeffs), basis, lambda_fixed)


class SolutionSpace(namedtuple(
    "SolutionSpace",
    "status particular homogeneous_basis witness universal_den degree_bound",
    defaults=(None, (), None, None, None),
)):
    """Affine space of rational solutions (g, lambda).

    Every stored pair satisfies its equation under exact substitution;
    NoSolution carries a human-readable obstruction witness.  ``particular``
    is a pair (g, lambdas), ``homogeneous_basis`` a tuple of such pairs;
    ``universal_den`` and ``degree_bound`` are the certified bounds the
    ansatz used, when one ran.
    """

    __slots__ = ()

    def homogeneous_dimension(self) -> int:
        return len(self.homogeneous_basis)

    def is_solved(self) -> bool:
        return self.status is Status.SOLVED


class VectorSolutionSpace(namedtuple(
    "VectorSolutionSpace",
    "status particular homogeneous_basis witness scalar_trace",
    defaults=(None, (), None, None),
)):
    """Solution space of a first-order system sigma(v) = M v + c, with the
    one scalar equation it was solved through, that of its cyclic vector,
    retained for audit in ``scalar_trace``."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


class _Prepared(namedtuple("_Prepared", "ds coeffs rhs_fixed rhs_free")):
    """An equation over one denominator: ``coeffs`` polynomial with nonzero
    trailing and leading entries, ``rhs_fixed`` the fixed part and
    ``rhs_free`` the free basis, both with the denominator cleared."""

    __slots__ = ()


def _prepare(ds: DiffStructure, coeffs, rhs_fixed: RatFun, rhs_free: list[RatFun]) -> _Prepared:
    den, (rhs_fixed, *rhs_free) = common_denominator([rhs_fixed, *rhs_free])
    coeffs = [p * den for p in coeffs]

    # normalise operator support: drop leading/trailing zero coefficients by
    # applying sigma^(-low) to the whole equation
    low = 0
    while coeffs[low].is_zero():
        low += 1
    high = len(coeffs) - 1
    while coeffs[high].is_zero():
        high -= 1
    coeffs = coeffs[low : high + 1]
    if low > 0:
        # sigma^(-low) keeps polynomials polynomial in both structures
        coeffs = [sigma_poly(ds, p, -low) for p in coeffs]
        rhs_fixed = sigma_poly(ds, rhs_fixed, -low)
        rhs_free = [sigma_poly(ds, p, -low) for p in rhs_free]
    return _Prepared(ds, coeffs, rhs_fixed, rhs_free)


# ---------------------------------------------------------------------------
# universal denominator
# ---------------------------------------------------------------------------


def _universal_denominator_prepared(prep: _Prepared) -> Poly:
    """A polynomial u such that den(g) | u for every rational solution g
    of the prepared equation (Abramov 1995).

    Let p_0..p_m be the denominator-cleared coefficients.  The poles of g in
    one sigma-orbit run from a bottom pole beta up to a top pole
    sigma^h(beta), h >= 0.  At the top pole only p_0*g has a pole, since
    p_1..p_m multiply sigma^i(g), whose poles there would sit above the top
    pole; so p_0 vanishes at sigma^h(beta).  At sigma^(-m)(beta) only
    p_m*sigma^m(g) has a pole, likewise; so sigma^(-m)(p_m) vanishes at
    beta.  Every pole orbit is therefore a forward chain from a root of
    sigma^(-m)(p_m) up to a root of p_0, and u is the product of those
    chains, extracted for the largest gaps h first.  In the q case the
    chains run over the prime-to-x parts and the power of x is bounded by
    the valuation analysis of the equation at 0.
    """
    ds = prep.ds
    coeffs = prep.coeffs
    m = len(coeffs) - 1
    u, _ = split_x_power(ds, coeffs[0].monic())
    if m > 0:
        leading, _ = split_x_power(ds, sigma_poly(ds, coeffs[m], -m).monic())
        u = _orbit_chains(ds, u, leading)
    if not ds.is_shift:
        u = u * Poly.monomial(1, max(0, -_q_valuation_floor(prep)))
    return u


def _orbit_chains(ds: DiffStructure, a_side: Poly, b_side: Poly) -> Poly:
    """The monic product of the forward orbit chains from roots beta of the
    shifted leading side b_side up to roots sigma^h(beta) of the trailing
    side a_side, h >= 0 (see ``_universal_denominator_prepared``), for the
    gaps h of one scan of the pair, largest first; the ends of each chain
    are stripped from both sides before shorter gaps.  The gaps depend only
    on roots, so the scan reads the squarefree parts of the sides; repeated
    factors would only raise the degree of every gcd it takes."""
    u = Poly.one()
    for h in [*reversed(orbit_gaps_between(ds, radical(a_side), radical(b_side))), 0]:
        g = poly_gcd(sigma_poly(ds, a_side, h), b_side)
        if g.degree > 0:
            a_side = a_side.exact_div(sigma_poly(ds, g, -h))
            b_side = b_side.exact_div(g)
            for j in range(h + 1):
                u = u * sigma_poly(ds, g, -j).monic()
    return u


def _q_valuation_floor(prep: _Prepared) -> int:
    """Lower bound on the valuation at 0 of any rational solution (q case)."""
    vals = [p.valuation() for p in prep.coeffs if not p.is_zero()]
    vmin_coeff = min(vals)
    psi = Poly([p[vmin_coeff] for p in prep.coeffs])
    cands = q_power_roots(prep.ds, psi)
    for r in [prep.rhs_fixed] + prep.rhs_free:
        if not r.is_zero():
            cands.append(r.valuation() - vmin_coeff)
    return min(cands, default=0)


# ---------------------------------------------------------------------------
# degree bound at infinity
# ---------------------------------------------------------------------------


def _degree_bound(ds: DiffStructure, coeffs: list[Poly], rhs_list: list[Poly]) -> int:
    """Certified bound on deg(z) for polynomial solutions z of
    sum_i coeffs[i]*sigma^i(z) = rhs, for coeffs[0] and coeffs[m] nonzero.

    Both cases read off an integer b and a nonzero polynomial P with
    L(x^d) = P(d)*x^(d+b) + lower terms, so a solution of degree d has
    P(d) = 0 or d + b = deg(rhs).  The shift case writes
    L = sum_j r_j*Delta^j in the difference basis, Delta = sigma - 1, with
    r_j = sum_(i>=j) binom(i,j)*coeffs[i] (Abramov, Bronstein and Petkovsek
    1995).  Delta^j(x^d) = d(d-1)...(d-j+1)*x^(d-j) + lower terms, so
    b = max_j (deg r_j - j) and P(d) sums lc(r_j)*d(d-1)...(d-j+1) over the
    j that attain b; P is nonzero because falling factorials are
    independent.  An operator whose r_j all vanish is zero, an internal
    fault.  In the q case b = D, the largest coefficient degree, and
    P(d) = phi(q^d) for phi the coefficients of x^D, nonzero by the choice
    of D."""
    rhs_deg = max((r.degree for r in rhs_list if not r.is_zero()), default=None)
    if ds.is_shift:
        # r_j by the Taylor shift of sum_i coeffs[i]*s^i to s = 1 + Delta
        diffs = list(coeffs)
        for k in range(len(diffs) - 1):
            for i in range(len(diffs) - 2, k - 1, -1):
                diffs[i] = diffs[i] + diffs[i + 1]
        b = max((r.degree - j for j, r in enumerate(diffs) if r), default=None)
        if b is None:
            raise InternalVerificationError("zero operator: coeffs[0] or coeffs[m] is zero")
        indicial = Poly.zero()  # by Horner's rule in the falling factorials
        for j in reversed(range(len(diffs))):
            r = diffs[j]
            indicial = indicial * Poly([-j, 1]) + (r.lc() if r and r.degree - j == b else 0)
        cands = list(integer_roots(indicial))
    else:
        b = max(p.degree for p in coeffs)
        cands = q_power_roots(ds, Poly([p[b] for p in coeffs]))
    if rhs_deg is not None:
        cands.append(rhs_deg - b)
    return max(cands, default=-1)


# ---------------------------------------------------------------------------
# the scalar solver
# ---------------------------------------------------------------------------


def solve_scalar(eq: ScalarDiffEq, degree_cap: int | None = None) -> SolutionSpace:
    """Complete affine solution space of the equation over Q(x) x Q^t."""
    prep = _prepare(eq.structure, eq.coeffs, *eq.split_rhs())
    return _verify_space(eq, _solve_unverified(prep, degree_cap))


def _solve_unverified(prep: _Prepared, degree_cap: int | None) -> SolutionSpace:
    """The solution space of a prepared equation; each pair carries the
    values of the free lambdas only."""
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    ds = prep.ds
    m = len(prep.coeffs) - 1

    if m == 0:
        return _solve_degenerate_division(prep)

    u = _universal_denominator_prepared(prep)
    # y = z/u: sigma^i(y) = sigma^i(z)/sigma^i(u); the exact (non-monic in the
    # q case) shifted denominators matter here
    shifted_u = [sigma_poly(ds, u, i) for i in range(m + 1)]
    big_u = Poly.one()
    for p in shifted_u:
        big_u = poly_lcm(big_u, p.monic())
    q_coeffs = [prep.coeffs[i] * big_u.exact_div(shifted_u[i]) for i in range(m + 1)]
    rhs_fixed = prep.rhs_fixed * big_u
    rhs_free = [r * big_u for r in prep.rhs_free]

    bound = _degree_bound(ds, q_coeffs, [rhs_fixed] + rhs_free)
    if bound > cap:
        return SolutionSpace(
            Status.BOUND_EXCEEDED,
            witness=f"certified degree bound {bound} exceeds cap {cap}",
            universal_den=u,
            degree_bound=bound,
        )

    return _solve_with_ansatz(prep, u, q_coeffs, rhs_fixed, rhs_free, bound)


def _solve_degenerate_division(prep: _Prepared) -> SolutionSpace:
    p0_rf = RatFun.from_poly(prep.coeffs[0])
    n_lam = len(prep.rhs_free)
    units = [tuple(RAT_ONE if i == k else RAT_ZERO for i in range(n_lam)) for k in range(n_lam)]
    return SolutionSpace(
        Status.SOLVED,
        particular=(RatFun.from_poly(prep.rhs_fixed) / p0_rf, (RAT_ZERO,) * n_lam),
        homogeneous_basis=tuple((RatFun.from_poly(r) / p0_rf, unit) for r, unit in zip(prep.rhs_free, units)),
        universal_den=_universal_denominator_prepared(prep),
        degree_bound=None,
    )


def _sigma_basis_columns(ds: DiffStructure, q_coeffs: list[list[int]], bound: int) -> tuple[list[list[int]], int]:
    """Integer coefficient lists (lowest first) of scale * sum_i Q_i *
    sigma^i(x^j) for each z_j, j = 0..bound, from integer coefficient lists of
    the Q_i; returns (columns, scale).  Shift columns expand (x+i)^j with
    integer binomials (scale 1).  With q = a/b the scale is b^(m*bound), and
    column j is sum_i Q_i * a^(i*j) * b^(m*bound - i*j)."""
    m = len(q_coeffs) - 1
    cols = [[] for _ in range(bound + 1)]
    if ds.is_shift:
        for i, qi in enumerate(q_coeffs):
            if not qi:
                continue
            pw = [1]  # (x + i)^j
            for j in range(bound + 1):
                col = cols[j]
                need = len(qi) + j - len(col)
                if need > 0:
                    col.extend([0] * need)
                for k, a in enumerate(qi):
                    if a:
                        for t, b in enumerate(pw):
                            col[k + t] += a * b
                if j < bound:
                    pw = [0] + pw
                    for t in range(len(pw) - 1):
                        pw[t] += i * pw[t + 1]
        return cols, 1
    top = m * bound
    a_pow, b_pow = [1], [1]
    for _ in range(top):
        a_pow.append(a_pow[-1] * ds.q.numerator)
        b_pow.append(b_pow[-1] * ds.q.denominator)
    width = max(len(c) for c in q_coeffs)
    for j in range(bound + 1):
        s = [0] * width
        for i, qi in enumerate(q_coeffs):
            f = a_pow[i * j] * b_pow[top - i * j]
            for k, c in enumerate(qi):
                if c:
                    s[k] += c * f
        cols[j] = [0] * j + s
    return cols, b_pow[top]


def _solve_with_ansatz(prep, u, q_coeffs, rhs_fixed, rhs_free, bound) -> SolutionSpace:
    ds = prep.ds
    n_lam = len(rhs_free)
    n_z = bound + 1
    # one common scale makes the whole coefficient system integral
    polys = integer_multiples(q_coeffs + [rhs_fixed] + rhs_free)
    q_int, fixed_int, free_int = polys[: len(q_coeffs)], polys[len(q_coeffs)], polys[len(q_coeffs) + 1 :]
    cols, scale = _sigma_basis_columns(ds, q_int, bound) if bound >= 0 else ([], 1)
    if scale != 1:
        fixed_int = [scale * v for v in fixed_int]
        free_int = [[scale * v for v in r] for r in free_int]
    for col in cols:
        while col and not col[-1]:
            col.pop()
    nrows = max([len(c) for c in cols] + [len(fixed_int)] + [len(r) for r in free_int] + [1])

    def at(coeffs, e):
        return coeffs[e] if e < len(coeffs) else 0

    rows = []
    for e in range(nrows):
        row = [-at(r, e) for r in free_int]
        row.extend(at(c, e) for c in cols)
        rows.append(row)
    rhs_vec = [at(fixed_int, e) for e in range(nrows)]
    particular, nullsp = solve_affine(rows, rhs_vec, RAT_ZERO, RAT_ONE)

    def unpack(vec) -> tuple[RatFun, tuple[Rat, ...]]:
        z = Poly(vec[n_lam : n_lam + n_z])
        g = RatFun(z, u.monic()) if not z.is_zero() else RatFun.zero()
        return g, tuple(vec[:n_lam])

    basis = tuple(unpack(v) for v in nullsp)
    if particular is None:
        u_text = format_poly(u) if u.degree <= 8 else f"a degree-{u.degree} polynomial"
        return SolutionSpace(
            Status.NO_SOLUTION,
            homogeneous_basis=basis,
            witness="no rational solution: with denominator bound "
            f"u = {u_text} and numerator degree bound {bound}, "
            "the coefficient system is inconsistent",
            universal_den=u,
            degree_bound=bound,
        )
    return SolutionSpace(
        Status.SOLVED,
        particular=unpack(particular),
        homogeneous_basis=basis,
        universal_den=u,
        degree_bound=bound,
    )


def _verify_space(eq: ScalarDiffEq, space: SolutionSpace) -> SolutionSpace:
    """``space`` with the free-lambda values of each pair filled out to the
    full lambda vector of ``eq`` (``ScalarDiffEq.lambdas``), the particular
    solution and every homogeneous basis vector substituted into ``eq``."""

    def full(pair, homogeneous: bool, what: str):
        g, lam = pair[0], eq.lambdas(pair[1], homogeneous)
        if not eq.residual(g, lam).is_zero():
            raise InternalVerificationError(f"{what} failed substitution")
        return g, lam

    particular = None if space.particular is None else full(space.particular, False, "particular solution")
    basis = tuple(full(pair, True, "homogeneous basis vector") for pair in space.homogeneous_basis)
    return space._replace(particular=particular, homogeneous_basis=basis)


# ---------------------------------------------------------------------------
# first-order convenience with constant-twist pole-orbit reduction
# ---------------------------------------------------------------------------


def solve_first_order(
    ds: DiffStructure, a: RatFun, rhs_basis=(), lambda_fixed=None, degree_cap: int | None = None
) -> SolutionSpace:
    """Solutions of sigma(g) - a*g = sum_k lambda_k * rhs_basis[k], a != 0."""
    return _verify_space(*first_order_space(ds, a, rhs_basis, lambda_fixed, degree_cap))


def first_order_space(
    ds: DiffStructure, a: RatFun, rhs_basis=(), lambda_fixed=None, degree_cap: int | None = None
) -> tuple[ScalarDiffEq, SolutionSpace]:
    """``solve_first_order``'s equation and its space, unsubstituted: each
    pair carries the values of the free lambdas only."""
    a = RatFun._coerce(a)
    if a.is_zero():
        raise PreconditionError("twist a must be nonzero")
    eq = scalar_eq_from_ratfun_coeffs(ds, [-a, RatFun.one()], rhs_basis, lambda_fixed)
    fixed, free = eq.split_rhs()
    if not a.is_constant() or not all(_is_laurent(ds, r) for r in free):
        return eq, _solve_unverified(_prepare(ds, eq.coeffs, fixed, free), degree_cap)
    return eq, _solve_first_order_const(ds, a.const_value(), fixed, free, degree_cap)


def _is_laurent(ds: DiffStructure, r: RatFun) -> bool:
    """A polynomial (shift) or a polynomial over a power of x (q case)."""
    return split_x_power(ds, r.den)[0].degree == 0


def _solve_first_order_const(
    ds: DiffStructure, a: Rat, rhs_fixed: RatFun, rhs_free: list[RatFun], degree_cap: int | None
) -> SolutionSpace:
    """sigma(g) - a*g = rhs_fixed + sum lambda_k rhs_free[k] with constant a,
    each pair carrying the free lambdas only.  The additive standard
    decomposition rewrites the fixed rhs as s + (sigma - a)(w), which moves
    long pole orbits without building orbit chains; an s with a pole (a
    nonzero pole in the q case) is a certified obstruction, whatever the
    degree cap.  The Laurent remainder sigma(h) - a*h = s + sum lambda_k r_k
    is solved like any scalar equation, and g = h + w; a check of g against
    the caller's equation also checks h.

    Requires every free rhs basis element to be polynomial (shift) or Laurent
    at 0 (q case); the caller guarantees this.
    """
    decomp = additive_standard_decomp(ds, rhs_fixed, a)
    s_part = decomp.standard_part
    _, frac = s_part.poly_part()
    pole_witness = None
    if not frac.is_zero() and not _is_laurent(ds, frac):
        pole_witness = (
            "pole-orbit obstruction: the standard part of the right-hand side "
            f"keeps a pole block with denominator {format_poly(frac.den)} "
            "(polar dispersion 0), which sigma(g) - a*g cannot produce"
        )
        s_part = RatFun.zero()  # solve on for the homogeneous kernel only

    rest = _solve_unverified(_prepare(ds, [Poly.const(-a), Poly.one()], s_part, rhs_free), degree_cap)
    basis = rest.homogeneous_basis
    if pole_witness is not None:
        if rest.status is Status.BOUND_EXCEEDED:
            pole_witness += f"; the homogeneous solutions are not listed: {rest.witness}"
        return SolutionSpace(Status.NO_SOLUTION, homogeneous_basis=basis, witness=pole_witness)
    if rest.status is Status.BOUND_EXCEEDED:
        return rest
    if rest.particular is None:
        return SolutionSpace(
            Status.NO_SOLUTION,
            homogeneous_basis=basis,
            witness="Laurent obstruction: the x-power coefficients of the standard part "
            "cannot be matched by sigma(g) - a*g with the available free constants",
        )
    h, lam = rest.particular
    return SolutionSpace(Status.SOLVED, particular=(h + decomp.certificate_g, lam), homogeneous_basis=basis)


# ---------------------------------------------------------------------------
# first-order systems
# ---------------------------------------------------------------------------


class _ShiftRows:
    """The rows [rho_i | gamma_i] = [P_i | G_i] / d_i, i < k, of an
    elimination (see ``_eliminate``), with the fraction-free
    elimination of P_0..P_(k-1); len is the order k of the equation."""

    __slots__ = ("elim", "dens", "gs")

    def __init__(self, elim: FractionFreeRows, dens: list[Poly], gs: list[Poly]):
        self.elim, self.dens, self.gs = elim, dens, gs

    def __len__(self) -> int:
        return len(self.elim)

    def lift(self, ds: DiffStructure, y: RatFun, inhomogeneous: bool) -> tuple[RatFun, ...]:
        """v = R^-1 (sigma^i(y) - gamma_i)_i for R = (rho_i) when k = n
        (``gamma_i`` only when ``inhomogeneous``).  With R = diag(1/d_i) P,
        v = adj(P) b / det(P) for b_i = d_i sigma^i(y) - G_i, and over the
        product of the shifted denominators of y each coordinate is one
        polynomial: one normalised ``RatFun`` per coordinate."""
        n = len(self.elim)
        nums = [sigma_poly(ds, y.num, i) for i in range(n)]
        y_dens = [sigma_poly(ds, y.den, i) for i in range(n)]
        den = Poly.one()
        for d in y_dens:
            den = den * d
        b = [d_i * t * den.exact_div(d) for d_i, t, d in zip(self.dens, nums, y_dens)]
        if inhomogeneous:
            b = [bi - g * den for bi, g in zip(b, self.gs)]
        det_den = self.elim.den * den
        return tuple(RatFun(v, det_den) for v in self.elim.solve(b))


def _eliminate(
    ds: DiffStructure, m: MatrixRF, c: list[RatFun], t: list[Poly]
) -> tuple[ScalarDiffEq, _ShiftRows]:
    """(equation, rows) for a polynomial row vector t: the minimal-order
    scalar equation satisfied by y = t . v for every solution v of
    sigma(v) = M v + c, and the rows rho_0..rho_(k-1) it came from; k == n
    exactly when t is a cyclic vector.

    Only t . sigma^k(v) of sigma^k(v) = M_k v + c_k is needed:
    sigma^k(y) = rho_k . v + gamma_k with rho_0 = t, gamma_0 = 0,
    rho_(k+1) = sigma(rho_k) M and gamma_(k+1) = sigma(rho_k) . c + sigma(gamma_k),
    that is [rho_(k+1) | gamma_(k+1)] = sigma([rho_k | gamma_k]) [[M, c], [0, 1]].
    The first rho_k in the span of rho_0..rho_(k-1) gives the relation
    sum_i e_i rho_i = 0 with e_k = 1, and the equation
    sum_i e_i sigma^i(y) = sum_i e_i gamma_i, with its coefficients cleared
    to coprime polynomials and sigma^k(y)'s made monic.

    No rational function is formed on the way: with [[M, c], [0, 1]] = N/D
    over one polynomial D, each row is a polynomial row [P_k | G_k] over one
    denominator d_k, with P_0 = t and d_0 = 1,
    [P_(k+1) | G_(k+1)] = sigma([P_k | G_k]) N and d_(k+1) = sigma(d_k) D.
    Each P_k is added to one fraction-free elimination over Q[x]
    (``linalg.FractionFreeRows``); the first dependent one returns
    sum_i c_i P_i = 0, so e_i is proportional to c_i d_i and the right-hand
    side to sum_i c_i G_i.
    """
    n = m.n
    big_d, cleared = common_denominator([*(v for row in m.entries for v in row), *c])
    num_m = [cleared[i * n : (i + 1) * n] for i in range(n)]
    num_c = cleared[n * n :]
    zero = Poly.zero()
    p_row = t
    g_k, d_k = zero, Poly.one()
    dens: list[Poly] = []
    gs: list[Poly] = []
    elim = FractionFreeRows()
    # n + 1 rows of length n are dependent, so the loop breaks by k = n
    for _ in range(n + 1):
        dens.append(d_k)
        gs.append(g_k)
        relation = elim.add(p_row)
        if relation is not None:
            break
        s_row = [sigma_poly(ds, v) for v in p_row]
        p_row = [sum((f * num_m[i][j] for i, f in enumerate(s_row) if f), zero) for j in range(n)]
        g_k = sum((f * num_c[i] for i, f in enumerate(s_row) if f), sigma_poly(ds, g_k) * big_d)
        d_k = sigma_poly(ds, d_k) * big_d
    else:
        raise InternalVerificationError("elimination found no relation")
    w = [ci * di for ci, di in zip(relation, dens)]
    rhs = sum((ci * gi for ci, gi in zip(relation, gs) if gi), zero)
    g = zero
    for wi in w:
        if wi:
            g = poly_gcd(g, wi)
    scale = g * w[-1].exact_div(g).lc()
    coeffs = tuple(wi.exact_div(scale) for wi in w)
    if rhs:
        eq = ScalarDiffEq(ds, coeffs, (RatFun(rhs, scale),), (RAT_ONE,))
    else:
        eq = ScalarDiffEq(ds, coeffs)
    return eq, _ShiftRows(elim, dens[:-1], gs[:-1])


def _candidate_vectors(n: int):
    """The row vectors t that ``solve_system`` tries, in order; each is built
    only once every earlier one has failed to be cyclic.  Among the rows of
    one degree bound, those with fewer nonzero coefficients come first, and
    among those the smaller values, so the unit vectors lead the constant
    rows."""
    zero = Poly.zero()
    yield [Poly.one()] + [zero] * (n - 1)
    yield [Poly.monomial(1, j) for j in range(n)]
    for width in count(1):
        slots = n * width  # slot s is the coefficient of x^(s % width) in entry s // width
        for size in range(1, slots + 1):
            for values in product(range(1, n + 1), repeat=size):
                for support in combinations(range(slots), size):
                    coeffs = [0] * slots
                    for slot, value in zip(support, values):
                        coeffs[slot] = value
                    yield [Poly(coeffs[j * width : (j + 1) * width]) for j in range(n)]


def solve_system(ds: DiffStructure, m: MatrixRF, c, degree_cap: int | None = None) -> VectorSolutionSpace:
    """All rational vector solutions of sigma(v) = M v + c, through the
    scalar equation e of one cyclic vector (the cyclic-vector method, van der
    Put and Singer 1997).

    A row vector t of polynomials is eliminated to the equation e of
    y = t . v (see ``_eliminate``).  t is cyclic when
    rho_0..rho_(n-1) are independent, that is when e has order n; then
    R = (rho_i) is invertible and e carries the whole system:

    - every solution v gives y = t . v with sigma^i(y) = rho_i . v + gamma_i,
      so e(y) = sum e_i gamma_i and v = R^-1 (sigma^i(y) - gamma_i)_i;
    - conversely, for every rational solution y of e, the v defined so
      satisfies sigma(R) (M v + c) = (sigma^(i+1)(y) - sigma(gamma_i))_i,
      row by row from the recurrence for rho and gamma, and for the last row
      from rho_n = -sum_(i<n) e_i rho_i and e(y); that is sigma(R) sigma(v),
      and sigma(R) is invertible, so sigma(v) = M v + c.

    So y -> v is a bijection of the rational solution spaces with inverse
    v -> t . v: the particular solution and each homogeneous basis function
    of e map to the system's (without the gammas for the latter).  R^-1 is
    adj(P) diag(d_i) / det(P) for the polynomial rows P = diag(d_i) R, read
    off the elimination that found e, so each coordinate of v is one
    normalised rational function.  The rows of sigma(R) M are
    rho_1..rho_n, so sigma(R) M = C R for the companion matrix C of e, with
    det C = +-e_0: for a cyclic t, M is invertible exactly when e_0 != 0.

    The candidates t are tried in one fixed order: e_0 = (1, 0, ..., 0),
    so that a cyclic coordinate 0 is solved through its own equation; then
    (1, x, ..., x^(n-1)); then, for J = 0, 1, 2, ..., every nonzero t whose
    entries are polynomials of degree <= J with coefficients in {0, ..., n},
    the sparsest first, so that J = 0 starts with the n unit vectors.  A
    candidate with e_0 = 0 raises ``SingularMatrixError``, and the first
    cyclic one is solved.  This is sound, and the search ends:

    1. e_0 = 0 makes M singular, whatever t.  Then sum_(i>=1) e_i rho_i = 0,
       and w = sum_(i>=1) sigma^-1(e_i) rho_(i-1) is nonzero, since e_k = 1
       and rho_0..rho_(k-1) are independent; sigma(w) M is that sum, so
       sigma(w) M = 0.
    2. A singular M ends the search within n + 2 candidates.  For i >= 1,
       rho_i = sigma(rho_(i-1)) M lies in M's row space, so a relation with
       e_0 != 0 would put t = rho_0 there too: every t outside that proper
       subspace gives e_0 = 0, and some unit vector is outside it.
    3. An invertible M ends it at a cyclic t.  rho -> sigma(rho) M is then a
       difference module on the row vectors over Q(x), and sigma has
       infinite order (|q| != 1 in the q case), so the module has a cyclic
       vector.  It can be taken polynomial, of some degree J: scaling t by
       a polynomial d scales rho_i by sigma^i(d).  Each rho_i is linear in
       the coefficients of t, so det R is a polynomial of total degree <= n
       in them, nonzero since it does not vanish at that cyclic vector.  By
       Schwartz-Zippel it cannot vanish on the whole grid with n + 1 values
       per coefficient, so some candidate of degree <= J is cyclic.

    A public solver substitutes the space it returns; a criteria procedure
    solves through the cores and substitutes only the certificate it
    publishes.  Here the vectors recovered from e are substituted into the
    system, not the scalar space into e; ``system_space`` skips that check.
    """
    c = [RatFun._coerce(v) for v in c]
    return _verify_system(ds, m, c, system_space(ds, m, c, degree_cap))


def system_space(ds: DiffStructure, m: MatrixRF, c, degree_cap: int | None = None) -> VectorSolutionSpace:
    """``solve_system``'s space, unsubstituted."""
    c = [RatFun._coerce(v) for v in c]
    n = m.n
    if len(c) != n:
        raise PreconditionError("inhomogeneous term has wrong dimension")
    for tried, t in enumerate(_candidate_vectors(n)):
        eq, rows = _eliminate(ds, m, c, t)
        if eq.coeffs[0].is_zero():
            raise SingularMatrixError("system matrix must be invertible over Q(x)")
        if len(rows) == n:
            break
    sol = _solve_unverified(_prepare(ds, eq.coeffs, *eq.split_rhs()), degree_cap)
    if sol.status is not Status.SOLVED:
        name = "coordinate 0" if tried == 0 else f"y = t.v for t = ({', '.join(map(format_poly, t))})"
        return VectorSolutionSpace(sol.status, witness=f"{name}: {sol.witness}", scalar_trace=eq)
    return VectorSolutionSpace(
        Status.SOLVED,
        particular=rows.lift(ds, sol.particular[0], True),
        homogeneous_basis=tuple(rows.lift(ds, y, False) for y, _ in sol.homogeneous_basis),
        scalar_trace=eq,
    )


def _verify_system(ds, m, c, space: VectorSolutionSpace) -> VectorSolutionSpace:
    def check(vec, inhomog: bool):
        lhs = [apply_sigma(ds, v, 1) for v in vec]
        rhs = m.mat_vec(list(vec))
        if inhomog:
            rhs = [a + b for a, b in zip(rhs, c)]
        for a, b in zip(lhs, rhs):
            if a != b:
                raise InternalVerificationError("system solution failed substitution")

    if space.particular is not None:
        check(space.particular, True)
    for vec in space.homogeneous_basis:
        check(vec, False)
    return space
