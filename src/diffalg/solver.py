"""Rational-solution engines for linear difference equations.

``solve_scalar`` finds the complete affine space of rational solutions of

    p_0(x)*y + p_1(x)*sigma(y) + ... + p_m(x)*sigma^m(y)
        = sum_k lambda_k * r_k(x)

over Q(x) x Q^t, where each lambda_k is either a fixed rational or a free
constant.  The pipeline is: clear denominators, normalise the operator
support, bound every solution's denominator by Abramov's universal
denominator (forward orbit chains from the roots of the shifted leading
coefficient up to those of the trailing one), bound the numerator degree by
the indicial analysis of the operator at infinity (plus the analogous
valuation analysis at 0 in the q case), then
solve one exact linear system for the numerator coefficients and the free
lambdas.  Negative answers are certified: either the linear system is
inconsistent inside certified bounds (NoSolution, with a witness) or the
certified bound exceeded the degree cap (BoundExceeded; never a wrong
NoSolution).  In the q case the power of x comes from
``structures.split_x_power``, and the scan for powers of q
(``q_power_roots``) from ``dispersion``, beside the q gap scan.

First-order equations with a constant twist first go through the additive
standard decomposition, which moves long pole orbits of the right-hand side
and certifies a pole-orbit obstruction; the Laurent remainder then goes
through the same ansatz as any other equation.  A first-order system is
solved through the scalar equation of coordinate 0 when that coordinate is
cyclic, and otherwise uncoupled by eliminating every coordinate in ascending
index order.  Each public solver substitutes the space it returns once, at
its exit.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .dispersion import additive_standard_decomp, orbit_gaps_between, q_power_roots
from .errors import (
    InternalVerificationError,
    PreconditionError,
    SingularMatrixError,
    ZeroInputError,
)
from .linalg import FractionFreeRows, solve_affine
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
    leaves that lambda as a free constant unknown.  When omitted entirely all
    lambdas are free.
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
        if lambda_fixed is not None:
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

    def fixed_mask(self) -> tuple[Rat | None, ...]:
        if self.lambda_fixed is None:
            return (None,) * len(self.rhs_basis)
        return self.lambda_fixed

    def split_rhs(self) -> tuple[RatFun, list[RatFun]]:
        """(fixed part sum_k lambda_k * r_k over the pinned lambdas, basis
        functions of the free lambdas in slot order)."""
        fixed_rf = RatFun.zero()
        free_basis: list[RatFun] = []
        for r, value in zip(self.rhs_basis, self.fixed_mask()):
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
            for value in self.fixed_mask()
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
    den, poly_coeffs = _common_denominator([RatFun._coerce(c) for c in coeffs])
    den_rf = RatFun.from_poly(den)
    basis = tuple(RatFun._coerce(r) * den_rf for r in rhs_basis)
    return ScalarDiffEq(ds, tuple(poly_coeffs), basis, lambda_fixed)


def _common_denominator(fs: list[RatFun]) -> tuple[Poly, list[Poly]]:
    """(d, [f * d for f in fs]) for d the monic lcm of the denominators."""
    d = Poly.one()
    for f in fs:
        d = poly_lcm(d, f.den)
    return d, [f.num * d.exact_div(f.den) for f in fs]


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
    "status particular homogeneous_basis witness scalar_traces obstructed_coordinate",
    defaults=(None, (), None, (), None),
)):
    """Solution space of a first-order system sigma(v) = M v + c, with the
    eliminated scalar equations it was solved through retained for audit:
    coordinate 0's alone when that coordinate is cyclic, else one per
    coordinate up to the first that has no solution."""

    __slots__ = ()


class MatrixRF:
    """Square matrix over Q(x).  Its inverse and invertibility test clear
    each row to a polynomial row over its own denominator and run one
    fraction-free elimination over Q[x] (``linalg.FractionFreeRows``)."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(RatFun._coerce(v) for v in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise PreconditionError("MatrixRF must be square and nonempty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixRF is immutable")

    def __eq__(self, other):
        if isinstance(other, MatrixRF):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "MatrixRF") -> "MatrixRF":
        n = self.n
        return MatrixRF(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(n)), RatFun.zero())
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def mat_vec(self, vec) -> list[RatFun]:
        return [
            sum((self.entries[i][k] * vec[k] for k in range(self.n)), RatFun.zero())
            for i in range(self.n)
        ]

    def map(self, fn) -> "MatrixRF":
        return MatrixRF([[fn(v) for v in row] for row in self.entries])

    def inverse(self) -> "MatrixRF":
        """A^-1 = P^-1 diag(l_i) for P = diag(l_i) A, where l_i clears the
        denominators of row i: column i is adj(P) (l_i e_i) / det(P), one
        normalised ``RatFun`` per entry."""
        elim, dens = self._cleared_rows()
        if elim is None:
            raise SingularMatrixError("matrix is singular over Q(x)")
        zero, det, n = Poly.zero(), elim.den, self.n
        cols = [elim.solve([dens[i] if k == i else zero for k in range(n)]) for i in range(n)]
        return MatrixRF([[RatFun(col[j], det) for col in cols] for j in range(n)])

    def is_invertible(self) -> bool:
        return self._cleared_rows()[0] is not None

    def _cleared_rows(self) -> tuple[FractionFreeRows | None, list[Poly]]:
        """(the elimination of the cleared rows P, [l_i]); None for the
        elimination as soon as a row depends on the earlier ones."""
        elim, dens = FractionFreeRows(), []
        for row in self.entries:
            den, prow = _common_denominator(list(row))
            if elim.add(prow) is not None:
                return None, dens
            dens.append(den)
        return elim, dens

    def __repr__(self):
        return f"MatrixRF({self.entries!r})"


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


class _Prepared(namedtuple("_Prepared", "ds coeffs rhs_fixed rhs_free")):
    """An equation over one denominator: ``coeffs`` polynomial with nonzero
    trailing and leading entries, ``rhs_fixed`` the fixed part and
    ``rhs_free`` the free basis, both with the denominator cleared."""

    __slots__ = ()


def _prepare(eq: ScalarDiffEq) -> _Prepared:
    ds = eq.structure
    fixed_rf, free_rf = eq.split_rhs()
    den, (rhs_fixed, *rhs_free) = _common_denominator([fixed_rf, *free_rf])
    coeffs = [p * den for p in eq.coeffs]

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


def universal_denominator(eq: ScalarDiffEq) -> Poly:
    """A polynomial u such that den(g) | u for every rational solution g
    (Abramov 1995).

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
    return _universal_denominator_prepared(_prepare(eq))


def _universal_denominator_prepared(prep: _Prepared) -> Poly:
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
    side a_side, h >= 0 (see ``universal_denominator``), for the gaps h of
    one scan of the pair, largest first; the ends of each chain are
    stripped from both sides before shorter gaps.  The gaps depend only on
    roots, so the scan reads the squarefree parts of the sides; repeated
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
    cands = q_power_roots(prep.ds, psi) if not psi.is_zero() else []
    for r in [prep.rhs_fixed] + prep.rhs_free:
        if not r.is_zero():
            cands.append(r.valuation() - vmin_coeff)
    return min(cands, default=0)


# ---------------------------------------------------------------------------
# degree bound at infinity
# ---------------------------------------------------------------------------


def _degree_bound(ds: DiffStructure, coeffs: list[Poly], rhs_list: list[Poly]) -> int | None:
    """Certified bound on deg(z) for polynomial solutions z of
    sum_i coeffs[i]*sigma^i(z) = rhs; None if the analysis degenerates."""
    m = len(coeffs) - 1
    big_d = max(p.degree for p in coeffs)
    rhs_deg = max((r.degree for r in rhs_list if not r.is_zero()), default=None)
    if ds.is_shift:
        # coefficient of x^(D+d-s) in sum_i Q_i*(x+i)^d is
        # c_s(d) = sum_t binom(d,t) * [x^(D-(s-t))] A_t,  A_t = sum_i i^t Q_i;
        # the binomials (polynomials in d) are built only as far as the first
        # nonzero c_s needs them
        binoms = [Poly.one()]
        for s in range(big_d + m + 2):
            while len(binoms) <= s:
                t = len(binoms)
                binoms.append(binoms[-1] * Poly([Rat(1 - t, t), Rat(1, t)]))
            c_s = Poly.zero()
            for t in range(s + 1):
                k = big_d - (s - t)
                if k < 0:
                    continue
                beta = sum((i ** t * p[k] for i, p in enumerate(coeffs)), RAT_ZERO)  # [x^k] A_t
                if beta != 0:
                    c_s = c_s + binoms[t] * beta
            if not c_s.is_zero():
                cands = [r for r in integer_roots(c_s)]
                if rhs_deg is not None:
                    cands.append(rhs_deg - big_d + s)
                return max(cands, default=-1)
        return None
    # q case: coefficient of x^(d+D) is z_d * phi_D(q^d)
    phi = Poly([p[big_d] for p in coeffs])
    cands = q_power_roots(ds, phi)
    if rhs_deg is not None:
        cands.append(rhs_deg - big_d)
    return max(cands, default=-1)


# ---------------------------------------------------------------------------
# the scalar solver
# ---------------------------------------------------------------------------


def solve_scalar(eq: ScalarDiffEq, degree_cap: int | None = None) -> SolutionSpace:
    """Complete affine solution space of the equation over Q(x) x Q^t."""
    space = _solve_unverified(eq, degree_cap)
    _verify_space(eq, space)
    return space


def _solve_unverified(eq: ScalarDiffEq, degree_cap: int | None) -> SolutionSpace:
    cap = DEFAULT_DEGREE_CAP if degree_cap is None else degree_cap
    prep = _prepare(eq)
    ds = prep.ds
    m = len(prep.coeffs) - 1

    if m == 0:
        return _solve_degenerate_division(eq, prep)

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
    if bound is None or bound > cap:
        searched = cap if bound is None else bound
        return SolutionSpace(
            Status.BOUND_EXCEEDED,
            witness=f"certified degree bound {bound} exceeds cap {cap}"
            if bound is not None
            else f"degree analysis degenerated; cap {searched} reached",
            universal_den=u,
            degree_bound=bound,
        )

    return _solve_with_ansatz(eq, prep, u, q_coeffs, rhs_fixed, rhs_free, bound)


def _solve_degenerate_division(eq: ScalarDiffEq, prep: _Prepared) -> SolutionSpace:
    p0 = prep.coeffs[0]
    p0_rf = RatFun.from_poly(p0)
    n_lam = len(prep.rhs_free)
    units = [[RAT_ONE if i == k else RAT_ZERO for i in range(n_lam)] for k in range(n_lam)]
    return SolutionSpace(
        Status.SOLVED,
        particular=(RatFun.from_poly(prep.rhs_fixed) / p0_rf, eq.lambdas([RAT_ZERO] * n_lam, False)),
        homogeneous_basis=tuple(
            (RatFun.from_poly(r) / p0_rf, eq.lambdas(unit, True)) for r, unit in zip(prep.rhs_free, units)
        ),
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


def _solve_with_ansatz(eq, prep, u, q_coeffs, rhs_fixed, rhs_free, bound) -> SolutionSpace:
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

    def unpack(vec, homogeneous: bool) -> tuple[RatFun, tuple[Rat, ...]]:
        z = Poly(vec[n_lam : n_lam + n_z])
        g = RatFun(z, u.monic()) if not z.is_zero() else RatFun.zero()
        return g, eq.lambdas(vec[:n_lam], homogeneous)

    basis = tuple(unpack(v, True) for v in nullsp)
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
        particular=unpack(particular, False),
        homogeneous_basis=basis,
        universal_den=u,
        degree_bound=bound,
    )


def _verify_space(eq: ScalarDiffEq, space: SolutionSpace):
    """Substitute the particular solution and every homogeneous basis vector."""
    if space.particular is not None:
        g, lam = space.particular
        if not eq.residual(g, lam).is_zero():
            raise InternalVerificationError("particular solution failed substitution")
    for g, lam in space.homogeneous_basis:
        if not eq.residual(g, lam).is_zero():
            raise InternalVerificationError("homogeneous basis vector failed substitution")


# ---------------------------------------------------------------------------
# first-order convenience with constant-twist pole-orbit reduction
# ---------------------------------------------------------------------------


def solve_first_order(
    ds: DiffStructure,
    a: RatFun,
    rhs_basis=(),
    lambda_fixed=None,
    degree_cap: int | None = None,
) -> SolutionSpace:
    """Solutions of sigma(g) - a*g = sum_k lambda_k * rhs_basis[k], a != 0."""
    a = RatFun._coerce(a)
    if a.is_zero():
        raise PreconditionError("twist a must be nonzero")
    eq = scalar_eq_from_ratfun_coeffs(
        ds, [-a, RatFun.one()], rhs_basis=rhs_basis, lambda_fixed=lambda_fixed
    )
    if not a.is_constant() or not all(
        _is_laurent(ds, r) for r, fixed in zip(eq.rhs_basis, eq.fixed_mask()) if fixed is None
    ):
        return solve_scalar(eq, degree_cap=degree_cap)
    space = _solve_first_order_const(eq, a.const_value(), degree_cap=degree_cap)
    _verify_space(eq, space)
    return space


def _is_laurent(ds: DiffStructure, r: RatFun) -> bool:
    """A polynomial (shift) or a polynomial over a power of x (q case)."""
    return split_x_power(ds, r.den)[0].degree == 0


def _solve_first_order_const(eq: ScalarDiffEq, a: Rat, degree_cap: int | None = None) -> SolutionSpace:
    """sigma(g) - a*g = rhs with constant a.  The additive standard
    decomposition rewrites the fixed rhs as s + (sigma - a)(w), which moves
    long pole orbits without building orbit chains; an s with a pole (a
    nonzero pole in the q case) is a certified obstruction, whatever the
    degree cap.  The Laurent remainder sigma(h) - a*h = s + sum lambda_k r_k
    is solved like any scalar equation, and g = h + w; the caller substitutes
    g into ``eq``, which also checks h.

    Requires every free rhs basis element to be polynomial (shift) or Laurent
    at 0 (q case); the caller guarantees this.
    """
    ds = eq.structure
    fixed_rf, free_basis = eq.split_rhs()
    decomp = additive_standard_decomp(ds, fixed_rf, a)
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

    rest = _solve_unverified(
        ScalarDiffEq(ds, (-a, 1), (s_part, *free_basis), (1,) + (None,) * len(free_basis)),
        degree_cap,
    )
    basis = tuple((h, eq.lambdas(lam[1:], True)) for h, lam in rest.homogeneous_basis)
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
    particular = (h + decomp.certificate_g, eq.lambdas(lam[1:], False))
    return SolutionSpace(Status.SOLVED, particular=particular, homogeneous_basis=basis)


# ---------------------------------------------------------------------------
# first-order systems
# ---------------------------------------------------------------------------


def eliminate_coordinate(
    ds: DiffStructure, m: MatrixRF, c, coord: int
) -> ScalarDiffEq:
    """The minimal-order scalar equation satisfied by coordinate ``coord`` of
    every solution of sigma(v) = M v + c.

    Only row ``coord`` of sigma^k(v) = M_k v + c_k is needed:
    sigma^k(v_coord) = rho_k . v + gamma_k with rho_0 = e_coord, gamma_0 = 0,
    rho_(k+1) = sigma(rho_k) M and gamma_(k+1) = sigma(rho_k) . c + sigma(gamma_k),
    that is [rho_(k+1) | gamma_(k+1)] = sigma([rho_k | gamma_k]) [[M, c], [0, 1]].
    The first rho_k in the span of rho_0..rho_(k-1) gives the relation
    sum_i e_i rho_i = 0 with e_k = 1, and the equation
    sum_i e_i sigma^i(y) = sum_i e_i gamma_i, with its coefficients cleared
    to coprime polynomials and sigma^k(y)'s made monic.

    No rational function is formed on the way: with [[M, c], [0, 1]] = N/D
    over one polynomial D, each row is a polynomial row [P_k | G_k] over one
    denominator d_k, [P_(k+1) | G_(k+1)] = sigma([P_k | G_k]) N and
    d_(k+1) = sigma(d_k) D.  Each P_k is added to one fraction-free
    elimination over Q[x] (``linalg.FractionFreeRows``); the first dependent
    one returns sum_i c_i P_i = 0, so e_i is proportional to c_i d_i and the
    right-hand side to sum_i c_i G_i.
    """
    return _eliminate(ds, m, [RatFun._coerce(v) for v in c], coord)[0]


class _ShiftRows:
    """The rows [rho_i | gamma_i] = [P_i | G_i] / d_i, i < k, of an
    elimination (see ``eliminate_coordinate``), with the fraction-free
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
    ds: DiffStructure, m: MatrixRF, c: list[RatFun], coord: int
) -> tuple[ScalarDiffEq, _ShiftRows]:
    """(equation, rows) for the equation of ``eliminate_coordinate`` and
    the rows rho_0..rho_(k-1) it came from; k == n exactly when the
    coordinate is cyclic."""
    n = m.n
    big_d, cleared = _common_denominator([*(v for row in m.entries for v in row), *c])
    num_m = [cleared[i * n : (i + 1) * n] for i in range(n)]
    num_c = cleared[n * n :]
    zero = Poly.zero()
    p_row = [Poly.one() if j == coord else zero for j in range(n)]
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
        raise InternalVerificationError("coordinate elimination found no relation")
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


def solve_system(ds: DiffStructure, m: MatrixRF, c, degree_cap: int | None = None) -> VectorSolutionSpace:
    """All rational vector solutions of sigma(v) = M v + c.

    Coordinate 0 is eliminated first (see ``eliminate_coordinate``).  When it
    is cyclic, that is rho_0..rho_(n-1) are independent, R = (rho_i) is
    invertible and its one scalar equation e carries the whole system (the
    cyclic-vector method, van der Put and Singer 1997):

    - every solution v gives y = v_0 with sigma^i(y) = rho_i . v + gamma_i,
      so e(y) = sum e_i gamma_i and v = R^-1 (sigma^i(y) - gamma_i)_i;
    - conversely, for every rational solution y of e, the v defined so
      satisfies sigma(R) (M v + c) = (sigma^(i+1)(y) - sigma(gamma_i))_i,
      row by row from the recurrence for rho and gamma, and for the last row
      from rho_n = -sum_(i<n) e_i rho_i and e(y); that is sigma(R) sigma(v),
      and sigma(R) is invertible, so sigma(v) = M v + c.

    So y -> v is a bijection of the rational solution spaces with inverse
    v -> v_0: the particular solution and each homogeneous basis function of
    e map to the system's (without the gammas for the latter).  R^-1 is
    adj(P) diag(d_i) / det(P) for the polynomial rows P = diag(d_i) R, read
    off the elimination that found e, so each coordinate of v is one
    normalised rational function.  The rows of sigma(R) M are
    rho_1..rho_n, so sigma(R) M = C R for the companion matrix C of e, with
    det C = +-e_0; M is invertible exactly when e_0 != 0, and no separate
    invertibility test runs.

    Otherwise every coordinate is eliminated to a scalar equation, in
    ascending index order; each scalar solution space is parameterised and
    the parameters are cut down by substituting back into the full system
    over Q.  Either way the recovered vectors are verified by substitution
    into the system, once: the scalar spaces they come from are not
    substituted into their own equations on this path.
    """
    c = [RatFun._coerce(v) for v in c]
    n = m.n
    if len(c) != n:
        raise PreconditionError("inhomogeneous term has wrong dimension")
    eq0, rows = _eliminate(ds, m, c, 0)
    cyclic = len(rows) == n
    if eq0.coeffs[0].is_zero() if cyclic else not m.is_invertible():
        raise SingularMatrixError("system matrix must be invertible over Q(x)")
    if cyclic:
        space = _solve_cyclic(ds, eq0, rows, degree_cap)
    else:
        space = _solve_by_coordinates(ds, m, c, degree_cap, eq0)
    if space.status is Status.SOLVED:
        _verify_system(ds, m, c, space)
    return space


def _obstructed(sol: SolutionSpace, j: int, traces: list[ScalarDiffEq]) -> VectorSolutionSpace:
    """The system's space when coordinate j's scalar equation is not solved."""
    if sol.status is Status.BOUND_EXCEEDED:
        witness = f"coordinate {j}: {sol.witness}"
    else:
        witness = f"coordinate {j} has no rational solution: {sol.witness}"
    return VectorSolutionSpace(
        sol.status, witness=witness, scalar_traces=tuple(traces), obstructed_coordinate=j
    )


def _solve_cyclic(ds, eq0, rows: _ShiftRows, degree_cap) -> VectorSolutionSpace:
    """Lift the solutions y of coordinate 0's equation to v = R^-1 (sigma^i(y) - gamma_i)_i."""
    sol = _solve_unverified(eq0, degree_cap)
    if sol.status is not Status.SOLVED:
        return _obstructed(sol, 0, [eq0])
    return VectorSolutionSpace(
        Status.SOLVED,
        particular=rows.lift(ds, sol.particular[0], True),
        homogeneous_basis=tuple(rows.lift(ds, y, False) for y, _ in sol.homogeneous_basis),
        scalar_traces=(eq0,),
    )


def _solve_by_coordinates(ds, m, c, degree_cap, eq0) -> VectorSolutionSpace:
    """Solve every coordinate's scalar equation (``eq0`` is coordinate 0's),
    then the coupling system over Q for the joint affine parameters."""
    n = m.n
    traces: list[ScalarDiffEq] = []
    per_coord: list[tuple[RatFun, list[RatFun]]] = []  # (particular, basis funcs)
    for j in range(n):
        eq_j = eq0 if j == 0 else eliminate_coordinate(ds, m, c, j)
        traces.append(eq_j)
        sol = _solve_unverified(eq_j, degree_cap)
        if sol.status is not Status.SOLVED:
            return _obstructed(sol, j, traces)
        part = sol.particular[0] if sol.particular is not None else RatFun.zero()
        per_coord.append((part, [g for g, _ in sol.homogeneous_basis]))

    # affine parameterisation v_j = p_j + sum_k mu_k b_k: one unknown mu_k per
    # (coordinate j, homogeneous basis function b_k) pair
    params = [(j, b) for j, (_, basis) in enumerate(per_coord) for b in basis]

    def term(i: int, j: int, f: RatFun) -> RatFun:
        """What f in coordinate j contributes to residual i."""
        return (apply_sigma(ds, f, 1) if j == i else RatFun.zero()) - m.entries[i][j] * f

    # residual rows: sigma(v_i) - sum_j M_ij v_j - c_i == 0
    rows: list[list[Rat]] = []
    rhs_vec: list[Rat] = []
    for i in range(n):
        res_base = sum((term(i, j, base) for j, (base, _) in enumerate(per_coord)), -c[i])
        res_lin = [term(i, j, b) for j, b in params]
        # clear to a common denominator and emit coefficient rows
        _, (base_poly, *lin_polys) = _common_denominator([res_base, *res_lin])
        for e in range(max([base_poly.degree] + [p.degree for p in lin_polys] + [0]) + 1):
            rows.append([p[e] for p in lin_polys])
            rhs_vec.append(-base_poly[e])

    particular_mu, null_mu = solve_affine(rows, rhs_vec, RAT_ZERO, RAT_ONE)
    if particular_mu is None:
        return VectorSolutionSpace(
            Status.NO_SOLUTION,
            witness="per-coordinate solutions exist but no joint assignment "
            "satisfies the full system",
            scalar_traces=tuple(traces),
        )

    def assemble(mu, include_base: bool) -> tuple[RatFun, ...]:
        out = [base if include_base else RatFun.zero() for base, _ in per_coord]
        for (j, b), value in zip(params, mu):
            if value != 0:
                out[j] = out[j] + RatFun.const(value) * b
        return tuple(out)

    # each coordinate's homogeneous functions are a basis and no free lambda
    # survives elimination, so a nonzero mu never assembles to zero
    return VectorSolutionSpace(
        Status.SOLVED,
        particular=assemble(particular_mu, True),
        homogeneous_basis=tuple(assemble(vec, False) for vec in null_mu),
        scalar_traces=tuple(traces),
    )


def _verify_system(ds, m, c, space: VectorSolutionSpace):
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
