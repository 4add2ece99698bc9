"""Decision procedures for differential dependence of difference-equation
solutions.

Every positive verdict carries a certificate that is checked by exact
substitution: a telescoper identity, a twisted-ratio witness, a first-order
witness f (with the extra d*x^r term in the resonant q case), a conjugating
matrix B, or a summation witness h.  Each kind has one ``verify_*``
function here, and the procedure that makes the certificate runs it once,
in the terms it returns, raising ``InternalVerificationError`` if it fails;
a caller gets only checked certificates and need not check again.  Negative
verdicts are certified by the rational-solution engines (pole-orbit or
degree obstructions); the telescoper search alone is bounded by the caller's
order bound and a None result means only "none of order <= bound".
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .dispersion import is_standard, multiplicative_standard_form, q_power_log
from .errors import (
    BoundExceededError,
    InternalVerificationError,
    NonStandardInputError,
    PreconditionError,
    ZeroInputError,
)
from .numcore import RAT_ONE, Rat, RatFun
from .solver import (
    MatrixRF,
    Status,
    solve_first_order,
    solve_system,
)
from .structures import ConstLinDiffOp, DiffStructure, apply_derivation, apply_op, apply_sigma, split_x_power


# ---------------------------------------------------------------------------
# telescopers
# ---------------------------------------------------------------------------


class Telescoper(namedtuple("Telescoper", "operators certificate_g")):
    """Operators L_1..L_n (not all zero) and a certificate g with
    sum_i L_i(a_i) = sigma(g) - g for the inputs it was produced from."""

    __slots__ = ()

    def is_nonzero(self) -> bool:
        return any(not op.is_zero() for op in self.operators)


def _check_bound(sol):  # a scalar or a system solution space
    if sol.status is Status.BOUND_EXCEEDED:
        raise BoundExceededError(sol.witness or "degree cap exceeded")


def verify_telescoper(ds: DiffStructure, funcs, tele: Telescoper) -> bool:
    total = RatFun.zero()
    for op, fn in zip(tele.operators, funcs):
        total = total + apply_op(ds, op, fn)
    lhs = apply_sigma(ds, tele.certificate_g) - tele.certificate_g
    return total == lhs and tele.is_nonzero()


def find_telescoper(
    ds: DiffStructure, funcs, order_bound: int, degree_cap: int | None = None
) -> Telescoper | None:
    """Search for constant-coefficient operators L_i of order <= order_bound
    with sum_i L_i(a_i) = sigma(g) - g, g rational.

    None means no telescoper of order <= order_bound exists; it is not an
    unconditional transcendence verdict.
    """
    if order_bound < 0:
        raise PreconditionError("order bound must be >= 0")
    funcs = [RatFun._coerce(f) for f in funcs]
    if not funcs:
        raise PreconditionError("need at least one input function")
    basis: list[RatFun] = []
    for fn in funcs:
        current = fn
        for j in range(order_bound + 1):
            if j > 0:
                current = apply_derivation(ds, current)
            basis.append(current)
    sol = solve_first_order(ds, RatFun.one(), rhs_basis=basis, degree_cap=degree_cap)
    _check_bound(sol)
    chosen = None
    for g, lam in sol.homogeneous_basis:
        if any(v != 0 for v in lam):
            chosen = (g, lam)
            break
    if chosen is None:
        return None
    g, lam = chosen
    width = order_bound + 1
    ops = tuple(
        ConstLinDiffOp(lam[i * width : (i + 1) * width]) for i in range(len(funcs))
    )
    tele = Telescoper(ops, g)
    if not verify_telescoper(ds, funcs, tele):
        raise InternalVerificationError("telescoper failed substitution")
    return tele


def mult_dependence_test(
    ds: DiffStructure, funcs, order_bound: int, degree_cap: int | None = None
) -> Telescoper | None:
    """Telescoper search applied to the logarithmic derivatives d(b_i)/b_i."""
    funcs = [RatFun._coerce(f) for f in funcs]
    if any(f.is_zero() for f in funcs):
        raise ZeroInputError("multiplicative test needs nonzero inputs")
    logs = [apply_derivation(ds, f) / f for f in funcs]
    return find_telescoper(ds, logs, order_bound, degree_cap=degree_cap)


# ---------------------------------------------------------------------------
# first-order differential-algebraicity
# ---------------------------------------------------------------------------


class DAStatus(Enum):
    DIFFERENTIALLY_ALGEBRAIC = "DifferentiallyAlgebraic"
    DIFFERENTIALLY_TRANSCENDENTAL = "DifferentiallyTranscendental"
    RATIONAL_SOLUTION_EXISTS = "RationalSolutionExists"


class DACertificate(namedtuple("DACertificate", "f c n_or_r d", defaults=(None,) * 4)):
    """Witness of a DA verdict: the rational function f, the constants c
    and d and the exponent n_or_r that ``verify_twisted_ratio`` or
    ``verify_first_order_witness`` reads; a field it does not read is None."""

    __slots__ = ()


class DAVerdict(namedtuple("DAVerdict", "status certificate hypothesis_notes")):
    """A ``DAStatus``, its ``DACertificate`` (None for a transcendence
    verdict) and the hypotheses the verdict rests on."""

    __slots__ = ()


def _monomial_shape(ds: DiffStructure, f: RatFun) -> tuple[Rat, int] | None:
    """(c, n) with f = c*x^n, n in Z (q case) or n = 0 (shift case), or None."""
    num_stripped, vn = split_x_power(ds, f.num)
    den_stripped, vd = split_x_power(ds, f.den)
    if num_stripped.degree != 0 or den_stripped.degree != 0:
        return None
    return num_stripped.lc() / den_stripped.lc(), vn - vd


def hypergeom_da_test(ds: DiffStructure, b: RatFun) -> DAVerdict:
    """Differential algebraicity of a nonzero solution of sigma(u) = b*u.

    After the multiplicative standard form b = b_std * sigma(g)/g, the
    verdict reduces to the shape of b_std: a constant (shift) or c*x^n
    (q case) means differentially algebraic, anything else is an
    unconditional transcendence verdict from the pole-orbit obstruction.
    """
    b = RatFun._coerce(b)
    if b.is_zero():
        raise ZeroInputError("hypergeometric test needs b != 0")
    mform = multiplicative_standard_form(ds, b)
    b_std, g = mform.standard_part, mform.certificate_g
    notes = "assumes a nonzero solution of sigma(u) = b*u meromorphic on the relevant domain"
    shape = _monomial_shape(ds, b_std)
    if shape is None:
        return DAVerdict(DAStatus.DIFFERENTIALLY_TRANSCENDENTAL, None, notes)
    cert = DACertificate(f=g, c=shape[0], n_or_r=shape[1])
    if not verify_twisted_ratio(ds, b, cert):
        raise InternalVerificationError("twisted-ratio certificate failed substitution")
    return DAVerdict(DAStatus.DIFFERENTIALLY_ALGEBRAIC, cert, notes)


def verify_twisted_ratio(ds: DiffStructure, b: RatFun, cert: DACertificate) -> bool:
    """b == c * x^n * sigma(f)/f."""
    twist = RatFun.const(cert.c) * RatFun.x() ** (cert.n_or_r or 0)
    return twist * apply_sigma(ds, cert.f) / cert.f == b


def verify_first_order_witness(ds: DiffStructure, a: RatFun, b: RatFun, cert: DACertificate) -> bool:
    """b == sigma(f) - a*f, plus d*x^r in the resonant q case a = q^r."""
    expected = apply_sigma(ds, cert.f) - a * cert.f
    if cert.d is not None:
        expected = expected + RatFun.const(cert.d) * RatFun.x() ** (cert.n_or_r or 0)
    return expected == b


def inhomog_da_classify(
    ds: DiffStructure, a: RatFun, b: RatFun, degree_cap: int | None = None
) -> DAVerdict:
    """Differential algebraicity of a solution z of sigma(z) = a*z + b.

    Requires a in standard form (normalise with multiplicative_standard_form
    first).  Verdicts:

    * a not constant (shift) / not c*x^n (q): transcendental, unless the
      equation itself has a rational solution, in which case the answer
      depends on whether z is that rational solution and the status reports
      RationalSolutionExists.
    * a constant (shift): algebraic iff b = sigma(f) - a*f is solvable.
    * a = c*x^n (q): algebraic iff b = sigma(f) - a*f (+ d*x^r when a = q^r)
      is solvable.
    """
    a = RatFun._coerce(a)
    b = RatFun._coerce(b)
    if a.is_zero():
        raise PreconditionError("twist a must be nonzero")
    if not is_standard(ds, a):
        raise NonStandardInputError(
            "a must be standard; divide out sigma(g)/g via multiplicative_standard_form"
        )
    base_note = "hypotheses inherited from the classification: z solves sigma(z) = a*z + b"
    shape = _monomial_shape(ds, a)
    c, n = shape if shape is not None else (None, None)
    r = None
    if ds.is_shift:
        n = None  # a is constant: the shift certificate carries no exponent
        kind, other = "constant a", "nonconstant standard a"
    else:
        kind, other = "a = c*x^n", "a is standard and not of the form c*x^n"
        if n == 0:
            r = q_power_log(ds, c)
    basis, fixed = ([b, RatFun.x() ** r], [RAT_ONE, None]) if r is not None else ([b], [RAT_ONE])
    sol = solve_first_order(ds, a, rhs_basis=basis, lambda_fixed=fixed, degree_cap=degree_cap)
    _check_bound(sol)
    if not sol.is_solved():
        if shape is None:
            return DAVerdict(DAStatus.DIFFERENTIALLY_TRANSCENDENTAL, None, f"{base_note}; {other}")
        if ds.is_shift:
            base_note += "; z is automatically irrational since b = sigma(f) - a*f has no rational solution"
        return DAVerdict(DAStatus.DIFFERENTIALLY_TRANSCENDENTAL, None, base_note)
    g, lam = sol.particular
    if shape is None:
        verdict = DAVerdict(
            DAStatus.RATIONAL_SOLUTION_EXISTS,
            DACertificate(f=g),
            base_note + "; the classification assumes z is not in Q(x), "
            "but sigma(z) = a*z + b has the rational solution reported as f; "
            "any solution z not in Q(x) is differentially transcendental",
        )
    elif r is not None:
        cert = DACertificate(f=g, c=c, n_or_r=r, d=-lam[1])
        verdict = DAVerdict(DAStatus.DIFFERENTIALLY_ALGEBRAIC, cert, f"{base_note}; resonant case a = q^{r}")
    else:
        verdict = DAVerdict(
            DAStatus.DIFFERENTIALLY_ALGEBRAIC,
            DACertificate(f=g, c=c, n_or_r=n),
            f"{base_note}; {kind}: every solution is differentially algebraic",
        )
    if not verify_first_order_witness(ds, a, b, verdict.certificate):
        raise InternalVerificationError("first-order witness failed substitution")
    return verdict


# ---------------------------------------------------------------------------
# matrix integrability
# ---------------------------------------------------------------------------


class IntegrabilityStatus(Enum):
    CONSTANT_CONJUGATE = "ConstantConjugate"
    NOT_CONSTANT_CONJUGATE = "NotConstantConjugate"


class IntegrabilityResult(namedtuple(
    "IntegrabilityResult", "status b_matrix scalar_trace scalar_traces", defaults=((),)
)):
    """An ``IntegrabilityStatus``, the verified ``MatrixRF`` B when there is
    one, the ``ScalarDiffEq`` that decided the system (None when none was
    solved) and every scalar equation the system was solved through."""

    __slots__ = ()


def integrability_test(
    ds: DiffStructure, a_matrix: MatrixRF, degree_cap: int | None = None
) -> IntegrabilityResult:
    """Decide whether sigma(B) = A*B*A^-1 + d(A)*A^-1 has a rational matrix
    solution B (equivalently, whether the associated group is conjugate to a
    group of derivation constants).

    When d(A) = 0, that is when every entry of A is constant, B = 0 solves
    sigma(B) = A*B*A^-1 and no system is solved; the result carries no
    scalar trace.  Otherwise the matrix equation is flattened to a
    first-order system on the n^2 entries of B (row-major) and handed to
    ``solve_system``: when entry 0 is cyclic, its one scalar equation
    decides the system (and the invertibility of the flattened matrix);
    otherwise every entry is eliminated.  ``inverse()`` runs first on both
    routes, so a singular A raises ``SingularMatrixError``.  A positive
    answer returns a substitution-verified B.
    """
    n = a_matrix.n
    a_inv = a_matrix.inverse()
    da = a_matrix.map(lambda f: apply_derivation(ds, f))
    if all(v.is_zero() for row in da.entries for v in row):
        b_zero = MatrixRF([[RatFun.zero()] * n for _ in range(n)])
        if not verify_conjugating_matrix(ds, a_matrix, b_zero):
            raise InternalVerificationError("conjugating matrix failed substitution")
        return IntegrabilityResult(IntegrabilityStatus.CONSTANT_CONJUGATE, b_zero, None)
    inhom = da @ a_inv
    c_vec = [inhom.entries[r][s] for r in range(n) for s in range(n)]
    rows = []
    for r in range(n):
        for s in range(n):
            row = []
            for u in range(n):
                for v in range(n):
                    row.append(a_matrix.entries[r][u] * a_inv.entries[v][s])
            rows.append(row)
    big_m = MatrixRF(rows)
    sol = solve_system(ds, big_m, c_vec, degree_cap=degree_cap)
    _check_bound(sol)
    if sol.status is Status.NO_SOLUTION:
        trace = None
        if sol.obstructed_coordinate is not None and sol.scalar_traces:
            trace = sol.scalar_traces[sol.obstructed_coordinate]
        elif sol.scalar_traces:
            trace = sol.scalar_traces[0]
        return IntegrabilityResult(
            IntegrabilityStatus.NOT_CONSTANT_CONJUGATE, None, trace, sol.scalar_traces
        )
    flat = sol.particular
    b_matrix = MatrixRF([[flat[r * n + s] for s in range(n)] for r in range(n)])
    if not verify_conjugating_matrix(ds, a_matrix, b_matrix):
        raise InternalVerificationError("conjugating matrix failed substitution")
    return IntegrabilityResult(
        IntegrabilityStatus.CONSTANT_CONJUGATE,
        b_matrix,
        sol.scalar_traces[0] if sol.scalar_traces else None,
        sol.scalar_traces,
    )


def verify_conjugating_matrix(ds: DiffStructure, a_matrix: MatrixRF, b_matrix: MatrixRF) -> bool:
    """sigma(B)*A == A*B + d(A): for invertible A this is
    sigma(B) = A*B*A^-1 + d(A)*A^-1 without the inverse."""
    lhs = b_matrix.map(lambda f: apply_sigma(ds, f)) @ a_matrix
    rhs = a_matrix @ b_matrix
    da = a_matrix.map(lambda f: apply_derivation(ds, f))
    return all(
        lhs.entries[r][s] == rhs.entries[r][s] + da.entries[r][s]
        for r in range(a_matrix.n)
        for s in range(a_matrix.n)
    )


def companion_matrix(ds: DiffStructure, coeffs) -> MatrixRF:
    """Companion matrix of sum_i p_i * sigma^i(y) = 0 acting on
    (y, sigma(y), ..., sigma^(m-1)(y)): last row -p_i/p_m."""
    coeffs = [RatFun._coerce(c) for c in coeffs]
    m = len(coeffs) - 1
    if m < 1 or coeffs[m].is_zero():
        raise PreconditionError("companion matrix needs a nonzero leading coefficient")
    rows = []
    for i in range(m - 1):
        rows.append([RatFun.one() if j == i + 1 else RatFun.zero() for j in range(m)])
    rows.append([-(coeffs[j] / coeffs[m]) for j in range(m)])
    return MatrixRF(rows)


# ---------------------------------------------------------------------------
# inverse-problem classification for sigma(y) - y = f
# ---------------------------------------------------------------------------


class GroupKind(Enum):
    TRIVIAL = "TrivialGroup"
    CONSTANTS_GA = "ConstantsGa"
    FULL_GA = "FullGa"


class GroupClass(namedtuple("GroupClass", "kind certificate_h certificate_c", defaults=(None, None))):
    """A ``GroupKind`` and the witness ``verify_summation`` reads: h with
    f = sigma(h) - h, plus the constant c at the constants level."""

    __slots__ = ()


def group_classify_inhomog_sum(
    ds: DiffStructure, f: RatFun, degree_cap: int | None = None
) -> GroupClass:
    """Classify the symmetry group attached to sigma(y) - y = f over Q(x):

    * trivial when f = sigma(h) - h for rational h,
    * (q case only) the derivation-constant points when f = sigma(h) - h + c
      with a nonzero constant c,
    * the full additive group otherwise.
    """
    f = RatFun._coerce(f)
    one = RatFun.one()
    sol = solve_first_order(ds, one, rhs_basis=[f], lambda_fixed=[RAT_ONE], degree_cap=degree_cap)
    _check_bound(sol)
    group = GroupClass(GroupKind.FULL_GA)
    if sol.is_solved():
        group = GroupClass(GroupKind.TRIVIAL, sol.particular[0])
    elif not ds.is_shift:
        sol = solve_first_order(
            ds, one, rhs_basis=[f, RatFun.one()], lambda_fixed=[RAT_ONE, None], degree_cap=degree_cap
        )
        _check_bound(sol)
        if sol.is_solved():
            h, lam = sol.particular
            group = GroupClass(GroupKind.CONSTANTS_GA, h, -lam[1])
    if group.certificate_h is not None and not verify_summation(ds, f, group):
        raise InternalVerificationError("summation witness failed substitution")
    return group


def verify_summation(ds: DiffStructure, f: RatFun, group: GroupClass) -> bool:
    """f == sigma(h) - h, plus a nonzero constant c at the constants level."""
    h, c = group.certificate_h, group.certificate_c
    expected = apply_sigma(ds, h) - h
    if c is not None:
        if c == 0:
            return False
        expected = expected + RatFun.const(c)
    return expected == f
