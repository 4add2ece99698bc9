"""Shared helpers for the test suite: expression-based constructors, seeded
random generators, and the big randomized suites reused by the acceptance
tests."""

from __future__ import annotations

import random

from hypothesis import settings

from diffalg import (
    Poly,
    Rat,
    RatFun,
    ScalarDiffEq,
    Status,
    additive_standard_decomp,
    apply_sigma,
    is_standard,
    multiplicative_standard_form,
    parse_ratfun,
    polar_dispersion,
    q_structure,
    scalar_eq_from_ratfun_coeffs,
    shift_structure,
    solve_scalar,
)
from diffalg.structures import sigma_poly
from oracle import companion_system, system_oracle

# test_parser_oracle.py's long run: pytest --hypothesis-profile=parser-oracle
# (registered here, where pytest reads it before it loads a profile)
settings.register_profile("parser-oracle", max_examples=2000)
# test_numcore.py's long integer-roots run: pytest --hypothesis-profile=integer-roots
settings.register_profile("integer-roots", max_examples=2000)
# test_poly_properties.py's long gcd run: pytest --hypothesis-profile=gcd-oracle
settings.register_profile("gcd-oracle", max_examples=2000)

SHIFT = shift_structure()
Q2 = q_structure(2)
Q14 = q_structure(Rat(1, 4))
QM3 = q_structure(-3)


def unit_vector(n: int, j: int) -> list[Poly]:
    """The row vector e_j of length n, as ``solver._eliminate`` takes t."""
    return [Poly.one() if k == j else Poly.zero() for k in range(n)]


def rf(text: str) -> RatFun:
    return parse_ratfun(text)


def pp(text: str) -> Poly:
    f = parse_ratfun(text)
    assert f.is_polynomial(), text
    return f.num * (1 / f.den.lc())


# irreducible bases for planting zero and pole orbits, by ds.is_shift; in
# the q case none vanishes at 0
ORBIT_BASES = {
    True: [pp(t) for t in ("x", "x + 1/2", "2*x - 1", "x^2 + 1", "x^2 - 2")],
    False: [pp(t) for t in ("x - 1", "x + 2", "3*x - 1", "x^2 + 1", "x^2 - x + 3")],
}


def rand_orbit_factor(rng: random.Random, ds) -> RatFun:
    """A base of ``ORBIT_BASES`` moved -3 to 3 steps along its orbit."""
    return RatFun.from_poly(sigma_poly(ds, rng.choice(ORBIT_BASES[ds.is_shift]), rng.randint(-3, 3)))


def rand_poly(rng: random.Random, max_deg: int, lo: int = -6, hi: int = 6, nonzero: bool = False) -> Poly:
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randint(lo, hi) for _ in range(deg)] + [rng.choice([1, 2, 3, -1, -2, 5])]
        p = Poly(coeffs)
        if not nonzero or not p.is_zero():
            return p


def rand_denominator(rng: random.Random, ds, max_factors: int = 3) -> Poly:
    """Product of small linear/quadratic factors, some in shared orbits, so
    dispersion machinery gets exercised; never zero at the origin for the q
    case unless explicitly allowed."""
    den = Poly.one()
    pool_shift = [-3, -2, -1, 0, 1, 2, 3]
    pool_q = [1, 2, 3, 4, -1, -2, 8]
    pool = pool_shift if ds.is_shift else pool_q
    for _ in range(rng.randint(1, max_factors)):
        kind = rng.random()
        if kind < 0.7:
            root = rng.choice(pool)
            den = den * Poly([-root, 1]) ** rng.randint(1, 2)
        else:
            den = den * Poly([rng.randint(1, 5), rng.randint(-3, 3), 1])
    return den


def rand_ratfun(rng: random.Random, ds, with_pole: bool = False) -> RatFun:
    num = rand_poly(rng, 3, nonzero=True)
    if with_pole:
        while True:
            den = rand_denominator(rng, ds)
            f = RatFun(num, den)
            stripped = _nonx_part(f.den) if not ds.is_shift else f.den
            if stripped.degree > 0:
                return f
    if rng.random() < 0.4:
        return RatFun(num)
    return RatFun(num, rand_denominator(rng, ds))


def _nonx_part(p: Poly) -> Poly:
    v = p.valuation()
    return Poly(p.coeffs[v:]) if v > 0 else p


# ---------------------------------------------------------------------------
# randomized suites shared with the acceptance tests
# ---------------------------------------------------------------------------


def run_positive_pdisp_suite(ds, count: int, seed: int) -> int:
    """pdisp(sigma(f) - a*f) >= 1 for f with a pole (nonzero pole in the q
    case) and constant a != 0.  Returns the number of checked cases."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        f = rand_ratfun(rng, ds, with_pole=True)
        a = Rat(rng.choice([1, 1, 2, -1, 3, -2]), rng.choice([1, 1, 2]))
        g = apply_sigma(ds, f) - RatFun.const(a) * f
        assert polar_dispersion(ds, g) >= 1, (f, a)
        done += 1
    return done


def run_standard_roundtrip_suite(ds, count: int, seed: int) -> int:
    """Additive and multiplicative standard decompositions verify exactly."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        f = rand_ratfun(rng, ds)
        a = Rat(rng.choice([1, 2, -1, 3, 5]), rng.choice([1, 2]))
        decomp = additive_standard_decomp(ds, f, a)
        assert decomp.reconstruct() == f
        assert polar_dispersion(ds, decomp.standard_part) == 0
        if not f.is_zero():
            mform = multiplicative_standard_form(ds, f)
            assert mform.reconstruct() == f
            assert is_standard(ds, mform.standard_part)
        done += 1
    return done


def rand_scalar_eq(rng: random.Random, ds) -> ScalarDiffEq:
    order = rng.randint(1, 2)
    coeffs = []
    for i in range(order + 1):
        if i in (0, order):
            coeffs.append(rand_poly(rng, 3, nonzero=True))
        else:
            coeffs.append(rand_poly(rng, 3) if rng.random() < 0.8 else Poly.zero())
    style = rng.random()
    if style < 0.3:
        return ScalarDiffEq(ds, tuple(coeffs))
    if style < 0.65:
        rhs = RatFun.from_poly(rand_poly(rng, 2, nonzero=True))
    else:
        rhs = RatFun(rand_poly(rng, 2, nonzero=True), rand_denominator(rng, ds, max_factors=2))
    return ScalarDiffEq(ds, tuple(coeffs), (rhs,), (Rat(1),))


def companion_oracle(eq: ScalarDiffEq):
    """``system_oracle`` on the companion system of ``eq``: solutions of
    degree at most 12, and in the q case valuation at least -4 at 0.  Each
    solution vector is (y, sigma(y), ..., free lambdas)."""
    m, c, free = companion_system(eq)
    return system_oracle(eq.structure, m, c, 12, x_power=4, free=free)


def _oracle_covers(eq: ScalarDiffEq, sol) -> bool:
    """Whether every solution within the solver's bounds lies in the ansatz
    of ``companion_oracle``: y = z/u with deg z <= degree_bound has degree
    at most degree_bound - deg u, and in the q case its pole at 0 has at
    most the order of the power of x in u."""
    u = sol.universal_den
    return sol.degree_bound - u.degree <= 12 and (eq.structure.is_shift or u.valuation() <= 4)


def run_oracle_agreement_suite(ds, count: int, seed: int, max_attempts: int = 10_000) -> int:
    """solve_scalar vs ``companion_oracle`` on random instances.

    Instances with a solution the oracle's ansatz could miss
    (``_oracle_covers``) are redrawn, as are those whose bound exceeds the
    solver's cap; agreement in status and homogeneous dimension must be
    exact on every compared instance.
    """
    rng = random.Random(seed)
    compared = 0
    attempts = 0
    while compared < count:
        attempts += 1
        assert attempts < max_attempts, "instance generator exhausted"
        eq = rand_scalar_eq(rng, ds)
        sol = solve_scalar(eq)
        if sol.status is Status.BOUND_EXCEEDED or not _oracle_covers(eq, sol):
            continue
        oracle = companion_oracle(eq)
        assert (sol.status is Status.SOLVED) == (oracle.status is Status.SOLVED), eq
        assert sol.homogeneous_dimension() == len(oracle.homogeneous_basis), eq
        compared += 1
    return compared


def planted_pole_chains(ds, seed: int, count: int):
    """``count`` equations (eq, y0, lambdas) with y0 a solution whose poles
    form forward chains prod_{j<=h} sigma^(-j)(x - c), h <= 3, each factor of
    multiplicity <= 2, times x^k in the q case.  Even ones are inhomogeneous,
    L(y) = L(y0) for a random L; odd ones are homogeneous, with
    L = (c1*sigma + c0) o (y0*sigma - sigma(y0)), denominators cleared."""
    rng = random.Random(seed)
    for trial in range(count):
        den = Poly.one()
        for _ in range(rng.randint(1, 2)):
            base = Poly([-rng.choice([-3, -2, -1, 1, 2, 3]), 1])
            for j in range(rng.randint(0, 3) + 1):
                den = den * sigma_poly(ds, base, -j).monic() ** rng.randint(1, 2)
        if not ds.is_shift:
            den = den * Poly.monomial(1, rng.randint(0, 2))
        y0 = RatFun(rand_poly(rng, 2, nonzero=True), den)
        if trial % 2 == 0:
            order = rng.randint(1, 2)
            coeffs = tuple(rand_poly(rng, 2, nonzero=i in (0, order)) for i in range(order + 1))
            rhs = ScalarDiffEq(ds, coeffs).apply_operator(y0)
            yield ScalarDiffEq(ds, coeffs, (rhs,), (Rat(1),)), y0, (Rat(1),)
        else:
            c0, c1 = (RatFun.from_poly(rand_poly(rng, 1, nonzero=True)) for _ in range(2))
            s1, s2 = apply_sigma(ds, y0, 1), apply_sigma(ds, y0, 2)
            yield scalar_eq_from_ratfun_coeffs(ds, [-c0 * s1, c0 * y0 - c1 * s2, c1 * s1]), y0, ()


def run_planted_oracle_suite(ds, count: int, seed: int) -> int:
    """solve_scalar vs ``companion_oracle`` on ``planted_pole_chains``
    instances, where the universal denominator has positive degree, so the
    oracle's U checks that the sharp u misses no pole.  Instances with a
    solution outside the oracle's ansatz (``_oracle_covers``) are skipped,
    and ``count`` are compared."""
    compared = 0
    for eq, _, _ in planted_pole_chains(ds, seed, 4 * count):
        sol = solve_scalar(eq)
        assert sol.universal_den.degree > 0, eq
        if sol.status is Status.BOUND_EXCEEDED or not _oracle_covers(eq, sol):
            continue
        oracle = companion_oracle(eq)
        assert oracle.status is sol.status, eq
        assert len(oracle.homogeneous_basis) == sol.homogeneous_dimension(), eq
        compared += 1
        if compared == count:
            return compared
    return compared
