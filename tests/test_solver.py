"""Rational-solution engines: universal denominators, the scalar solver, the
constant-twist first-order path, first-order systems, and the scalar solver
against the system oracle on its companion system."""

import functools
import importlib
import itertools
import math
import random

import pytest

from conftest import (
    Q2,
    Q14,
    QM3,
    SHIFT,
    companion_oracle,
    planted_pole_chains,
    pp,
    rand_poly,
    rand_ratfun,
    rand_scalar_eq,
    rf,
    run_oracle_agreement_suite,
    unit_vector,
)
from diffalg import (
    InternalVerificationError,
    MatrixRF,
    Poly,
    PreconditionError,
    Rat,
    RatFun,
    ScalarDiffEq,
    SingularMatrixError,
    Status,
    apply_derivation,
    apply_sigma,
    cli,
    criteria,
    q_structure,
    scalar_eq_from_ratfun_coeffs,
    solve_first_order,
    solve_scalar,
    solve_system,
    solver,
)
from diffalg.dispersion import q_power_roots
from diffalg.numcore import poly_gcd, poly_lcm, radical
from diffalg.solver import _degree_bound, _prepare, _solve_first_order_const, first_order_space, system_space
from diffalg.structures import sigma_poly
from oracle import _system_denominator, companion_system, fraction_solve, system_oracle

dispersion_module = importlib.import_module("diffalg.dispersion")


def shift_sl2_equation():
    """x*s^3(b) - (x^3+2x^2-1)*s^2(b) + x(x^2+x-1)*s(b) - (x+1)*b = 2x+1."""
    return ScalarDiffEq(
        SHIFT,
        (pp("-(x+1)"), pp("x*(x^2+x-1)"), pp("-(x^3+2*x^2-1)"), pp("x")),
        (rf("2*x+1"),),
        (Rat(1),),
    )


class TestUniversalDenominator:
    def test_rhs_pole_orbit_included(self):
        # x*sigma(y) - x*y = 1, that is sigma(y) - y = 1/x: no root of
        # sigma^(-1)(x) = x - 1 lies at or below the root 0 of p_0 = -x on its
        # orbit, so no solution has a pole and u = 1; there is none (the
        # harmonic numbers are not rational)
        eq = ScalarDiffEq(SHIFT, (pp("-x"), pp("x")), (RatFun.one(),), (Rat(1),))
        sol = solve_scalar(eq)
        assert sol.universal_den == Poly.one()
        assert sol.status is Status.NO_SOLUTION

    def test_constant_coefficients_polynomial_rhs(self):
        eq = ScalarDiffEq(SHIFT, (pp("1"), pp("1")), (rf("x"),), (Rat(1),))
        assert solve_scalar(eq).universal_den == Poly.one()

    def test_q_candidate_chain(self):
        # the leading root 2 is q times the trailing root 1, a backward
        # pairing: the shifted leading root 4 lies on no forward chain to 1,
        # so u is the power of x from the valuation bound at 0 alone
        eq = ScalarDiffEq(Q2, (pp("-(x-1)"), pp("x-2")), (RatFun.one(),), (Rat(1),))
        sol = solve_scalar(eq)
        assert sol.universal_den == pp("x")
        assert sol.particular[0] == rf("-2/x")
        assert [g for g, _ in sol.homogeneous_basis] == [rf("(x-2)/x")]

    @pytest.mark.parametrize(
        "ds, coeffs, y",
        [
            # sigma(y)/y = x/(x+2): the root -1 of sigma^(-1)(x+2) runs one
            # step up to the root 0 of p_0 = -x
            (SHIFT, ("-x", "x+2"), "1/(x*(x+1))"),
            # sigma(y)/y = (x-2)/(2*(2*x-1)): the root 1 of sigma^(-1)(p_1)
            # runs one q-step up to the root 2 of p_0 = -(x-2)
            (Q2, ("-(x-2)", "2*(2*x-1)"), "1/((x-1)*(x-2))"),
        ],
        ids=["shift", "q2"],
    )
    def test_forward_chain(self, ds, coeffs, y):
        eq = ScalarDiffEq(ds, tuple(pp(c) for c in coeffs))
        sol = solve_scalar(eq)
        assert sol.universal_den == rf(y).den
        assert [g for g, _ in sol.homogeneous_basis] == [rf(y)]

    @pytest.mark.parametrize(
        "ds, y",
        [
            (SHIFT, "1/((x^2+2)^3*(x^2+2*x+3)^2*(x-4)^2)"),
            (Q2, "1/((x-3)^3*(x-6)^2*(x+5)^2)"),
        ],
        ids=["shift", "q2"],
    )
    def test_gap_scan_reads_squarefree_sides(self, monkeypatch, ds, y):
        # the kernel y of y*sigma - sigma(y) has repeated pole factors on a
        # chain; the gaps depend only on roots, so the scan must not pay for
        # the repeated factors of the sides
        seen = []
        real = dispersion_module._gap_window

        def recording(ds, a, b):
            seen.append((a, b))
            return real(ds, a, b)

        monkeypatch.setattr(dispersion_module, "_gap_window", recording)
        y = rf(y)
        eq = scalar_eq_from_ratfun_coeffs(ds, [-apply_sigma(ds, y), y])
        sol = solve_scalar(eq)
        assert seen
        for side in (p for pair in seen for p in pair):
            assert radical(side) == side.monic(), side
        assert (sol.universal_den % y.den).is_zero()
        assert _in_span([_pair_vector(*pair) for pair in sol.homogeneous_basis], (y,))

    @pytest.mark.parametrize(
        "ds, case, expected",
        [(SHIFT, {}, "x^3 - 3*x^2"), (Q2, {"case": "q", "q": "2"}, "x^2 - 3*x")],
        ids=["shift", "q2"],
    )
    def test_order_zero(self, ds, case, expected):
        # x^2*(x-3)*y = x: in the shift case u is p_0 itself; in the q case
        # the power of x comes from the valuation bound at 0, and y = 1/(x*(x-3))
        eq = ScalarDiffEq(ds, (pp("x^2*(x-3)"),), (rf("x"),), (Rat(1),))
        sol = solve_scalar(eq)
        u = sol.universal_den
        assert u == pp(expected)
        assert sol.particular[0] == rf("1/(x*(x-3))")
        assert (u % sol.particular[0].den).is_zero()
        # the CLI report names the same u
        query = {"subcommand": "solve-scalar", "coeffs": "x^2*(x-3)", "rhs": "x", **case}
        report, _ = cli.run_query(cli.query_from_dict(query))
        assert report.to_json_dict()["certificate"]["universal_denominator"] == expected

    def test_divides_solution_denominators(self):
        # random equations rarely have rational solutions, so build solvable
        # ones: pick g, apply the operator, use the result as the rhs
        rng = random.Random(211)
        checked = 0
        for _ in range(40):
            ds = SHIFT if rng.random() < 0.5 else Q2
            base = rand_scalar_eq(rng, ds)
            g = rand_ratfun(rng, ds, with_pole=True)
            rhs = base.apply_operator(g)
            if rhs.is_zero():
                continue
            eq = ScalarDiffEq(ds, base.coeffs, (rhs,), (Rat(1),))
            sol = solve_scalar(eq)
            assert sol.is_solved()
            u = sol.universal_den
            pairs = list(sol.homogeneous_basis) + [sol.particular]
            for gg, _ in pairs:
                if gg.is_zero():
                    continue
                assert (u % gg.den).is_zero(), (eq, gg)
                checked += 1
        assert checked >= 40


def _in_span(basis, target) -> bool:
    """Whether the vector of rational functions ``target`` is a rational
    combination of the ``basis`` vectors."""
    vecs = [*basis, target]
    den = Poly.one()
    for vec in vecs:
        for f in vec:
            den = poly_lcm(den, f.den)
    nums = [[(f * RatFun.from_poly(den)).num for f in vec] for vec in vecs]
    width = max(p.degree for vec in nums for p in vec) + 1
    flat = [[p[e] for p in vec for e in range(width)] for vec in nums]
    rows = [list(col) for col in zip(*flat[:-1])] or [[] for _ in flat[-1]]
    return fraction_solve(rows, flat[-1])[0] is not None


def _pair_vector(g, lam) -> tuple[RatFun, ...]:
    """A scalar solution pair (g, lambdas) as one vector (g, *lambdas)."""
    return (g, *(RatFun.const(v) for v in lam))


def _in_space(space, g, lam) -> bool:
    """Whether the pair (g, lambdas) lies in a scalar solution space."""
    pg, plam = space.particular
    delta = _pair_vector(g - pg, [a - b for a, b in zip(lam, plam)])
    return _in_span([_pair_vector(*pair) for pair in space.homogeneous_basis], delta)


class TestPlantedPoleChains:
    @pytest.mark.parametrize(
        "ds, seed", [(SHIFT, 401), (Q2, 402), (Q14, 403), (QM3, 404)], ids=["shift", "q2", "q1/4", "q-3"]
    )
    def test_planted_solution_in_space(self, ds, seed):
        for eq, y0, lam in planted_pole_chains(ds, seed, 150):
            sol = solve_scalar(eq)
            assert sol.is_solved(), eq
            assert (sol.universal_den % y0.den).is_zero(), (eq, y0)
            assert _in_space(sol, y0, lam), (eq, y0)


class TestDegreeBound:
    # (coefficients Q_0..Q_m, right-hand sides, bound recorded with the eager
    # implementation); L(x^d) = P(d)*x^(d+b) + lower terms, and the bound is
    # the largest of P's integer roots and deg(rhs) - b
    PINNED = [
        (["-(x+2)", "x"], [], 2),  # b = 0, P(d) = d - 2
        (["-(x+10)", "x"], ["x^2"], 10),  # b = 0, P(d) = d - 10
        (["1", "-2", "1"], ["x^3"], 5),  # b = -2, P(d) = d*(d-1)
        (["-1", "3", "-3", "1"], ["x^2"], 5),  # b = -3, P(d) = d*(d-1)*(d-2)
        (["x^2+1", "-2*x^2+3", "x^2-x"], [], -1),  # b = 1, P(d) = -1
        (["(x+1)*(x+2)", "-2*x*(x+2)", "x*(x+1)"], ["x"], 2),  # b = 0, P(d) = (d-1)*(d-2)
        (["-(2*x+5)/3", "2*x/3"], ["1/2"], 0),  # b = 0, P(d) = (2*d-5)/3, root 5/2 not integral
    ]

    @pytest.mark.parametrize("coeffs, rhs, expected", PINNED)
    def test_pinned_shift_bounds(self, coeffs, rhs, expected):
        assert _degree_bound(SHIFT, [pp(c) for c in coeffs], [pp(r) for r in rhs]) == expected

    @pytest.mark.parametrize("rhs", [[], ["x"]])
    def test_zero_operator_raises(self, rhs):
        # every r_j vanishes; a prepared equation never has this operator
        with pytest.raises(InternalVerificationError):
            _degree_bound(SHIFT, [pp("0"), pp("0")], [pp(r) for r in rhs])

    @pytest.mark.parametrize("ds", [SHIFT, Q2, Q14], ids=["shift", "q2", "q1/4"])
    def test_total_with_nonzero_ends(self, ds):
        # with p_0 and p_m nonzero some r_j is nonzero (the q case: the
        # coefficients of x^D), so every order 0-4 operator gets an integer
        # bound: Delta^k = (sigma - 1)^k, Delta^k times a polynomial, and
        # random operators
        rng = random.Random(433)
        for m in range(5):
            delta = [Poly.const(math.comb(m, i) * (-1) ** (m - i)) for i in range(m + 1)]
            ops = [delta, [p * rand_poly(rng, 3, nonzero=True) for p in delta]]
            for _ in range(12):
                ops.append([rand_poly(rng, 3, nonzero=i in (0, m)) for i in range(m + 1)])
            for coeffs in ops:
                for rhs in ([], [rand_poly(rng, 4, nonzero=True)]):
                    assert type(_degree_bound(ds, coeffs, rhs)) is int, (coeffs, rhs)

    @pytest.mark.parametrize("ds, seed", [(SHIFT, 461), (Q2, 462), (Q14, 463)], ids=["shift", "q2", "q1/4"])
    def test_bound_covers_planted_solution(self, ds, seed):
        # z solves L(y) = L(z), so the bound must reach deg z
        rng = random.Random(seed)
        for _ in range(150):
            m = rng.randint(1, 4)
            coeffs = [rand_poly(rng, 3, nonzero=i in (0, m)) for i in range(m + 1)]
            z = rand_poly(rng, 12)
            rhs = sum((p * sigma_poly(ds, z, i) for i, p in enumerate(coeffs)), Poly.zero())
            assert _degree_bound(ds, coeffs, [rhs]) >= z.degree, (coeffs, z)

    @pytest.mark.parametrize("ds", [SHIFT, Q2, Q14], ids=["shift", "q2", "q1/4"])
    def test_bound_covers_planted_kernel(self, ds):
        # shift: x*sigma(y) - (x+k)*y kills x(x+1)...(x+k-1); q: sigma(y) - q^k*y
        # kills x^k; with no right-hand side only the indicial roots bound k
        for k in range(41):
            if ds.is_shift:
                coeffs = [-Poly([k, 1]), Poly.x()]
                z = math.prod((Poly([j, 1]) for j in range(k)), start=Poly.one())
            else:
                coeffs, z = [Poly.const(-ds.q**k), Poly.one()], Poly.monomial(1, k)
            assert coeffs[0] * z + coeffs[1] * sigma_poly(ds, z) == Poly.zero()
            assert _degree_bound(ds, coeffs, []) >= k


def _lcm_rf(fs) -> RatFun:
    den = Poly.one()
    for f in fs:
        den = poly_lcm(den, f.den)
    return RatFun.from_poly(den)


class TestDenominatorClearing:
    """Clearing a common denominator gives what the RatFun products give."""

    @pytest.mark.parametrize("ds", [SHIFT, Q2])
    def test_against_ratfun_products(self, ds):
        rng = random.Random(229)
        for _ in range(40):
            order = rng.randint(0, 2)
            coeffs = [rand_ratfun(rng, ds) if i in (0, order) or rng.random() < 0.7 else RatFun.zero()
                      for i in range(order + 1)]
            basis = [rand_ratfun(rng, ds) for _ in range(rng.randint(0, 3))]
            fixed = tuple(rng.choice([None, Rat(1), Rat(-2, 3)]) for _ in basis)
            eq = scalar_eq_from_ratfun_coeffs(ds, coeffs, basis, fixed)
            d = _lcm_rf(coeffs)
            for got, c in zip(eq.coeffs, coeffs, strict=True):
                assert (c * d).is_polynomial()
                assert got == (c * d).num
            assert list(eq.rhs_basis) == [r * d for r in basis]

            fixed_rf, free_rf = eq.split_rhs()
            prep = _prepare(ds, eq.coeffs, fixed_rf, free_rf)
            d = _lcm_rf([fixed_rf, *free_rf])
            assert prep.coeffs == [p * d.num for p in eq.coeffs]
            for got, r in zip([prep.rhs_fixed, *prep.rhs_free], [fixed_rf, *free_rf], strict=True):
                assert (r * d).is_polynomial()
                assert got == (r * d).num


class TestSolveScalar:
    def test_third_order_fixture_has_no_rational_solution(self):
        sol = solve_scalar(shift_sl2_equation())
        assert sol.status is Status.NO_SOLUTION
        assert sol.witness

    def test_homogeneous_basis_spans_one_and_x(self):
        eq = ScalarDiffEq(SHIFT, (pp("1"), pp("-2"), pp("1")))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        funcs = sorted((g for g, _ in sol.homogeneous_basis), key=lambda f: f.num.degree)
        assert [f for f in funcs] == [rf("1"), rf("x")]

    def test_telescoping_particular(self):
        eq = ScalarDiffEq(SHIFT, (pp("-1"), pp("1")), (rf("1/(x*(x+1))"),), (Rat(1),))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        assert sol.particular[0] == rf("-1/x")

    def test_support_normalisation(self):
        # operator with zero trailing coefficient: sigma^2(y) - sigma(y) = 1
        eq = ScalarDiffEq(SHIFT, (Poly.zero(), pp("-1"), pp("1")), (RatFun.one(),), (Rat(1),))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        g = sol.particular[0]
        assert apply_sigma(SHIFT, g, 2) - apply_sigma(SHIFT, g, 1) == RatFun.one()

    def test_degenerate_division(self):
        eq = ScalarDiffEq(SHIFT, (pp("x"),), (rf("x^2+x"),), (Rat(1),))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        assert sol.particular[0] == rf("x+1")

    def test_zero_operator_rejected(self):
        with pytest.raises(PreconditionError):
            ScalarDiffEq(SHIFT, (Poly.zero(),))

    def test_bound_exceeded_is_not_no_solution(self):
        eq = ScalarDiffEq(SHIFT, (pp("-1"), pp("1")), (rf("x^5"),), (Rat(1),))
        sol = solve_scalar(eq, degree_cap=3)
        assert sol.status is Status.BOUND_EXCEEDED
        full = solve_scalar(eq)
        assert full.status is Status.SOLVED

    def test_free_lambda_space(self):
        # sigma(y) - y = l1*1 + l2*x has solutions for every (l1, l2)
        eq = ScalarDiffEq(SHIFT, (pp("-1"), pp("1")), (rf("1"), rf("x")))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        lambda_dirs = {tuple(v != 0 for v in lam) for _, lam in sol.homogeneous_basis}
        assert len(sol.homogeneous_basis) == 3  # two lambda directions + constants
        assert (True, False) in lambda_dirs or (True, True) in lambda_dirs

    def test_substitution_soundness_random(self):
        rng = random.Random(223)
        for _ in range(80):
            ds = SHIFT if rng.random() < 0.5 else Q2
            eq = rand_scalar_eq(rng, ds)
            sol = solve_scalar(eq)
            if sol.status is not Status.SOLVED:
                continue
            if sol.particular is not None:
                g, lam = sol.particular
                assert eq.residual(g, lam).is_zero()
            for g, lam in sol.homogeneous_basis:
                assert eq.residual(g, lam).is_zero()

    def test_linearity_of_particulars(self):
        rng = random.Random(227)
        count = 0
        while count < 20:
            ds = SHIFT if rng.random() < 0.5 else Q2
            coeffs = (pp("-1") * rand_ratfun(rng, ds).den, rand_ratfun(rng, ds).den * pp("1"))
            r1 = rand_ratfun(rng, ds)
            r2 = rand_ratfun(rng, ds)
            e1 = ScalarDiffEq(ds, coeffs, (r1,), (Rat(1),))
            e2 = ScalarDiffEq(ds, coeffs, (r2,), (Rat(1),))
            e12 = ScalarDiffEq(ds, coeffs, (r1 + r2,), (Rat(1),))
            s1, s2 = solve_scalar(e1), solve_scalar(e2)
            if not (s1.is_solved() and s2.is_solved()):
                count += 1
                continue
            combined = s1.particular[0] + s2.particular[0]
            assert e12.residual(combined, (Rat(1),)).is_zero()
            count += 1


class TestSolveFirstOrder:
    def test_harmonic_rhs_unsolvable(self):
        sol = solve_first_order(SHIFT, RatFun.one(), rhs_basis=[rf("1/x")], lambda_fixed=[Rat(1)])
        assert sol.status is Status.NO_SOLUTION
        assert "pole" in sol.witness

    def test_constant_twist(self):
        sol = solve_first_order(SHIFT, rf("2"), rhs_basis=[rf("1")], lambda_fixed=[Rat(1)])
        assert sol.status is Status.SOLVED
        assert sol.particular[0] == rf("-1")

    def test_q_linear_rhs(self):
        sol = solve_first_order(Q2, RatFun.one(), rhs_basis=[rf("x")], lambda_fixed=[Rat(1)])
        assert sol.status is Status.SOLVED
        assert sol.particular[0] == rf("x")

    def test_fast_path_matches_general_path(self):
        rng = random.Random(229)
        for _ in range(40):
            ds = SHIFT if rng.random() < 0.5 else Q2
            a = RatFun.const(Rat(rng.choice([1, 2, -1, 4, 3]), rng.choice([1, 2])))
            rhs = rand_ratfun(rng, ds)
            fast = _solve_first_order_const(ds, a.const_value(), rhs, [], None)
            eq = scalar_eq_from_ratfun_coeffs(ds, [-a, RatFun.one()], [rhs], [Rat(1)])
            general = solve_scalar(eq)
            assert fast.is_solved() == general.is_solved(), (ds, a, rhs)
            assert fast.homogeneous_dimension() == general.homogeneous_dimension()
            if fast.is_solved():
                g, free_lambdas = fast.particular
                assert free_lambdas == () and eq.residual(g, (Rat(1),)).is_zero()

    def test_constant_twist_space_substituted_once(self, monkeypatch):
        # the Laurent remainder is not checked on its own: substituting
        # g = h + w into the original equation checks h too
        calls = []
        real = solver._verify_space
        monkeypatch.setattr(solver, "_verify_space", lambda eq, space: calls.append(eq) or real(eq, space))
        sol = solve_first_order(SHIFT, rf("2"), rhs_basis=[rf("x + 1/(x+1) - 2/x"), rf("1")], lambda_fixed=[Rat(1), None])
        assert sol.status is Status.SOLVED and sol.homogeneous_basis
        assert len(calls) == 1

    @staticmethod
    def _lambda_layout(ds, a, basis, fixed):
        """The core's space and the public solver's: the same functions g,
        the core's pairs with the free lambdas only, the solver's with the
        full vector, a pinned slot holding its value (0 in the kernel)."""
        eq, space = first_order_space(ds, a, basis, fixed)
        sol = solve_first_order(ds, a, basis, fixed)
        assert eq == scalar_eq_from_ratfun_coeffs(ds, [-a, RatFun.one()], basis, fixed)
        assert space.status is sol.status and space.witness == sol.witness
        assert (space.particular is None) == (sol.particular is None)
        pairs = [(space.particular, sol.particular, False)] if sol.particular else []
        pairs += [(core, full, True) for core, full in zip(space.homogeneous_basis, sol.homogeneous_basis)]
        assert len(space.homogeneous_basis) == len(sol.homogeneous_basis)
        for (g, free), (g_full, lam), homogeneous in pairs:
            assert g == g_full
            assert len(free) == fixed.count(None) and len(lam) == len(basis)
            it = iter(free)
            assert lam == tuple(next(it) if v is None else (0 if homogeneous else v) for v in fixed)
        return space, sol

    @pytest.mark.parametrize("ds", [Q2, Q14], ids=["q2", "q1/4"])
    def test_resonant_pairs_carry_the_free_lambda(self, ds):
        # a = q^2 and b = sigma(h) - a*h - x^2 on the basis (b, x^2): the
        # constant-twist path; x^2 is the kernel, so lambda = 1 is forced
        h, a = rf("1/(x-2) + x"), RatFun.const(ds.q**2)
        basis, fixed = [apply_sigma(ds, h) - a * h - rf("x^2"), rf("x^2")], [Rat(1), None]
        space, sol = self._lambda_layout(ds, a, basis, fixed)
        assert space.particular[1] == (1,) and sol.particular[1] == (1, 1)
        assert [lam for _, lam in space.homogeneous_basis] == [(0,)]
        assert [lam for _, lam in sol.homogeneous_basis] == [(0, 0)]

    def test_pole_obstruction_pairs(self):
        # the pole of 1/x is an obstruction; the kernel still carries free lambdas
        basis, fixed = [rf("1/x"), rf("1"), rf("x")], [Rat(1), None, None]
        space, sol = self._lambda_layout(SHIFT, RatFun.one(), basis, fixed)
        assert sol.status is Status.NO_SOLUTION and "pole" in sol.witness
        assert sol.homogeneous_basis

    def test_nonconstant_twist_pairs(self):
        # a not constant takes the general path
        h, a = rf("1/(x-2) + x"), rf("(x+1)/(x+3)")
        basis = [apply_sigma(SHIFT, h) - a * h, rf("1/(x*(x+2))"), rf("1")]
        space, sol = self._lambda_layout(SHIFT, a, basis, [Rat(1), None, None])
        assert sol.status is Status.SOLVED

    def test_q_resonant_kernel(self):
        # a = q^2: the homogeneous kernel is spanned by x^2
        sol = solve_first_order(Q2, rf("4"), rhs_basis=[])
        assert sol.status is Status.SOLVED
        assert [g for g, _ in sol.homogeneous_basis] == [rf("x^2")]

    def test_q_power_roots_of_constants(self):
        # the resonant exponent r of a = q^r is the one q-power root of x - a
        for q in (Rat(2), Rat(1, 4), Rat(-3), Rat(3, 2)):
            ds = q_structure(q)
            for v in range(-300, 301):
                c = q ** v
                assert q_power_roots(ds, Poly([-c, 1])) == [v]
                assert q_power_roots(ds, Poly([c, 1])) == []  # -q^v
                assert q_power_roots(ds, Poly([-c * Rat(5, 7), 1])) == []
            assert q_power_roots(ds, Poly([0, 1])) == []

    def test_zero_twist_rejected(self):
        with pytest.raises(PreconditionError):
            solve_first_order(SHIFT, RatFun.zero(), rhs_basis=[])


class TestSolveSystem:
    def test_core_gives_the_same_space(self, monkeypatch):
        # a planted 2x2 system: v = (1/x, x + 1) solves sigma(v) = M v + c;
        # the core substitutes nothing, the public solver checks the same space
        m, v = MatrixRF([[1, rf("x")], [0, 2]]), [rf("1/x"), rf("x + 1")]
        c = [apply_sigma(SHIFT, f) - g for f, g in zip(v, m.mat_vec(v))]
        checks = []
        real = solver._verify_system
        monkeypatch.setattr(solver, "_verify_system", lambda *args: checks.append(args) or real(*args))
        space = system_space(SHIFT, m, c)
        assert checks == []
        sol = solve_system(SHIFT, m, c)
        assert len(checks) == 1
        assert space == sol and sol.status is Status.SOLVED

    def test_identity_constants(self):
        sol = solve_system(SHIFT, MatrixRF([[1, 0], [0, 1]]), [RatFun.zero(), RatFun.zero()])
        assert sol.status is Status.SOLVED
        assert len(sol.homogeneous_basis) == 2
        for vec in sol.homogeneous_basis:
            for entry in vec:
                assert entry.is_constant()

    def test_4x4_fixture_system_unsolvable(self):
        m = MatrixRF(
            [
                [0, 0, rf("-x"), 1],
                [0, 0, -1, 0],
                [rf("x"), -1, rf("x^2"), rf("-x")],
                [1, 0, rf("x"), 0],
            ]
        )
        c = [RatFun.zero(), RatFun.zero(), rf("-1"), RatFun.zero()]
        sol = solve_system(SHIFT, m, c)
        assert sol.status is Status.NO_SOLUTION
        # the b-entry elimination recovers the third-order scalar equation
        eq_b = solver._eliminate(SHIFT, m, c, unit_vector(4, 1))[0]
        reference = shift_sl2_equation()
        assert _proportional(eq_b, reference)

    def test_diagonal_no_rational_eigenvectors(self):
        m = MatrixRF([[2, 0], [0, 3]])
        sol = solve_system(SHIFT, m, [RatFun.zero(), RatFun.zero()])
        assert sol.status is Status.SOLVED
        assert sol.homogeneous_basis == ()
        # oracle confirmation for the first coordinate
        eq = ScalarDiffEq(SHIFT, (pp("-2"), pp("1")))
        assert companion_oracle(eq).homogeneous_basis == ()

    def test_inhomogeneous_particular(self):
        # sigma(v) = [[1,1],[0,2]] v + (1, -1): solvable with rational v
        m = MatrixRF([[1, 1], [0, 2]])
        c = [rf("1"), rf("-1")]
        sol = solve_system(SHIFT, m, c)
        assert sol.status is Status.SOLVED
        v = sol.particular
        lhs = [apply_sigma(SHIFT, f) for f in v]
        rhs = [m.entries[i][0] * v[0] + m.entries[i][1] * v[1] + c[i] for i in range(2)]
        assert lhs == rhs

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_system(SHIFT, MatrixRF([[1, 1], [1, 1]]), [RatFun.zero(), RatFun.zero()])

    @pytest.mark.parametrize("ds", [SHIFT, Q2], ids=["shift", "q2"])
    @pytest.mark.parametrize(
        "entries",
        [
            [[0, 0], [0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[1, 0], [0, 0]],
            [[1, 1], [rf("x"), rf("x")]],
            # the row space holds e_0, (1, x, ..., x^4), e_3 and e_4 but not
            # e_1 or e_2: only a unit vector ends the search
            [[1, 0, 0, 0, 0], [0, rf("x"), rf("x^2"), 0, 0], [0] * 5, [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
        ],
        ids=["zero-2x2", "zero-3x3", "diag-1-0-0", "diag-1-0", "rank-one", "misses-e1-e2"],
    )
    def test_singular_matrix_ends_candidate_search(self, monkeypatch, ds, entries):
        # every candidate outside M's row space has e_0 = 0, and some unit
        # vector is outside it: the search raises once the unit vectors that
        # lead the constant candidates are tried (e_0 and (1, x, ...) come
        # first)
        n = len(entries)
        tried = []
        real = solver._eliminate
        monkeypatch.setattr(solver, "_eliminate", lambda *args: tried.append(args[3]) or real(*args))
        with pytest.raises(SingularMatrixError):
            solve_system(ds, MatrixRF(entries), [RatFun.zero()] * n)
        assert 1 <= len(tried) <= n + 2

    @pytest.mark.parametrize(
        "ds, entries, dim",
        [
            (Q2, [[rf("x"), 0], [0, rf("x")]], 0),
            (SHIFT, [[int(i == j) for j in range(3)] for i in range(3)], 3),
            (SHIFT, [[2 * int(i == j) for j in range(4)] for i in range(4)], 0),
        ],
        ids=["x-I2-q2", "I3", "2-I4"],
    )
    def test_scalar_matrix_needs_nonconstant_cyclic_vector(self, ds, entries, dim):
        # M = a*I gives rho_1 = sigma(t) a = a*t for every constant t, so no
        # constant t is cyclic; (1, x, ..., x^(n-1)) is
        m = MatrixRF(entries)
        n = m.n
        zeros = [RatFun.zero()] * n
        for coeffs in itertools.product(range(n + 1), repeat=n):
            if any(coeffs):
                assert len(solver._eliminate(ds, m, zeros, [Poly([a]) for a in coeffs])[1]) < n
        v = [rf("1/(x+1)"), rf("x^2"), rf("x/(x+2)"), rf("1")][:n]
        c = [apply_sigma(ds, f) - g for f, g in zip(v, m.mat_vec(v))]
        sol = solve_system(ds, m, c)
        assert sol.status is Status.SOLVED
        assert sol.scalar_trace.order == n
        assert len(sol.homogeneous_basis) == dim
        assert _in_span(sol.homogeneous_basis, [a - b for a, b in zip(v, sol.particular)])
        _matches_system_oracle(ds, m, c, sol)


def planted_systems(ds, seed: int, count: int, n: int = 2):
    """``count`` systems (M, c, v, k) with a rational solution v of
    sigma(v) = M v + c and a rational kernel vector k, sigma(k) = M k: the
    last column of a random M over Q(x) is solved for from k, then
    c = sigma(v) - M v."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        k = [rand_ratfun(rng, ds) for _ in range(n)]
        v = [rand_ratfun(rng, ds) for _ in range(n)]
        entries = [[rand_ratfun(rng, ds) for _ in range(n - 1)] for _ in range(n)]
        for i, row in enumerate(entries):
            known = sum((row[j] * k[j] for j in range(n - 1)), RatFun.zero())
            row.append((apply_sigma(ds, k[i]) - known) / k[n - 1])
        m = MatrixRF(entries)
        try:
            m.inverse()
        except SingularMatrixError:
            continue
        c = [apply_sigma(ds, f) - g for f, g in zip(v, m.mat_vec(v))]
        made += 1
        yield m, c, v, k


def _matches_system_oracle(ds, m, c, sol):
    """The stacked-ansatz oracle finds the same status and, for a solved
    system, a space of the same dimension, each space lying in the other:
    every basis vector, and the difference of the particular solutions.
    The oracle allows numerator degree 4 above its denominator, and x^4 in
    the denominator in the q case."""
    reference = system_oracle(ds, m, c, 4, x_power=4)
    assert reference.status is sol.status
    if sol.status is not Status.SOLVED:
        return
    assert len(reference.homogeneous_basis) == len(sol.homogeneous_basis)
    for mine, theirs in ((sol, reference), (reference, sol)):
        for vec in mine.homogeneous_basis:
            assert _in_span(theirs.homogeneous_basis, vec)
    delta = [a - b for a, b in zip(sol.particular, reference.particular)]
    assert _in_span(reference.homogeneous_basis, delta)
    assert _in_span(sol.homogeneous_basis, delta)


class TestSystemRoutes:
    @pytest.mark.parametrize(
        "ds, seed, n", [(SHIFT, 701, 2), (Q2, 702, 2), (Q14, 703, 2), (SHIFT, 704, 3)],
        ids=["shift", "q2", "q1/4", "shift-3x3"],
    )
    def test_cyclic_route_planted(self, ds, seed, n):
        for m, c, v, k in planted_systems(ds, seed, 8 if n == 2 else 2, n):
            eq0 = solver._eliminate(ds, m, c, unit_vector(n, 0))[0]
            assert eq0.order == n  # coordinate 0 is cyclic
            sol = solve_system(ds, m, c)
            assert sol.status is Status.SOLVED
            assert sol.scalar_trace == eq0
            assert sol.homogeneous_basis
            assert _in_span(sol.homogeneous_basis, k)
            assert _in_span(sol.homogeneous_basis, [a - b for a, b in zip(v, sol.particular)])
            _matches_system_oracle(ds, m, c, sol)

    @pytest.mark.parametrize(
        "ds, entries, dim",
        [
            (SHIFT, [[1, 0], [1, 1]], 2),
            (SHIFT, [[2, 0], [0, 3]], 0),
            (SHIFT, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
            # sigma(v_1) - v_1 = v_0 has no rational solution for a constant
            # v_0 != 0 in the q case; x^k solves sigma(y) = 2y when q^k = 2
            (Q2, [[1, 0], [1, 1]], 1),
            (Q2, [[2, 0], [0, 3]], 1),
            (Q2, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 3),
            (Q14, [[1, 0], [1, 1]], 1),
            (Q14, [[2, 0], [0, 3]], 0),
            (Q14, [[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
        ],
        ids=["unipotent", "diagonal", "diagonal-3x3", "unipotent-q2", "diagonal-q2", "diagonal-3x3-q2",
             "unipotent-q1/4", "diagonal-q1/4", "diagonal-3x3-q1/4"],
    )
    def test_fallback_route(self, ds, entries, dim):
        # coordinate 0 satisfies a first-order equation on its own, so the
        # search falls back to the next candidate, t = (1, x, ...), which is
        # cyclic here
        m = MatrixRF(entries)
        n = m.n
        v = [rf("1/(x+1)"), rf("x^2"), rf("x/(x+2)")][:n]
        c = [apply_sigma(ds, f) - g for f, g in zip(v, m.mat_vec(v))]
        assert solver._eliminate(ds, m, c, unit_vector(n, 0))[0].order < n
        t = [Poly.monomial(1, j) for j in range(n)]
        sol = solve_system(ds, m, c)
        assert sol.status is Status.SOLVED
        assert sol.scalar_trace == solver._eliminate(ds, m, c, t)[0]
        assert len(sol.homogeneous_basis) == dim
        assert _in_span(sol.homogeneous_basis, [a - b for a, b in zip(v, sol.particular)])
        _matches_system_oracle(ds, m, c, sol)

    @pytest.mark.parametrize(
        "ds, entries, cyclic",
        [
            (SHIFT, [[0, 1], [1, 0]], True),
            (SHIFT, [[1, 0], [1, 1]], False),
            (Q2, [[0, 1], [1, 0]], True),
            (Q2, [[1, 0], [1, 1]], False),
            (Q14, [[0, 1], [1, 0]], True),
            (Q14, [[1, 0], [1, 1]], False),
        ],
        ids=["cyclic", "fallback", "cyclic-q2", "fallback-q2", "cyclic-q1/4", "fallback-q1/4"],
    )
    def test_system_substituted_once(self, monkeypatch, ds, entries, cyclic):
        # the returned vectors are substituted into the system; the scalar
        # spaces they are built from are not checked on their own
        calls = []
        for name in ("_verify_space", "_verify_system"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
        m = MatrixRF(entries)
        v = [rf("1/(x+1)"), rf("x^2")]
        c = [apply_sigma(ds, f) - g for f, g in zip(v, m.mat_vec(v))]
        assert (solver._eliminate(ds, m, c, unit_vector(2, 0))[0].order == 2) is cyclic
        sol = solve_system(ds, m, c)
        assert sol.status is Status.SOLVED
        assert calls == ["_verify_system"]
        _matches_system_oracle(ds, m, c, sol)

    def test_cyclic_route_obstruction(self):
        # sigma(v) = [[0, 1], [1, 0]] v + (1/x, 0): coordinate 0 is cyclic
        # with sigma^2(y) - y = 1/(x+1), which has no rational solution
        m, c = MatrixRF([[0, 1], [1, 0]]), [rf("1/x"), RatFun.zero()]
        sol = solve_system(SHIFT, m, c)
        assert sol.status is Status.NO_SOLUTION
        assert sol.witness.startswith("coordinate 0: no rational solution: ")
        assert sol.scalar_trace == solver._eliminate(SHIFT, m, c, unit_vector(2, 0))[0]
        _matches_system_oracle(SHIFT, m, c, sol)


def _plain_rows(ds, m, c, coord):
    """[(rho_k, gamma_k)] for k = 0..n by the RatFun recurrence
    rho_(k+1) = sigma(rho_k) M, gamma_(k+1) = sigma(rho_k) . c + sigma(gamma_k)."""
    n, zero = m.n, RatFun.zero()
    rho, gamma = [RatFun.one() if j == coord else zero for j in range(n)], zero
    out = [(rho, gamma)]
    for _ in range(n):
        s_rho = [apply_sigma(ds, f) for f in rho]
        rho = [sum((s_rho[i] * m.entries[i][j] for i in range(n)), zero) for j in range(n)]
        gamma = sum((s_rho[i] * c[i] for i in range(n)), apply_sigma(ds, gamma))
        out.append((rho, gamma))
    return out


def _rank_at_points(vectors) -> int:
    """The largest rank over Q of the vectors evaluated at a few points:
    their rank over Q(x) when it is reached at one of them."""
    best = 0
    for point in (Rat(7, 3), Rat(-11, 5), Rat(13, 2), Rat(-17, 7)):
        try:
            rows = [[f.eval(point) for f in vec] for vec in vectors]
        except ZeroDivisionError:
            continue
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(rank + 1, len(rows)):
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        best = max(best, rank)
    return best


def _rand_entry(rng, ds):
    """Zero, a small constant, or a low-degree polynomial over at most one
    linear factor prime to x."""
    roll = rng.random()
    if roll < 0.3:
        return RatFun.zero()
    if roll < 0.5:
        return RatFun.const(rng.choice((1, 2, -1, 3)))
    num = rand_poly(rng, 1, lo=-3, hi=3, nonzero=True)
    if rng.random() < 0.5:
        return RatFun(num)
    return RatFun(num, Poly([rng.choice((-3, -2, -1, 1, 2, 4)), 1]))


class TestEliminateCoordinate:
    """The equation of one coordinate: ``solver._eliminate`` for the unit
    vector t = e_coord."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ds", [SHIFT, Q2, Q14], ids=["shift", "q2", "q1/4"])
    def test_matches_plain_recurrence(self, ds, n):
        """The equation sum_i e_i sigma^i(y) = rhs of every coordinate has
        sum_i e_i rho_i = 0 and rhs = sum_i e_i gamma_i for the rho_k, gamma_k
        of the RatFun recurrence; its order k is the first k with rho_k in
        the span of rho_0..rho_(k-1); and it is the equation
        ``scalar_eq_from_ratfun_coeffs`` builds from e / e_k."""
        rng = random.Random(9100 + 10 * n + (0 if ds is SHIFT else 1 if ds is Q2 else 2))
        orders = set()
        for trial in range(4):
            entries = [[_rand_entry(rng, ds) for _ in range(n)] for _ in range(n)]
            if trial % 2:
                # the other coordinates' equations do not read the last
                # coordinate, so none of them is cyclic
                for i in range(n - 1):
                    entries[i][n - 1] = RatFun.zero()
            m = MatrixRF(entries)
            c = [_rand_entry(rng, ds) for _ in range(n)]
            for coord in range(n):
                eq = solver._eliminate(ds, m, c, unit_vector(n, coord))[0]
                k = eq.order
                orders.add(k == n)
                plain = _plain_rows(ds, m, c, coord)
                e = [RatFun.from_poly(p) for p in eq.coeffs]
                assert not e[-1].is_zero()
                for j in range(n):
                    assert sum((ei * rho[j] for ei, (rho, _) in zip(e, plain)), RatFun.zero()).is_zero()
                rhs = sum((ei * gamma for ei, (_, gamma) in zip(e, plain)), RatFun.zero())
                assert (eq.rhs_value((Rat(1),)) if eq.rhs_basis else RatFun.zero()) == rhs
                assert _rank_at_points([rho for rho, _ in plain[:k]]) == k
                ek = e[-1]
                expected = scalar_eq_from_ratfun_coeffs(
                    ds, [ei / ek for ei in e], rhs_basis=[rhs / ek] if rhs else [],
                    lambda_fixed=[Rat(1)] if rhs else None,
                )
                assert eq == expected
        assert orders == {True, False}  # cyclic and not


def _proportional(eq_a: ScalarDiffEq, eq_b: ScalarDiffEq) -> bool:
    """Same equation up to one overall rational-function unit."""
    if eq_a.order != eq_b.order:
        return False
    ca, cb = list(eq_a.coeffs), list(eq_b.coeffs)
    ra = eq_a.rhs_value(tuple(v or Rat(0) for v in eq_a.lambda_fixed))
    rb = eq_b.rhs_value(tuple(v or Rat(0) for v in eq_b.lambda_fixed))
    for pa, pb in zip(ca, cb):
        for qa, qb in zip(ca, cb):
            if pa * qb != pb * qa:
                return False
    # rhs must scale by the same unit as the coefficients
    i = next(i for i, p in enumerate(cb) if not p.is_zero())
    return ra * RatFun.from_poly(cb[i]) == rb * RatFun.from_poly(ca[i])


def _matches_companion_oracle(eq, sol):
    """``companion_oracle`` finds the status and the homogeneous dimension
    of ``sol`` and, for a solved equation, the same affine space of
    vectors (y, free lambdas), read off its vectors (y, sigma(y), ...,
    free lambdas)."""
    reference = companion_oracle(eq)
    free = [k for k, v in enumerate(eq.lambda_fixed) if v is None]

    def mine(g, lam):
        return (g, *(RatFun.const(lam[k]) for k in free))

    def theirs(v):
        return (v[0], *v[eq.order :])

    basis = [mine(*pair) for pair in sol.homogeneous_basis]
    reference_basis = [theirs(v) for v in reference.homogeneous_basis]
    assert reference.status is sol.status, eq
    assert len(basis) == len(reference_basis), eq
    assert all(_in_span(reference_basis, v) for v in basis), eq
    assert all(_in_span(basis, v) for v in reference_basis), eq
    if sol.is_solved():
        delta = [a - b for a, b in zip(mine(*sol.particular), theirs(reference.particular))]
        assert _in_span(basis, delta), eq


def _companion_denominator(eq) -> Poly:
    """The U that ``system_oracle`` takes from the companion system of eq."""
    m, c, free = companion_system(eq)
    return _system_denominator(eq.structure, m, [c, *free])


class TestBruteForceOracle:
    """``solve_scalar`` against ``system_oracle`` on the companion system."""

    def test_matches_solver_on_fixture_equations(self):
        for eq in (
            shift_sl2_equation(),
            ScalarDiffEq(SHIFT, (pp("1"), pp("-2"), pp("1"))),
            ScalarDiffEq(SHIFT, (pp("-1"), pp("1")), (rf("1/(x*(x+1))"),), (Rat(1),)),
        ):
            _matches_companion_oracle(eq, solve_scalar(eq))

    def test_sharp_denominator_against_two_sided(self):
        # acceptance-7 instances whose coefficients have no common root: the
        # sharp u, x divided out in the q case, divides the U that the
        # oracle takes from both sides of the companion system (the proof is
        # at ``oracle.companion_system``)
        checked = 0
        for ds, seed in ((SHIFT, 20260814), (Q2, 20260815)):
            rng = random.Random(seed)
            for _ in range(150):
                eq = rand_scalar_eq(rng, ds)
                if functools.reduce(poly_gcd, eq.coeffs).degree > 0:
                    continue
                u = solve_scalar(eq).universal_den
                u = Poly(u.coeffs[u.valuation() :])
                assert (_companion_denominator(eq) % u).is_zero(), eq
                checked += 1
        assert checked >= 280

    def test_common_root_breaks_divisibility(self):
        # x*sigma(y) - x*(x-1)*y = 0: the common root 0 of the coefficients
        # gives the sharp u a chain the companion matrix (x - 1) cancels
        eq = ScalarDiffEq(SHIFT, (pp("-x*(x-1)"), pp("x")))
        sol = solve_scalar(eq)
        assert sol.universal_den == pp("x-1")
        assert _companion_denominator(eq) == Poly.one()
        _matches_companion_oracle(eq, sol)

    @pytest.mark.parametrize(
        "ds, route",
        [(ds, route) for route in ("first-order", "telescoper") for ds in (SHIFT, Q2, Q14)]
        + [(Q2, "da-inhomog"), (Q14, "da-inhomog")],
        ids=lambda v: v if isinstance(v, str) else "shift" if v.is_shift else f"q{v.q}",
    )
    def test_free_lambdas(self, monkeypatch, ds, route):
        # every first_order_space call of the route, free lambdas included,
        # against the oracle on the same equation, its pairs filled out to
        # full lambda vectors; the resonant da-inhomog basis (b, x^r) exists
        # only in the q case
        seen = []

        def recording(ds, a, rhs_basis=(), lambda_fixed=None, degree_cap=None):
            eq, space = first_order_space(ds, a, rhs_basis, lambda_fixed, degree_cap)
            seen.append((eq, solver._verify_space(eq, space)))
            return eq, space

        monkeypatch.setattr(criteria, "first_order_space", recording)
        h = rf("1/(x-2) + x")
        if route == "first-order":
            # the constant-twist path, and the general one with a solution
            recording(ds, rf("2"), [rf("x + 1/(x+1) - 2/x"), rf("1"), rf("x")], [Rat(1), None, None])
            a = rf("(x+1)/(x+3)")
            recording(ds, a, [apply_sigma(ds, h) - a * h, rf("1/(x*(x+2))"), rf("1")], [Rat(1), None, None])
        elif route == "telescoper":
            # d(f) - g = h - sigma(h): a telescoper of order 1 and none of order 0
            f = rf("1/(x-1)")
            g = apply_derivation(ds, f) + apply_sigma(ds, h) - h
            tele = criteria.find_telescoper(ds, [f, g], 1)
            assert tele is not None and any(op.coeffs[1:] and op.coeffs[1] for op in tele.operators)
        else:
            # a = q^2, b = sigma(h) - a*h + x^2
            a = RatFun.const(ds.q**2)
            verdict = criteria.inhomog_da_classify(ds, a, apply_sigma(ds, h) - a * h + rf("x^2"))
            assert verdict.certificate.d == 1
        assert any(None in eq.lambda_fixed for eq, _ in seen)
        for eq, sol in seen:
            _matches_companion_oracle(eq, sol)

    def test_agreement_sample(self):
        assert run_oracle_agreement_suite(SHIFT, 40, seed=301) == 40
        assert run_oracle_agreement_suite(Q2, 40, seed=303) == 40
