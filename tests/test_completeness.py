"""Completeness stress tests: planted solutions must always be found and must
lie inside the reported solution spaces."""

import random

from conftest import Q2, Q14, SHIFT, pp, rand_poly, rand_ratfun, rf
from diffalg import (
    MatrixRF,
    Poly,
    Rat,
    RatFun,
    ScalarDiffEq,
    SingularMatrixError,
    Status,
    apply_sigma,
    dispersion,
    solve_scalar,
    solve_system,
)
from diffalg.linalg import solve_affine
from diffalg.numcore import RAT_ONE, RAT_ZERO, poly_lcm


def _ratfun_combo_solvable(target, basis):
    """Is target a Q-linear combination of the given rational functions?"""
    den = target.den
    for b in basis:
        den = poly_lcm(den, b.den)
    den_rf = RatFun.from_poly(den)
    cols = [(b * den_rf).num for b in basis]
    goal = (target * den_rf).num
    max_e = max([p.degree for p in cols + [goal]] + [0])
    rows = [[c[e] for c in cols] for e in range(max_e + 1)]
    rhs = [goal[e] for e in range(max_e + 1)]
    particular, _ = solve_affine(rows, rhs, RAT_ZERO, RAT_ONE)
    return particular is not None


class TestPlantedScalarSolutions:
    def test_planted_solution_always_found(self):
        rng = random.Random(601)
        for trial in range(60):
            ds = (SHIFT, Q2, Q14)[trial % 3]
            order = rng.randint(1, 3)
            coeffs = []
            for i in range(order + 1):
                nonzero = i in (0, order)
                coeffs.append(rand_poly(rng, 2, nonzero=True) if nonzero or rng.random() < 0.7 else Poly.zero())
            planted = rand_ratfun(rng, ds, with_pole=(trial % 2 == 0))
            eq_probe = ScalarDiffEq(ds, tuple(coeffs))
            rhs = eq_probe.apply_operator(planted)
            if rhs.is_zero():
                continue
            eq = ScalarDiffEq(ds, tuple(coeffs), (rhs,), (Rat(1),))
            sol = solve_scalar(eq)
            assert sol.status is Status.SOLVED, (ds, coeffs, planted)
            # planted - particular must lie in the homogeneous span
            delta = planted - sol.particular[0]
            if delta.is_zero():
                continue
            basis = [g for g, _ in sol.homogeneous_basis]
            assert basis and _ratfun_combo_solvable(delta, basis), (ds, planted)

    def test_planted_laurent_solution_q(self):
        # solutions with poles at 0 exercise the valuation bound
        rng = random.Random(607)
        for _ in range(20):
            planted = RatFun(rand_poly(rng, 2, nonzero=True), Poly.monomial(1, rng.randint(1, 3)))
            coeffs = (rand_poly(rng, 2, nonzero=True), rand_poly(rng, 2, nonzero=True))
            eq_probe = ScalarDiffEq(Q2, coeffs)
            rhs = eq_probe.apply_operator(planted)
            if rhs.is_zero():
                continue
            eq = ScalarDiffEq(Q2, coeffs, (rhs,), (Rat(1),))
            sol = solve_scalar(eq)
            assert sol.status is Status.SOLVED

    def test_planted_free_lambda_direction(self):
        # rhs basis {r1, r2} with a solution only at a specific lambda mix
        ds = SHIFT
        g = rf("1/x")
        image = apply_sigma(ds, g) - g             # sigma(g) - g
        r1 = image + rf("1/x")
        r2 = rf("1/x")
        # sigma(y) - y = l1*r1 + l2*r2 solvable iff l1 + l2*... :
        # l1*(image + 1/x) + l2*(1/x) = image*l1 + (l1+l2)/x needs l1 = -l2
        eq = ScalarDiffEq(ds, (pp("-1"), pp("1")), (r1, r2))
        sol = solve_scalar(eq)
        assert sol.status is Status.SOLVED
        lam_dirs = [lam for _, lam in sol.homogeneous_basis if any(v != 0 for v in lam)]
        assert lam_dirs
        for lam in lam_dirs:
            assert lam[0] + lam[1] == 0


class TestPlantedSystemSolutions:
    def test_planted_vector_recovered(self):
        rng = random.Random(613)
        found = 0
        while found < 15:
            ds = SHIFT if rng.random() < 0.5 else Q2
            entries = [[rand_ratfun(rng, ds) for _ in range(2)] for _ in range(2)]
            m = MatrixRF(entries)
            try:
                m.inverse()
            except SingularMatrixError:
                continue
            v = [rand_ratfun(rng, ds), rand_ratfun(rng, ds)]
            c = [apply_sigma(ds, v[i]) - sum(m.entries[i][j] * v[j] for j in range(2)) for i in range(2)]
            sol = solve_system(ds, m, c)
            assert sol.status is Status.SOLVED, (ds, entries, v)
            delta = [v[i] - sol.particular[i] for i in range(2)]
            if all(d.is_zero() for d in delta):
                found += 1
                continue
            # stack both coordinates into one membership problem
            basis_funcs = []
            for vec in sol.homogeneous_basis:
                basis_funcs.append(vec)
            assert basis_funcs
            den = Poly.one()
            for d in delta:
                den = poly_lcm(den, d.den)
            for vec in basis_funcs:
                for entry in vec:
                    den = poly_lcm(den, entry.den)
            den_rf = RatFun.from_poly(den)
            cols = []
            for vec in basis_funcs:
                stacked = []
                for entry in vec:
                    p = (entry * den_rf).num
                    stacked.extend(p[e] for e in range(den.degree + 4))
                cols.append(stacked)
            goal = []
            for d in delta:
                p = (d * den_rf).num
                goal.extend(p[e] for e in range(den.degree + 4))
            rows = [[col[i] for col in cols] for i in range(len(goal))]
            particular, _ = solve_affine(rows, goal, RAT_ZERO, RAT_ONE)
            assert particular is not None
            found += 1


class TestPlantedDispersionGaps:
    def test_shift_planted_gaps(self):
        rng = random.Random(617)
        for _ in range(40):
            base = rand_poly(rng, 2, nonzero=True)
            if base.degree == 0:
                continue
            gap = rng.randint(1, 9)
            p = base * base.shift_arg(gap)
            assert dispersion(SHIFT, p) >= gap

    def test_q_planted_gaps(self):
        rng = random.Random(619)
        for ds in (Q2, Q14):
            for _ in range(30):
                base = rand_poly(rng, 2, nonzero=True)
                if base.degree == 0 or base.valuation() > 0:
                    continue
                gap = rng.randint(1, 6)
                p = base * base.scale_arg(ds.q ** gap)
                assert dispersion(ds, p) >= gap

    def test_exact_gap_single_orbit(self):
        for gap in (1, 3, 7):
            p = pp("x-5") * pp("x-5").shift_arg(gap)
            assert dispersion(SHIFT, p) == gap
