"""Decision procedures: telescopers, hypergeometric and inhomogeneous
first-order classification, matrix integrability, group classification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ORBIT_BASES, Q2, Q14, QM3, SHIFT, pp, rand_orbit_factor, rand_ratfun, rf, unit_vector
from diffalg import criteria, solver
from diffalg import (
    BoundExceededError,
    ConstLinDiffOp,
    DACertificate,
    DAStatus,
    GroupKind,
    IntegrabilityStatus,
    MatrixRF,
    NonStandardInputError,
    Poly,
    Rat,
    RatFun,
    SingularMatrixError,
    Status,
    ZeroInputError,
    apply_derivation,
    apply_op,
    apply_sigma,
    companion_matrix,
    find_telescoper,
    group_classify_inhomog_sum,
    hypergeom_da_test,
    inhomog_da_classify,
    integrability_test,
    mult_dependence_test,
    solve_system,
    verify_conjugating_matrix,
    verify_first_order_witness,
    verify_telescoper,
)
from diffalg.dispersion import _gap_window
from diffalg.structures import sigma_poly
from oracle import hypergeom_oracle, summation_oracle


def _ops_proportional(ops_a, ops_b) -> bool:
    """Operator tuples equal up to one common nonzero rational factor."""
    flat_a = [c for op in ops_a for c in op.coeffs]
    flat_b = [c for op in ops_b for c in op.coeffs]
    width_a = [len(op.coeffs) for op in ops_a]
    width_b = [len(op.coeffs) for op in ops_b]
    if width_a != width_b:
        # pad comparison via cross products below instead
        pass
    pairs_a = [(i, j, c) for i, op in enumerate(ops_a) for j, c in enumerate(op.coeffs)]
    pairs_b = {(i, j): c for i, op in enumerate(ops_b) for j, c in enumerate(op.coeffs)}
    scale = None
    for i, j, c in pairs_a:
        d = pairs_b.get((i, j), Rat(0))
        if c == 0 and d == 0:
            continue
        if c == 0 or d == 0:
            return False
        ratio = d / c
        if scale is None:
            scale = ratio
        elif ratio != scale:
            return False
    return scale is not None


class TestFindTelescoper:
    def test_harmonic_has_none(self):
        assert find_telescoper(SHIFT, [rf("1/x")], 3) is None

    def test_derivative_pair(self):
        a1 = rf("1/x")
        a2 = apply_derivation(SHIFT, a1)
        tele = find_telescoper(SHIFT, [a1, a2], 1)
        assert tele is not None
        assert verify_telescoper(SHIFT, [a1, a2], tele)
        assert _ops_proportional(tele.operators, (ConstLinDiffOp((0, 1)), ConstLinDiffOp((-1,))))
        assert tele.certificate_g == RatFun.zero()

    def test_summable_input(self):
        h = rf("1/x")
        a1 = apply_sigma(SHIFT, h) - h
        tele = find_telescoper(SHIFT, [a1], 0)
        assert tele is not None
        assert tele.operators == (ConstLinDiffOp((1,)),)
        assert tele.certificate_g == rf("1/x")

    def test_identity_verified_on_constructed_corpus(self):
        rng = random.Random(401)
        for _ in range(15):
            ds = SHIFT if rng.random() < 0.5 else Q2
            n = rng.randint(1, 3)
            bound = rng.randint(0, 2)
            funcs = [rand_ratfun(rng, ds) for _ in range(n - 1)]
            ops = [
                ConstLinDiffOp(tuple(rng.randint(-2, 2) for _ in range(bound + 1)))
                for _ in range(n - 1)
            ]
            g = rand_ratfun(rng, ds)
            target = apply_sigma(ds, g) - g
            for op, fn in zip(ops, funcs):
                target = target - apply_op(ds, op, fn)
            funcs.append(target)  # last operator is the identity
            tele = find_telescoper(ds, funcs, bound)
            assert tele is not None
            assert verify_telescoper(ds, funcs, tele)

    def test_permutation_and_scaling_invariance(self):
        rng = random.Random(409)
        a1 = rf("1/x")
        a2 = rf("1/(x*(x+1))")
        base = find_telescoper(SHIFT, [a1, a2], 1) is not None
        assert find_telescoper(SHIFT, [a2, a1], 1) is not None
        assert (find_telescoper(SHIFT, [a1 * 5, a2 * Rat(-1, 3)], 1) is not None) == base

    def test_bound_exceeded_propagates(self):
        with pytest.raises(BoundExceededError):
            find_telescoper(SHIFT, [rf("1/x + x^3")], 2, degree_cap=0)


class TestMultDependence:
    def test_gamma_ratio_has_none(self):
        assert mult_dependence_test(SHIFT, [rf("x")], 2) is None

    def test_constant_input(self):
        tele = mult_dependence_test(SHIFT, [rf("2")], 0)
        assert tele is not None
        assert tele.operators == (ConstLinDiffOp((1,)),)
        assert tele.certificate_g == RatFun.zero()

    def test_duplicated_inputs_cancel(self):
        tele = mult_dependence_test(SHIFT, [rf("x"), rf("x")], 1)
        assert tele is not None
        logs = [rf("1/x"), rf("1/x")]
        assert verify_telescoper(SHIFT, logs, tele)
        assert _ops_proportional(tele.operators, (ConstLinDiffOp((1,)), ConstLinDiffOp((-1,))))

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInputError):
            mult_dependence_test(SHIFT, [RatFun.zero()], 1)


class TestHypergeomDA:
    def test_gamma_is_transcendental(self):
        v = hypergeom_da_test(SHIFT, rf("x"))
        assert v.status is DAStatus.DIFFERENTIALLY_TRANSCENDENTAL

    def test_twisted_ratio_is_algebraic(self):
        v = hypergeom_da_test(SHIFT, rf("3*(x+1)/x"))
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.c == 3
        assert v.certificate.f == rf("x")

    def test_q_monomial(self):
        v = hypergeom_da_test(Q2, rf("5*x^3"))
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.c == 5
        assert v.certificate.n_or_r == 3
        assert v.certificate.f == RatFun.one()

    def test_q_standard_non_monomial(self):
        v = hypergeom_da_test(Q2, rf("x+1"))
        assert v.status is DAStatus.DIFFERENTIALLY_TRANSCENDENTAL

    def test_q_negative_power(self):
        v = hypergeom_da_test(Q2, rf("7/x^2"))
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.n_or_r == -2

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            hypergeom_da_test(SHIFT, RatFun.zero())

    def test_gauge_invariance(self):
        # b and b*sigma(g)/g must classify identically
        rng = random.Random(419)
        for _ in range(25):
            ds = SHIFT if rng.random() < 0.5 else Q2
            b = rand_ratfun(rng, ds)
            if b.is_zero():
                continue
            g = rand_ratfun(rng, ds)
            if g.is_zero():
                continue
            twisted = b * apply_sigma(ds, g) / g
            assert hypergeom_da_test(ds, b).status is hypergeom_da_test(ds, twisted).status

    def test_scale_invariance_shift(self):
        rng = random.Random(421)
        for _ in range(15):
            b = rand_ratfun(rng, SHIFT)
            if b.is_zero():
                continue
            for u in (Rat(2), Rat(-1, 3), Rat(7)):
                assert (
                    hypergeom_da_test(SHIFT, b).status
                    is hypergeom_da_test(SHIFT, b * RatFun.const(u)).status
                )


class TestInhomogDA:
    def test_nonconstant_a_transcendental(self):
        v = inhomog_da_classify(SHIFT, rf("x"), rf("1"))
        assert v.status is DAStatus.DIFFERENTIALLY_TRANSCENDENTAL

    def test_constant_a_solvable(self):
        v = inhomog_da_classify(SHIFT, rf("2"), rf("1"))
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.f == rf("-1")

    def test_pole_orbit_obstruction(self):
        v = inhomog_da_classify(SHIFT, rf("1"), rf("1/x"))
        assert v.status is DAStatus.DIFFERENTIALLY_TRANSCENDENTAL

    def test_q_resonant_case(self):
        v = inhomog_da_classify(Q2, rf("2"), rf("x"))
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.n_or_r == 1
        assert v.certificate.d == 1
        expected = (
            apply_sigma(Q2, v.certificate.f)
            - rf("2") * v.certificate.f
            + RatFun.const(v.certificate.d) * rf("x")
        )
        assert expected == rf("x")

    def test_q_nonmonomial_a(self):
        v = inhomog_da_classify(Q2, rf("x+1"), rf("1/(x-1)"))
        assert v.status is DAStatus.DIFFERENTIALLY_TRANSCENDENTAL

    def test_rational_solution_reported(self):
        # a = x is standard; b chosen so sigma(z) = x*z + b has solution z = 1
        a = rf("x")
        b = RatFun.one() - a
        v = inhomog_da_classify(SHIFT, a, b)
        assert v.status is DAStatus.RATIONAL_SOLUTION_EXISTS
        assert v.certificate.f == RatFun.one()
        assert "not in Q(x)" in v.hypothesis_notes

    def test_nonstandard_a_rejected(self):
        with pytest.raises(NonStandardInputError):
            inhomog_da_classify(SHIFT, rf("(x+1)/x"), rf("1"))

    def test_homogeneous_degenerate(self):
        v = inhomog_da_classify(SHIFT, rf("3"), RatFun.zero())
        assert v.status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
        assert v.certificate.f == RatFun.zero()

    def test_q_nonmonomial_with_rational_solution(self):
        a = rf("x+1")
        z = rf("x")
        b = apply_sigma(Q2, z) - a * z
        v = inhomog_da_classify(Q2, a, b)
        assert v.status is DAStatus.RATIONAL_SOLUTION_EXISTS


def _flattened(ds, a: MatrixRF) -> tuple[MatrixRF, list[RatFun]]:
    """The first-order system sigma(B) = A B A^-1 + d(A) A^-1 on the
    row-major entries of B, as ``integrability_test`` builds it."""
    n, a_inv = a.n, a.inverse()
    inhom = a.map(lambda f: apply_derivation(ds, f)) @ a_inv
    rows = [[a.entries[r][u] * a_inv.entries[v][s] for u in range(n) for v in range(n)] for r in range(n) for s in range(n)]
    return MatrixRF(rows), [inhom.entries[r][s] for r in range(n) for s in range(n)]


class TestIntegrability:
    def test_shift_sl2_matrix(self):
        a = MatrixRF([[0, -1], [1, rf("x")]])
        result = integrability_test(SHIFT, a)
        assert result.status is IntegrabilityStatus.NOT_CONSTANT_CONJUGATE
        assert result.scalar_trace is not None

    def test_b_entry_trace_matches_displayed_equation(self):
        # eliminating the other entries, the matrix entry at row-major
        # position 1 satisfies exactly the displayed third-order equation
        big_m, c_vec = _flattened(SHIFT, MatrixRF([[0, -1], [1, rf("x")]]))
        eq_b = solver._eliminate(SHIFT, big_m, c_vec, unit_vector(4, 1))[0]
        expected_coeffs = (
            pp("-(x+1)"),
            pp("x*(x^2+x-1)"),
            pp("-(x^3+2*x^2-1)"),
            pp("x"),
        )
        assert eq_b.coeffs == expected_coeffs
        assert eq_b.rhs_basis == (rf("2*x+1"),)
        assert eq_b.lambda_fixed == (Rat(1),)

    def test_identity_is_constant_conjugate(self):
        result = integrability_test(SHIFT, MatrixRF([[1, 0], [0, 1]]))
        assert result.status is IntegrabilityStatus.CONSTANT_CONJUGATE
        assert all(v.is_zero() for row in result.b_matrix.entries for v in row)

    def test_q_hypergeometric_companion(self):
        x = Poly.x()
        a0 = rf("16*(x-1)/(4*x-1)")
        a1 = rf("-4*(x-2)/(x-4)")
        a = companion_matrix(Q14, [a0, a1, RatFun.one()])
        result = integrability_test(Q14, a)
        assert result.status is IntegrabilityStatus.NOT_CONSTANT_CONJUGATE

    def test_positive_case_verifies(self):
        # unipotent A admits B = [[0, x + c], [0, 0]]: sigma(b) = b + 1
        a = MatrixRF([[1, rf("x")], [0, 1]])
        result = integrability_test(SHIFT, a)
        assert result.status is IntegrabilityStatus.CONSTANT_CONJUGATE
        b = result.b_matrix
        a_inv = a.inverse()
        da = a.map(lambda f: apply_derivation(SHIFT, f))
        lhs = b.map(lambda f: apply_sigma(SHIFT, f))
        rhs = (a @ b) @ a_inv
        inhom = da @ a_inv
        for r in range(2):
            for s in range(2):
                assert lhs.entries[r][s] == rhs.entries[r][s] + inhom.entries[r][s]

    def test_cyclic_kronecker_matrix_needs_no_invertibility_test(self, monkeypatch):
        # the trailing coefficient of the cyclic vector's equation decides
        # whether M is invertible, so solve_system never inverts M: not when
        # entry 0 of B is cyclic, not when a later candidate is, and not
        # when M is singular
        flat = [_flattened(SHIFT, MatrixRF(a)) for a in ([[0, -1], [1, rf("x")]], [[1, rf("x")], [0, 1]])]

        def refuse(matrix):
            raise AssertionError(f"separate invertibility test of {matrix}")

        monkeypatch.setattr(MatrixRF, "inverse", refuse)
        for (big_m, c_vec), status in zip(flat, (Status.NO_SOLUTION, Status.SOLVED)):
            entry_0_cyclic = solver._eliminate(SHIFT, big_m, c_vec, unit_vector(4, 0))[0].order == 4
            assert entry_0_cyclic is (status is Status.NO_SOLUTION)
            assert solve_system(SHIFT, big_m, c_vec).status is status
        with pytest.raises(SingularMatrixError):
            solve_system(SHIFT, MatrixRF([[1, 0], [0, 0]]), [RatFun.zero(), RatFun.zero()])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            integrability_test(SHIFT, MatrixRF([[1, 1], [1, 1]]))

    @staticmethod
    def _refuse_solve(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("constant A needs no flattened system")

        monkeypatch.setattr(criteria, "system_space", refuse)

    @pytest.mark.parametrize("ds", [SHIFT, Q2], ids=["shift", "q2"])
    @pytest.mark.parametrize(
        "entries",
        [
            [[2, Rat(1, 3)], [-1, 5]],
            [[2, 1, 0, 0, 0], [0, 3, 1, 0, 0], [1, 0, 5, 0, 0], [0, 0, 1, 7, 0], [0, 0, 0, 1, 11]],
        ],
        ids=["2x2", "5x5"],
    )
    def test_constant_a_is_conjugate_by_zero(self, monkeypatch, ds, entries):
        # d(A) = 0, so B = 0 solves sigma(B) = A B A^-1 without the n^2 x n^2 solve
        self._refuse_solve(monkeypatch)
        a = MatrixRF(entries)
        result = integrability_test(ds, a, degree_cap=0)
        assert result.status is IntegrabilityStatus.CONSTANT_CONJUGATE
        assert all(v.is_zero() for row in result.b_matrix.entries for v in row)
        assert result.scalar_trace is None
        assert verify_conjugating_matrix(ds, a, result.b_matrix)

    @pytest.mark.parametrize("ds", [SHIFT, Q2], ids=["shift", "q2"])
    def test_singular_constant_a_still_raises(self, monkeypatch, ds):
        self._refuse_solve(monkeypatch)
        with pytest.raises(SingularMatrixError):
            integrability_test(ds, MatrixRF([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))

    def test_nonconstant_a_reaches_the_flattened_system(self, monkeypatch):
        real, calls = criteria.system_space, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(criteria, "system_space", counted)
        result = integrability_test(SHIFT, MatrixRF([[0, -1], [1, rf("x")]]))
        assert result.status is IntegrabilityStatus.NOT_CONSTANT_CONJUGATE
        assert len(calls) == 1


class TestGroupClassification:
    def test_shift_harmonic_full(self):
        assert group_classify_inhomog_sum(SHIFT, rf("1/x")).kind is GroupKind.FULL_GA

    def test_q_constants_level(self):
        f = rf("2*x - x + 1")  # q*x - x + 1 with q = 2
        g = group_classify_inhomog_sum(Q2, f)
        assert g.kind is GroupKind.CONSTANTS_GA
        assert g.certificate_h == rf("x")
        assert g.certificate_c == 1

    def test_q_full(self):
        assert group_classify_inhomog_sum(Q2, rf("1/(x-1)")).kind is GroupKind.FULL_GA

    def test_shift_trivial(self):
        g = group_classify_inhomog_sum(SHIFT, RatFun.one())
        assert g.kind is GroupKind.TRIVIAL
        assert g.certificate_h == rf("x")

    def test_shift_never_constants_level(self):
        # the shift case only admits trivial or full: a nonzero constant is
        # itself summable (sigma(cx) - cx = c)
        g = group_classify_inhomog_sum(SHIFT, rf("5"))
        assert g.kind is GroupKind.TRIVIAL

    def test_certificates_verify(self):
        rng = random.Random(431)
        for _ in range(20):
            ds = SHIFT if rng.random() < 0.5 else Q2
            h = rand_ratfun(rng, ds)
            f = apply_sigma(ds, h) - h
            g = group_classify_inhomog_sum(ds, f)
            assert g.kind is GroupKind.TRIVIAL
            assert apply_sigma(ds, g.certificate_h) - g.certificate_h == f


@st.composite
def _planted_summand(draw, ds, kind):
    """sigma(g) - g for g with poles along a few sigma-orbits and a
    polynomial (Laurent, in the q case) part, plus a nonzero constant
    (constants level, or either shift kind) or a lone pole (full)."""
    base = st.sampled_from(ORBIT_BASES[ds.is_shift])
    g = RatFun.x() ** draw(st.integers(0 if ds.is_shift else -2, 2)) * draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(1, 2))):
        p, k, j = draw(base), draw(st.integers(-2, 2)), draw(st.integers(1, 2))
        num = Poly([draw(st.integers(-3, 3)) for _ in range(j * p.degree)])
        g = g + RatFun(num, sigma_poly(ds, p, k) ** j)
    f = apply_sigma(ds, g) - g
    if kind is GroupKind.CONSTANTS_GA or (ds.is_shift and draw(st.booleans())):
        f = f + draw(st.sampled_from([1, -2, Rat(3, 5)]))
    if kind is GroupKind.FULL_GA:
        p, k, j = draw(base), draw(st.integers(-2, 2)), draw(st.integers(1, 2))
        f = f + RatFun(draw(st.sampled_from([1, -3, Rat(1, 2)])), sigma_poly(ds, p, k) ** j)
    return f


class TestSummationOracle:
    """Three summation verdicts against Abramov's criterion on sympy's
    partial fractions (``oracle.summation_oracle``): the group, the rational
    solution of sigma(y) - y = f, and the order-0 telescoper."""

    @pytest.mark.parametrize(
        "ds, kind",
        [(SHIFT, GroupKind.TRIVIAL), (SHIFT, GroupKind.FULL_GA)]
        + [(ds, kind) for ds in (Q2, Q14) for kind in GroupKind],
        ids=["shift-trivial", "shift-full", "q2-trivial", "q2-constants", "q2-full",
             "q1/4-trivial", "q1/4-constants", "q1/4-full"],
    )
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_planted(self, ds, kind, data):
        f = data.draw(_planted_summand(ds, kind))
        expected, c = summation_oracle(ds, f)
        assert expected is kind, f
        group = group_classify_inhomog_sum(ds, f)
        assert (group.kind, group.certificate_c) == (expected, c), f
        space = solver.solve_scalar(solver.ScalarDiffEq(ds, (-1, 1), (f,), (1,)))
        assert (space.status is Status.SOLVED) == (kind is GroupKind.TRIVIAL), f
        assert (find_telescoper(ds, [f], 0) is not None) == (kind is GroupKind.TRIVIAL), f


def _planted_ratios(ds, seed: int, count: int):
    """``count`` pairs (b, twisted): b = c*sigma(g)/g, times x^k in the q
    case, for g a product of shifted bases to the powers +-1 and +-2; every
    odd b is also multiplied by p^e1 * sigma^j(p)^e2, e1 + e2 != 0, which
    leaves the orbit of p a nonzero multiplicity, so that b is no twisted
    ratio."""
    rng = random.Random(seed)
    for i in range(count):
        g = RatFun.one()
        for _ in range(rng.randint(1, 3)):
            g = g * rand_orbit_factor(rng, ds) ** rng.choice([1, 2, -1, -2])
        b = RatFun.const(rng.choice([1, -1, 2, Rat(1, 3), -5])) * apply_sigma(ds, g) / g
        if not ds.is_shift:
            b = b * RatFun.x() ** rng.randint(-2, 2)
        if i % 2:
            p, e1 = rand_orbit_factor(rng, ds), rng.choice([1, 2, -1])
            e2 = rng.choice([e for e in (-2, -1, 0, 1) if e + e1])
            b = b * p ** e1 * apply_sigma(ds, p, rng.randint(1, 3)) ** e2
        yield b, i % 2 == 0


class TestHypergeomOracle:
    """``hypergeom_da_test`` against ``oracle.hypergeom_oracle``, which reads
    the verdict off sympy's factors of b grouped into sigma-orbits."""

    @pytest.mark.parametrize("ds, seed", [(SHIFT, 421), (Q2, 422), (Q14, 423)], ids=["shift", "q2", "q1/4"])
    def test_planted(self, ds, seed):
        for b, twisted in _planted_ratios(ds, seed, 150):
            algebraic = hypergeom_da_test(ds, b).status is DAStatus.DIFFERENTIALLY_ALGEBRAIC
            assert algebraic is hypergeom_oracle(ds, b) is twisted, b

    @pytest.mark.parametrize(
        "ds, r",
        [(Q14, Rat(1)), (Q14, Rat(1, 2)), (QM3, Rat(1)), (QM3, Rat(-1)), (QM3, Rat(5, 3))],
        ids=["q1/4-1", "q1/4-1/2", "q-3-1", "q-3--1", "q-3-5/3"],
    )
    def test_gap_at_the_scan_window(self, ds, r):
        # a zero and a pole h steps apart on one orbit, where the gap scan's
        # window is h itself: a scan that stops one step short misses it
        for h in range(1, 13):
            low, high = Poly([-r, 1]), Poly([-r * ds.q ** -h, 1])
            assert _gap_window(ds, low * high, low * high) == h
            for b in (RatFun(high, low), RatFun(low, high)):
                assert hypergeom_oracle(ds, b), b
                assert hypergeom_da_test(ds, b).status is DAStatus.DIFFERENTIALLY_ALGEBRAIC, b


class TestCertificateVerifiers:
    """Each verifier accepts the certificate its procedure returns and
    rejects a tampered copy."""

    def test_twisted_ratio(self):
        # the one in-package check is multiplicative_standard_form's; here
        # the certificate is read against b directly
        def twisted_ratio(ds, cert):  # c * x^n * sigma(f)/f
            return RatFun.const(cert.c) * RatFun.x() ** cert.n_or_r * apply_sigma(ds, cert.f) / cert.f

        for ds, b in ((SHIFT, rf("3*(x+1)/x")), (Q2, rf("5*x^3*(2*x+1)/(x+1)")), (Q2, rf("3/x^2"))):
            cert = hypergeom_da_test(ds, b).certificate
            assert twisted_ratio(ds, cert) == b
            assert twisted_ratio(ds, cert._replace(c=cert.c + 1)) != b
            assert twisted_ratio(ds, cert._replace(n_or_r=cert.n_or_r + 1)) != b
            assert twisted_ratio(ds, cert._replace(f=cert.f * rf("x+1"))) != b

    def test_first_order_witness(self):
        cases = (
            (SHIFT, rf("2"), rf("1")),
            (Q2, rf("2"), rf("x")),  # resonant: d*x^r term
            (SHIFT, rf("x"), RatFun.one() - rf("x")),  # rational solution exists
        )
        for ds, a, b in cases:
            cert = inhomog_da_classify(ds, a, b).certificate
            assert verify_first_order_witness(ds, a, b, cert)
            assert not verify_first_order_witness(ds, a, b, cert._replace(f=cert.f + 1))
        cert = inhomog_da_classify(Q2, rf("2"), rf("x")).certificate
        assert cert.d == 1
        assert not verify_first_order_witness(Q2, rf("2"), rf("x"), cert._replace(d=cert.d + 1))

    def test_conjugating_matrix(self):
        for ds, a in ((SHIFT, MatrixRF([[1, rf("x")], [0, 1]])), (Q2, MatrixRF([[2, rf("x")], [0, 1]]))):
            result = integrability_test(ds, a)
            assert result.status is IntegrabilityStatus.CONSTANT_CONJUGATE
            b = result.b_matrix
            assert verify_conjugating_matrix(ds, a, b)
            # B + c*I is itself a certificate (I commutes with A), so tamper with x
            entries = [list(row) for row in b.entries]
            entries[0][0] = entries[0][0] + rf("x")
            assert not verify_conjugating_matrix(ds, a, MatrixRF(entries))

    def test_summation(self):
        # the group witness (h, c) is the first-order witness at a = 1
        one = RatFun.one()
        for ds, f in ((SHIFT, one), (Q2, rf("2*x - x + 1")), (SHIFT, rf("1/x - 1/(x+1)"))):
            group = group_classify_inhomog_sum(ds, f)
            assert group.kind is not GroupKind.FULL_GA
            cert = DACertificate(f=group.certificate_h, d=group.certificate_c)
            assert verify_first_order_witness(ds, one, f, cert)
            # h + 1 is itself a witness (constants telescope to 0), so add 1/x
            assert not verify_first_order_witness(ds, one, f, cert._replace(f=cert.f + rf("1/x")))
            if cert.d is not None:
                assert not verify_first_order_witness(ds, one, f, cert._replace(d=cert.d + 1))
