"""Shift and q-dilation structures: sigma, the derivation, operators."""

import random

import pytest

from conftest import Q2, SHIFT, pp, rand_ratfun, rf
from diffalg import (
    BoundExceededError,
    ConstLinDiffOp,
    PreconditionError,
    Rat,
    RatFun,
    apply_derivation,
    apply_op,
    apply_sigma,
    q_structure,
)


class TestStructureValidation:
    def test_q_must_not_have_unit_modulus(self):
        with pytest.raises(PreconditionError):
            q_structure(1)
        with pytest.raises(PreconditionError):
            q_structure(-1)
        with pytest.raises(PreconditionError):
            q_structure(Rat(-3, 3))
        with pytest.raises(PreconditionError):
            q_structure(0)

    def test_fractional_q_accepted(self):
        ds = q_structure(Rat(1, 4))
        assert ds.q == Rat(1, 4)

    def test_negative_q_accepted(self):
        assert q_structure(-2).q == Rat(-2)


class TestSigma:
    def test_shift_forward(self):
        assert apply_sigma(SHIFT, rf("x")) == rf("x+1")

    def test_shift_inverse(self):
        assert apply_sigma(SHIFT, rf("1/x"), -1) == rf("1/(x-1)")

    def test_q_dilation(self):
        assert apply_sigma(Q2, rf("x^2")) == rf("4*x^2")

    def test_power_composition(self):
        rng = random.Random(3)
        for ds in (SHIFT, Q2):
            for _ in range(20):
                f = rand_ratfun(rng, ds)
                assert apply_sigma(ds, apply_sigma(ds, f, 3), -3) == f
                assert apply_sigma(ds, apply_sigma(ds, f, -2), 2) == f

    def test_power_overflow_guard(self):
        with pytest.raises(BoundExceededError):
            apply_sigma(SHIFT, rf("x"), 2 ** 40)


class TestDerivation:
    def test_shift_is_ddx(self):
        assert apply_derivation(SHIFT, rf("x^2")) == rf("2*x")
        assert apply_derivation(SHIFT, rf("1/x")) == rf("-1/x^2")

    def test_q_is_x_ddx(self):
        assert apply_derivation(Q2, rf("x^2")) == rf("2*x^2")

    def test_commutation(self):
        # sigma(d(f)) = d(sigma(f)) exactly, both structures
        rng = random.Random(5)
        for ds in (SHIFT, Q2):
            for _ in range(200):
                f = rand_ratfun(rng, ds)
                assert apply_sigma(ds, apply_derivation(ds, f)) == apply_derivation(
                    ds, apply_sigma(ds, f)
                )


class TestApplyOp:
    def test_first_derivative(self):
        op = ConstLinDiffOp((0, 1))
        assert apply_op(SHIFT, op, rf("x^3")) == rf("3*x^2")

    def test_q_annihilates_x(self):
        op = ConstLinDiffOp((-1, 1))  # D - 1 with D = x d/dx
        assert apply_op(Q2, op, rf("x")) == RatFun.zero()

    def test_identity_op(self):
        op = ConstLinDiffOp((1,))
        f = rf("(x^2+1)/(x-3)")
        assert apply_op(SHIFT, op, f) == f

    def test_linearity(self):
        rng = random.Random(9)
        for ds in (SHIFT, Q2):
            for _ in range(40):
                f = rand_ratfun(rng, ds)
                g = rand_ratfun(rng, ds)
                op = ConstLinDiffOp(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))))
                assert apply_op(ds, op, f + g) == apply_op(ds, op, f) + apply_op(ds, op, g)

    def test_zero_operator(self):
        op = ConstLinDiffOp(())
        assert op.is_zero()
        assert apply_op(SHIFT, op, rf("1/x")) == RatFun.zero()

    def test_trailing_zero_coeffs_trimmed(self):
        assert ConstLinDiffOp((1, 2, 0, 0)).order == 1
