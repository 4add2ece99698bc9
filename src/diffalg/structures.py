"""The two commuting automorphism/derivation structures on Q(x).

``Shift`` pairs x -> x+1 with d/dx; ``QDilation`` pairs x -> q*x with x*d/dx
for a rational q with |q| != 1 (which in particular rules out roots of
unity).  Both satisfy sigma(d(f)) = d(sigma(f)) for every rational function
f, and both expose sigma, its inverse, the derivation, and application of
constant-coefficient operators in the derivation.

x -> q*x fixes the point 0, so every q-case orbit argument runs over the
part of a polynomial prime to x and treats the power of x on its own;
``split_x_power`` is the one place that splits it off (and splits off
nothing in the shift case, which has no fixed point).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import BoundExceededError, PreconditionError
from .numcore import Poly, Rat, RatFun, divide_out_x, over_monic

MAX_SIGMA_POWER = 2 ** 31


class Variant(Enum):
    SHIFT = "shift"
    Q_DILATION = "q"


class DiffStructure(namedtuple("DiffStructure", "variant q")):
    __slots__ = ()

    def __new__(cls, variant: Variant, q: Rat | None = None):
        if variant is Variant.Q_DILATION:
            if q is None:
                raise PreconditionError("q-dilation structure needs a q value")
            q = Rat(q)
            if q == 0 or abs(q.numerator) == abs(q.denominator):
                raise PreconditionError(
                    "q must be a nonzero rational with |q| != 1 "
                    "(|numerator| != |denominator|)"
                )
        elif q is not None:
            raise PreconditionError("shift structure takes no q value")
        return tuple.__new__(cls, (variant, q))

    @classmethod
    def _make(cls, fields):  # so that _replace validates like the constructor
        return cls(*fields)

    @property
    def is_shift(self) -> bool:
        return self.variant is Variant.SHIFT


def shift_structure() -> DiffStructure:
    return DiffStructure(Variant.SHIFT)


def q_structure(q) -> DiffStructure:
    return DiffStructure(Variant.Q_DILATION, Rat(q))


def split_x_power(ds: DiffStructure, p: Poly) -> tuple[Poly, int]:
    """(p / x^v, v) with v the order of p at 0 in the q case; (p, 0) in the
    shift case."""
    if ds.is_shift:
        return p, 0
    return divide_out_x(p)


def sigma_poly(ds: DiffStructure, p: Poly, power: int = 1) -> Poly:
    """sigma^power applied to a polynomial (composition with x+power or q^power*x)."""
    if abs(power) > MAX_SIGMA_POWER:
        raise BoundExceededError("sigma power above the cap")
    if power == 0:
        return p
    if ds.is_shift:
        return p.shift_arg(power)
    return p.scale_arg(ds.q ** power)


def apply_sigma(ds: DiffStructure, f: RatFun, power: int = 1) -> RatFun:
    """sigma^power(f); power may be negative since sigma is invertible."""
    if power == 0:
        return f
    # composition with an invertible affine map preserves coprimality;
    # only the monic normalisation of the denominator is redone
    num, den = over_monic(sigma_poly(ds, f.num, power), sigma_poly(ds, f.den, power))
    return RatFun(num, den, _reduced=True)


def apply_derivation(ds: DiffStructure, f: RatFun) -> RatFun:
    """d/dx (shift) or x*d/dx (q-dilation) of f."""
    d = f.derivative()
    if ds.is_shift:
        return d
    return RatFun.x() * d


class ConstLinDiffOp(namedtuple("ConstLinDiffOp", "coeffs")):
    """Constant-coefficient operator c_0 + c_1*D + ... + c_s*D^s in the
    structure's derivation D; the zero operator has an empty tuple."""

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = [Rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple.__new__(cls, (tuple(cs),))

    @classmethod
    def _make(cls, fields):  # so that _replace coerces like the constructor
        return cls(*fields)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs


def apply_op(ds: DiffStructure, op: ConstLinDiffOp, f: RatFun) -> RatFun:
    """Apply sum(c_j * D^j) to f."""
    if op.is_zero():
        return RatFun.zero()
    acc = RatFun.zero()
    current = f
    for j, c in enumerate(op.coeffs):
        if j > 0:
            current = apply_derivation(ds, current)
        if c != 0:
            acc = acc + RatFun.const(c) * current
    return acc
