"""Exact arithmetic core: rationals, dense univariate polynomials, reduced
rational functions, and the gcd / resultant / root primitives everything else
consumes.

All coefficients live in Q.  The ``Rat`` type is the stdlib
``fractions.Fraction`` (reduced, gcd(|num|, den) = 1, den > 0), which mixes
freely with ints; the kernels run on Python ints, and a ``Rat`` is built
only at the API edge, where a caller reads one (``coeffs``, ``lc``, ``p[i]``,
``eval``, ``RatFun.const_value``).

A ``Poly`` is stored as a content times a primitive integer polynomial
(coprime integer coefficients, positive leading coefficient), the canonical
form of Geddes-Czapor-Labahn, ch. 2, with the content a reduced pair of
integers.  Ring operations, division, argument substitution, evaluation and
the gcd run on the integer parts; contents combine through one integer
helper, ``_qmul``, which multiplies reduced pairs by the cross gcds
(Knuth, TAOCP 4.5.1), and ``RatFun`` and ``structures.apply_sigma``
normalise a denominator to monic the same way (``over_monic``).  Division,
exact division and the gcd share one integer pseudo-division loop,
``_pseudo_divmod``, and one mod-p Euclid, ``_gf_gcd``: the gcd lifts its
image mod ``GF_PRIME`` and checks it by trial division, and the primitive
PRS runs only when that lift is rejected.  No other module reads the integer
form: they go through ``over_monic``, ``divide_out_x``,
``integer_multiples``, ``coefficient_bits``, ``coefficient_bits_above`` and
``gf_coeffs``.

The root bounds read the integer form too: ``root_magnitude_bound`` and
``reciprocal_root_bound`` (the q windows and integer roots), and
``root_disc``, an integer centre and radius for the shift gap windows,
sharpened by Graeffe root-squaring and read off bit lengths.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, ZeroInputError

Rat = Fraction

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


class Poly:
    """Dense univariate polynomial over Q, stored as content times primitive
    part.

    ``_ints`` holds integer coefficients, lowest degree first, with gcd 1, a
    positive leading (last) entry and no trailing zeros.  The content is the
    integer pair ``_cn / _cd``, reduced (gcd(_cn, _cd) = 1) with ``_cd > 0``
    and ``_cn != 0``, and the polynomial is ``(_cn / _cd) * sum(_ints[i] * x^i)``.
    The zero polynomial is ``((), 1, 1)`` with degree -1 (the sentinel).  The
    form is canonical, so equality and hashing compare the triple.  Contents
    combine through the integer helper ``_qmul`` only; ``coeffs``, ``lc``,
    ``p[i]`` and ``eval`` build the rationals a caller reads.  Instances are
    immutable and safe to share between threads.
    """

    __slots__ = ("_ints", "_cn", "_cd")

    def __init__(self, coeffs=()):
        cs = [c if type(c) in _EXACT else Rat(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        ints, cn, cd = _primitive([c.numerator * (den // c.denominator) for c in cs], 1, den)
        _set_ints(self, ints)
        _set_cn(self, cn)
        _set_cd(self, cd)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _PZERO

    @staticmethod
    def one() -> "Poly":
        return _PONE

    @staticmethod
    def x() -> "Poly":
        return _PX

    @staticmethod
    def const(c) -> "Poly":
        if not c:
            return _PZERO
        return _poly((1,), *_pair(c))

    @staticmethod
    def monomial(c, n: int) -> "Poly":
        if n < 0:
            raise ValueError("monomial exponent must be >= 0")
        if not c:
            return _PZERO
        return _poly((0,) * n + (1,), *_pair(c))

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The rational coefficients, lowest degree first."""
        cn, cd = self._cn, self._cd
        return tuple([Rat(cn * v, cd) for v in self._ints])

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        return len(self._ints) <= 1

    def lc(self) -> Rat:
        if not self._ints:
            return RAT_ZERO
        return Rat(self._cn * self._ints[-1], self._cd)

    def __getitem__(self, i: int) -> Rat:
        if 0 <= i < len(self._ints):
            return Rat(self._cn * self._ints[i], self._cd)
        return RAT_ZERO

    def valuation(self) -> int:
        """Order of vanishing at 0; the zero polynomial returns -1."""
        for i, c in enumerate(self._ints):
            if c:
                return i
        return -1

    # -- ring operations -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._ints == other._ints and self._cn == other._cn and self._cd == other._cd
        return NotImplemented

    def __hash__(self):
        return hash((self._ints, self._cn, self._cd))

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __neg__(self) -> "Poly":
        if not self._ints:
            return self
        return _poly(self._ints, -self._cn, self._cd)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self._ints, other._ints
        if not b:
            return self
        if not a:
            return other
        # ca*A + cb*B = (h / lcm(da, db)) * (sa*A + sb*B) with integers sa, sb;
        # a prime of lcm(da, db) divides one of sa, sb at most, so h is prime
        # to the lcm
        na, da, nb, db = self._cn, self._cd, other._cn, other._cd
        g = math.gcd(da, db)
        sa, sb = na * (db // g), nb * (da // g)
        h = math.gcd(sa, sb)
        if h != 1:
            sa, sb = sa // h, sb // h
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [sa * v for v in a] if sa != 1 else list(a)
        for i, v in enumerate(b):
            out[i] += sb * v
        return _normal(out, h, da // g * db)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return Poly.const(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not other or not self._ints:
                return _PZERO
            return _poly(self._ints, *_qmul(self._cn, self._cd, *_pair(other)))
        a, b = self._ints, other._ints
        if not a or not b:
            return _PZERO
        cn, cd = _qmul(self._cn, self._cd, other._cn, other._cd)
        # Gauss's lemma: the product of primitive parts is primitive
        if len(a) == 1 or len(b) == 1:
            return _poly(b if len(a) == 1 else a, cn, cd)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(tuple(out), cn, cd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _PONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(quotient, remainder) over Q, by pseudo-division of the primitive
        parts (``_pseudo_divmod``)."""
        b = other._ints
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self._ints
        if len(a) < len(b):
            return _PZERO, self
        quo, scales, s, r = _pseudo_divmod(a, b)
        cn, cd = self._cn, self._cd
        qn, qd = _qmul(cn, cd, other._cd, other._cn)
        quotient = _normal([v * (s // t) for v, t in zip(quo, scales)], qn, qd, s)
        return quotient, _normal(r, cn, cd, s)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other when other divides self, else ValueError.  Runs on
        the primitive parts: by Gauss's lemma their quotient is a primitive
        integer polynomial with a positive leading coefficient, so the
        pseudo-division never scales."""
        b = other._ints
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._ints:
            return _PZERO
        quo = _exact_quotient(self._ints, b)
        if quo is None:
            raise ValueError("exact_div with nonzero remainder")
        return _poly(quo, *_qmul(self._cn, self._cd, other._cd, other._cn))

    # -- calculus / substitution ----------------------------------------

    def derivative(self) -> "Poly":
        return _normal([i * v for i, v in enumerate(self._ints)][1:], self._cn, self._cd)

    def eval(self, point) -> Rat:
        ints = self._ints
        if not ints:
            return RAT_ZERO
        u, v = _pair(point)
        acc = 0
        if v == 1:
            for a in reversed(ints):
                acc = acc * u + a
            return Rat(self._cn * acc, self._cd)
        # acc = v^n * P(u/v), homogeneous Horner
        vp = 1
        for a in reversed(ints):
            acc = acc * u + a * vp
            vp *= v
        return Rat(self._cn * acc, self._cd * (vp // v))

    def shift_arg(self, c) -> "Poly":
        """p(x + c), by a Taylor shift of the primitive part P: with
        c = u/v and n = deg P, T(y) = v^n * P(y/v) is shifted by u, and
        v^n * P(x + c) = T(v*x + u)."""
        if self.degree < 1 or not c:
            return self
        u, v = _pair(c)
        ints = self._ints
        n = len(ints) - 1
        t = list(ints) if v == 1 else [a * v ** (n - j) for j, a in enumerate(ints)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                t[j] += u * t[j + 1]
        if v == 1:
            # an integer shift is unimodular on Z[x]: still primitive
            return _poly(tuple(t), self._cn, self._cd)
        return _normal([a * v ** j for j, a in enumerate(t)], self._cn, self._cd, v ** n)

    def scale_arg(self, c) -> "Poly":
        """p(c * x): with c = u/v, v^n * P(c*x) has integer coefficients
        a_j * u^j * v^(n-j)."""
        ints = self._ints
        if len(ints) <= 1:
            return self
        if not c:
            return _normal([ints[0]], self._cn, self._cd)
        u, v = _pair(c)
        n = len(ints) - 1
        out = list(ints)
        pu = 1
        for j in range(1, n + 1):
            pu *= u
            out[j] *= pu
        if v != 1:
            pv = 1
            for j in range(n - 1, -1, -1):
                pv *= v
                out[j] *= pv
        return _normal(out, self._cn, self._cd, v ** n)

    def monic(self) -> "Poly":
        ints = self._ints
        if not ints or (self._cn == 1 and self._cd == ints[-1]):
            return self
        return _poly(ints, 1, ints[-1])

    def __repr__(self):
        return f"Poly({format_poly(self)})"


_EXACT = (int, Rat)
_set_ints = Poly._ints.__set__
_set_cn = Poly._cn.__set__
_set_cd = Poly._cd.__set__


def _poly(ints: tuple, cn: int, cd: int) -> Poly:
    """The polynomial (cn/cd) * sum(ints[i] * x^i) from a canonical triple."""
    p = object.__new__(Poly)
    _set_ints(p, ints)
    _set_cn(p, cn)
    _set_cd(p, cd)
    return p


def _pair(c) -> tuple[int, int]:
    """The reduced (numerator, denominator) of an int or rational scalar."""
    if type(c) not in _EXACT:
        c = Rat(c)
    return c.numerator, c.denominator


def _qmul(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """The reduced pair of (an/ad) * (bn/bd), the one content operation:
    both pairs reduced and nonzero, ad > 0, bd of either sign (so
    ``_qmul(an, ad, bd, bn)`` divides).  Only the cross gcds gcd(an, bd) and
    gcd(bn, ad) can cancel (Knuth, TAOCP 4.5.1)."""
    g = math.gcd(an, bd)
    if g != 1:
        an, bd = an // g, bd // g
    g = math.gcd(bn, ad)
    if g != 1:
        bn, ad = bn // g, ad // g
    if bd < 0:
        return -an * bn, -ad * bd
    return an * bn, ad * bd


def _primitive(ints: list, cn: int, cd: int, s: int = 1) -> tuple[tuple, int, int]:
    """The canonical triple of (cn/cd) * (1/s) * sum(ints[i] * x^i) for any
    integer list (trailing zeros allowed), a reduced nonzero content cn/cd
    and an integer s > 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), 1, 1
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        ints = [v // g for v in ints]
    if s != 1:
        t = math.gcd(g, s)
        g, s = g // t, s // t
    if g == 1 and s == 1:
        return tuple(ints), cn, cd
    return (tuple(ints), *_qmul(cn, cd, g, s))


def _normal(ints: list, cn: int, cd: int, s: int = 1) -> Poly:
    """The polynomial (cn/cd) * (1/s) * sum(ints[i] * x^i), any integer list
    (see ``_primitive``)."""
    return _poly(*_primitive(ints, cn, cd, s))


def over_monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num / c, den / c) for c = lc(den), den nonzero: the same quotient
    over a monic denominator."""
    ints = den._ints
    if den._cn == 1 and den._cd == ints[-1]:
        return num, den
    if num._ints:
        ln, ld = _qmul(den._cn, den._cd, ints[-1], 1)
        num = _poly(num._ints, *_qmul(num._cn, num._cd, ld, ln))
    return num, _poly(ints, 1, ints[-1])


def divide_out_x(p: Poly) -> tuple[Poly, int]:
    """(p / x^v, v) for v the order of p at 0, or (p, 0) when p is zero or
    prime to x: dropping zero low coefficients keeps the triple canonical."""
    v = p.valuation()
    if v <= 0:
        return p, 0
    return _poly(p._ints[v:], p._cn, p._cd), v


def _pseudo_divmod(a, b) -> tuple[list[int], list[int], int, list[int]]:
    """The one integer division loop: pseudo-division of integer coefficient
    sequences (lowest degree first, no trailing zeros, b nonempty).

    Returns (quo, scales, s, r) with s*A = Q*B + R, where
    Q = sum(quo[k] * (s // scales[k]) * x^k) and r is R without trailing
    zeros.  Each step scales the remainder only by lc(b) / gcd(lc(b), lc(r)),
    so s is the product of those factors; quo[k] is recorded at the scale
    scales[k] reached by its step.
    """
    db, lb = len(b) - 1, b[-1]
    n = max(len(a) - db, 0)
    r = list(a)
    quo = [0] * n
    scales = [1] * n
    s = 1
    for k in range(n - 1, -1, -1):
        lr = r.pop()
        if not lr:
            continue
        g = math.gcd(lb, lr)
        sa, sb = lb // g, lr // g
        if sa != 1:
            s *= sa
            r = [sa * v for v in r]
        quo[k], scales[k] = sb, s
        for j in range(db):
            r[k + j] -= sb * b[j]
    while r and not r[-1]:
        r.pop()
    return quo, scales, s, r


def _exact_quotient(a, d) -> tuple | None:
    """a / d when the integer polynomial d divides a in Z[x], else None
    (coefficient sequences as in ``_pseudo_divmod``): a division that never
    scales records its quotient digits exactly."""
    if d == a:
        return (1,)
    quo, _, s, r = _pseudo_divmod(a, d)
    return tuple(quo) if s == 1 and not r else None


_PZERO = _poly((), 1, 1)
_PONE = _poly((1,), 1, 1)
_PX = _poly((0, 1), 1, 1)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            xo = "x" if i == 1 else f"x^{i}"
            if c == 1:
                term = xo
            elif c == -1:
                term = f"-{xo}"
            else:
                term = f"{c}*{xo}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# ---------------------------------------------------------------------------
# gcd / resultant / factor-free primitives
# ---------------------------------------------------------------------------

GF_PRIME = (1 << 31) - 1


def gf_coeffs(p: Poly) -> list[int] | None:
    """Coefficients of the primitive integer part of p mod GF_PRIME, lowest
    first; None when the reduction degenerates (leading coefficient
    vanishes)."""
    out = [v % GF_PRIME for v in p._ints]
    if not out or out[-1] == 0:
        return None
    return out


def _gf_gcd(a: list[int], b: list[int]) -> list[int]:
    """The monic gcd over GF(GF_PRIME) of two coefficient lists (lowest
    first, trailing zeros allowed); [] when both are zero."""
    prime = GF_PRIME
    a, b = list(a), list(b)
    da, db = len(a) - 1, len(b) - 1
    while da >= 0 and not a[da]:
        da -= 1
    while db >= 0 and not b[db]:
        db -= 1
    while db >= 0:
        inv = pow(b[db], -1, prime)
        while da >= db:
            f = a[da] * inv % prime
            if f:
                k = da - db
                for i in range(db):
                    a[k + i] = (a[k + i] - f * b[i]) % prime
            da -= 1
            while da >= 0 and not a[da]:
                da -= 1
        a, b, da, db = b, a, db, da
    inv = pow(a[da], -1, prime) if da >= 0 else 1
    return [v * inv % prime for v in a[: da + 1]]


def gf_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd over GF(GF_PRIME); inputs are coefficient lists."""
    return len(_gf_gcd(a, b)) - 1


def primitive_ints(values) -> list[int]:
    """The integer vector with coprime entries proportional to a vector of
    rationals (or ints); all zeros stay zeros."""
    den = math.lcm(*[v.denominator for v in values])
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def integer_multiples(polys) -> list[list[int]]:
    """Integer coefficient lists (lowest degree first) of c*p for each p in
    polys, with the one rational c > 0 that makes them integral and coprime
    as a whole; a zero polynomial gives []."""
    den = math.lcm(*[p._cd for p in polys])
    ks = [p._cn * (den // p._cd) if p._ints else 0 for p in polys]
    g = math.gcd(*ks) or 1
    return [[k // g * v for v in p._ints] for k, p in zip(ks, polys)]


def coefficient_bits(*polys: Poly):
    """``bits(numerator) + bits(denominator)`` of each rational coefficient
    of the polys, read from the content cn/cd and the integer part without
    building rationals: gcd(cn, cd) = 1, so ``cn*i/cd`` reduces by
    gcd(i, cd)."""
    for p in polys:
        cn, cd = p._cn, p._cd
        for i in p._ints:
            g = math.gcd(i, cd)
            yield (cn * i // g).bit_length() + (cd // g).bit_length()


def coefficient_bits_above(cap: int, *polys: Poly) -> int | None:
    """The first size of ``coefficient_bits`` above ``cap``, or None when
    every coefficient fits.  bits(cn) + bits(cd) + bits(max |_ints|) bounds
    every size of a polynomial, so its coefficients are counted only when
    that bound exceeds ``cap``."""
    for p in polys:
        ints = p._ints
        if ints and p._cn.bit_length() + p._cd.bit_length() + max(map(abs, ints)).bit_length() > cap:
            for bits in coefficient_bits(p):
                if bits > cap:
                    return bits
    return None


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0 (see ``_gcd_cofactors``)."""
    if p.is_zero() or q.is_zero():
        return (q if p.is_zero() else p).monic()
    return _gcd_cofactors(p, q)[0]


def _gcd_cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p/g, q/g) for g the monic gcd; a constant or zero operand gives
    (1, p, q) and runs no gcd.

    The gcd mod GF_PRIME is lifted first (Brown 1971): with
    gamma = gcd(lc p, lc q), the symmetric residues of gamma times the monic
    image, made primitive, are the gcd if they divide both operands.  When
    the prime divides neither leading coefficient no image has lower degree
    than the gcd, so a constant image certifies 1 and a lift that divides
    both is the gcd; the two trial divisions give the cofactors.  A rejected
    lift falls back to the primitive PRS (Collins 1967) on the integer
    coefficients, and only then are the cofactors divided out.
    """
    if p.degree < 1 or q.degree < 1:
        return _PONE, p, q
    a, b = p._ints, q._ints
    ga, gb = gf_coeffs(p), gf_coeffs(q)
    if ga is not None and gb is not None:
        image = _gf_gcd(ga, gb)
        if len(image) == 1:
            return _PONE, p, q
        gamma = math.gcd(a[-1], b[-1])
        half = GF_PRIME // 2
        lift = [v - GF_PRIME if v > half else v for v in (gamma * v % GF_PRIME for v in image)]
        lift = _primitive(lift, 1, 1)[0]
        lc = lift[-1]
        qa = None if gamma % lc else _exact_quotient(a, lift)
        qb = None if qa is None else _exact_quotient(b, lift)
        if qb is not None:
            # p = c*a = (c*lc) * qa * (lift/lc), with lift/lc the monic gcd
            return (
                _poly(lift, 1, lc),
                _poly(qa, *_qmul(p._cn, p._cd, lc, 1)),
                _poly(qb, *_qmul(q._cn, q._cd, lc, 1)),
            )
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_divmod(a, b)[3]
        if not r:
            break
        if len(r) == 1:
            return _PONE, p, q
        g = math.gcd(*r)
        a, b = b, ([v // g for v in r] if g > 1 else r)
    if b[-1] < 0:
        b = [-v for v in b]
    g = _poly(tuple(b), 1, b[-1])
    return g, p.exact_div(g), q.exact_div(g)


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return Poly.zero()
    return (p * _gcd_cofactors(p, q)[2]).monic()


def poly_xgcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = p, q
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        quo, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    if r0.is_zero():
        return r0, s0, t0
    s0, g = over_monic(s0, r0)
    return g, s0, over_monic(t0, r0)[0]


def poly_resultant(p: Poly, q: Poly) -> Rat:
    """Resultant with the convention Res(p, q) = lc(p)^deg(q) * prod q(roots of p).

    Euclidean remainder sequence: with r = a mod b,
    Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r) * Res(b, r), and
    Res(a, c) = c^(deg a) for a constant c.  Each remainder is kept as a
    primitive integer polynomial times its content.  Zero iff p and q share a
    nonconstant factor.
    """
    if p.is_zero() or q.is_zero():
        raise ZeroInputError("resultant of a zero polynomial")
    a, b, res = p, q, RAT_ONE
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return RAT_ZERO
        if a.degree % 2 and b.degree % 2:
            res = -res
        res = res * b.lc() ** (a.degree - r.degree)
        a, b = b, r
    return res * b.lc() ** a.degree


# -- Sturm sequences: integer roots without factoring ------------------------


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_changes(chain: list[Poly], point: Rat) -> int:
    signs = []
    for q in chain:
        v = q.eval(point)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _iroot_ceil(n: int, k: int) -> int:
    """Smallest integer r >= 0 with r^k >= n (n >= 0)."""
    if n <= 1:
        return n
    if k == 1:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k)
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def root_magnitude_bound(p: Poly) -> Rat:
    """Upper bound on the magnitude of every complex root: the smaller of the
    Cauchy bound and a Fujiwara-style bound 2*max_k (|a_(n-k)|/|a_n|)^(1/k),
    computed exactly with integer k-th roots."""
    if p.is_zero() or p.degree == 0:
        return RAT_ONE
    return _magnitude_bound(p._ints)


def reciprocal_root_bound(p: Poly) -> Rat:
    """``root_magnitude_bound`` of the reversed polynomial x^n * p(1/x), an
    upper bound on 1/|alpha| over the roots alpha of p (p(0) != 0), read off
    the reversed integer coefficients."""
    if p.degree < 1:
        return RAT_ONE
    return _magnitude_bound(p._ints[::-1])


def _magnitude_bound(ints) -> Rat:
    """``root_magnitude_bound`` of sum(ints[i] * x^i), degree >= 1; the
    leading entry may be negative."""
    n = len(ints) - 1
    lead = abs(ints[-1])
    cauchy = lead + max(abs(c) for c in ints[:-1])  # 1 + max|a_k|/a_n, times a_n
    fuji = 0
    for k in range(1, n + 1):
        a = abs(ints[n - k])
        if a == 0:
            continue
        ratio_ceil = -(-a // lead)
        fuji = max(fuji, _iroot_ceil(ratio_ceil, k))
    fuji = 2 * fuji + 1
    return Rat(cauchy, lead) if cauchy <= fuji * lead else Rat(fuji)


# root-squaring steps of ``root_disc``: after K of them Fujiwara's
# overestimate enters as its 2^K-th root; each step squares two half-length
# integer polynomials, and the coefficient lengths double
_GRAEFFE_STEPS = 3


def root_disc(p: Poly) -> tuple[int, int]:
    """Integers (c, r) with |alpha - c| <= r for every complex root alpha of
    p (degree >= 1): c is the integer nearest the root centroid
    -a_(n-1)/(n*a_n), and r bounds the roots of P(x) = p(x + c).

    r comes from Fujiwara's bound |z| <= 2*max_k |b_(n-k)/b_n|^(1/k) on the
    roots z of G, the K-th Graeffe image of P: G has the roots
    (alpha - c)^(2^K), so |alpha - c| <= (2*max_k |b_(n-k)/b_n|^(1/k))^(1/2^K).
    Fujiwara overestimates clustered roots by up to a factor 2n (van der
    Sluis, Numer. Math. 15, 1970); on G that factor shrinks to its 2^K-th
    root.  The ratios are read off bit lengths,
    |b_(n-k)/b_n| < 2^(bits(b_(n-k)) - bits(b_n) + 1) = 2^e_k, so
    |alpha - c| < max_k 2^((e_k + k)/(k*2^K)), and r is the least integer at
    or above that power of 2; rounding up only raises the bound.  No
    rational is built.  r is 0 when P = x^n."""
    ints = p._ints
    n = len(ints) - 1
    lead = ints[-1]
    c = (n * lead - 2 * ints[-2]) // (2 * n * lead)  # floor(centroid + 1/2)
    g = list(p.shift_arg(c)._ints)
    for _ in range(_GRAEFFE_STEPS):
        # g(x) = e(x^2) + x*o(x^2), and e(y)^2 - y*o(y)^2 = +-g(x)g(-x) at y = x^2
        odd = _int_square(g[1::2])
        g = _int_square(g[0::2]) + [0] * (n % 2)
        for i, v in enumerate(odd):
            g[i + 1] -= v
    lead_bits = g[-1].bit_length()
    num, den = 0, 1  # the largest (e_k + k)/k so far, 0 when none is positive
    for k in range(1, n + 1):
        b = g[n - k]
        if b:
            e_k = b.bit_length() - lead_bits + 1
            if (e_k + k) * den > num * k:
                num, den = e_k + k, k
    if num == 0:
        return c, int(any(g[:-1]))
    return c, _iroot_ceil(1 << num, den << _GRAEFFE_STEPS)


def _int_square(a: list[int]) -> list[int]:
    """Coefficients of A(x)^2 for the integer coefficient list a (lowest
    first, nonempty)."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = 2 * x
            for j in range(i + 1, len(a)):
                out[i + j] += x2 * a[j]
    return out


def q_window(q: Rat, bound: Rat) -> int:
    """Largest L >= 0 with Q^L <= bound, where Q = max(|q|, 1/|q|) > 1; 0 when
    bound < Q.  Exact: binary search over the powers Q^(2^k)."""
    a, b = abs(q.numerator), abs(q.denominator)
    if a == b:
        raise PreconditionError("q_window needs |q| != 1")
    if a < b:
        a, b = b, a
    c, d = bound.numerator, bound.denominator
    # Q^L <= bound  <=>  a^L * d <= c * b^L
    squares = []
    while a * d <= c * b:
        squares.append((a, b))
        a, b = a * a, b * b
    window, pa, pb = 0, 1, 1
    for k in reversed(range(len(squares))):
        sa, sb = squares[k]
        if pa * sa * d <= c * pb * sb:
            pa, pb = pa * sa, pb * sb
            window += 1 << k
    return window


def integer_roots(p: Poly) -> set[int]:
    """Integer roots of p via Sturm-sequence isolation (no factorization)."""
    if p.is_zero():
        raise ZeroInputError("integer_roots of the zero polynomial")
    if p.degree == 0:
        return set()
    sqfree = radical(p)
    chain = _sturm_chain(sqfree)
    bound = math.floor(root_magnitude_bound(sqfree)) + 1  # above every root's magnitude
    roots: set[int] = set()
    # Sturm: v_lo - v_hi roots in the half-open interval (lo, hi]; bisected
    # on integer endpoints down to (hi - 1, hi], whose one integer is hi
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid)
            stack += ((lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi))
        elif sqfree.eval(hi) == 0:
            roots.add(hi)
    return roots


def radical(p: Poly) -> Poly:
    """The monic squarefree part of p."""
    return _gcd_cofactors(p, p.derivative())[1].monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod(factor^mult) with monic, squarefree,
    pairwise-coprime factors."""
    if p.is_zero():
        raise ZeroInputError("squarefree decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.is_constant():
        return [(p, 1)]
    out = []
    c = p.exact_div(g)
    d = dp.exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c.exact_div(a)
        d = d.exact_div(a) - c.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# RatFun
# ---------------------------------------------------------------------------


class RatFun:
    """Reduced rational function num/den with gcd(num, den) = 1 and den monic.

    Immutable.  Arithmetic keeps the form by Henrici's rule: since both
    operands are reduced, only gcds of cross terms are taken, never of the
    products, and a constant or polynomial operand runs no gcd at all.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _reduced: bool = False):
        if not isinstance(num, Poly):
            num = Poly.const(num) if not isinstance(num, (list, tuple)) else Poly(num)
        if den is None:
            den = _PONE
        elif not isinstance(den, Poly):
            den = Poly.const(den) if not isinstance(den, (list, tuple)) else Poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = _PONE
            else:
                _, num, den = _gcd_cofactors(num, den)
                num, den = over_monic(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def zero() -> "RatFun":
        return RF_ZERO

    @staticmethod
    def one() -> "RatFun":
        return RF_ONE

    @staticmethod
    def x() -> "RatFun":
        return RF_X

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c), _PONE, _reduced=True)

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun(p, _PONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def const_value(self) -> Rat:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.lc() if not self.num.is_zero() else RAT_ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == _PONE and self.num == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    @staticmethod
    def _coerce(v) -> "RatFun":
        if isinstance(v, RatFun):
            return v
        if isinstance(v, Poly):
            return RatFun.from_poly(v)
        return RatFun.const(v)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _reduced=True)

    def __add__(self, other) -> "RatFun":
        other = RatFun._coerce(other)
        # both operands are reduced: a zero summand leaves the other as it is
        if not other.num:
            return self
        if not self.num:
            return other
        # Henrici's rule (Knuth, TAOCP 4.5.1): with d1 = g*e1 and d2 = g*e2,
        # t = n1*e2 + n2*e1 is prime to e1*e2, so only gcd(t, g) can cancel
        if self.den == other.den:
            g, e1, e2 = self.den, _PONE, _PONE
        else:
            g, e1, e2 = _gcd_cofactors(self.den, other.den)
        t = self.num * e2 + other.num * e1
        if not t:
            return RF_ZERO
        _, t, g = _gcd_cofactors(t, g)
        return RatFun(t, e1 * e2 * g, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other) -> "RatFun":
        return self + (-RatFun._coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return RatFun._coerce(other) - self

    def __mul__(self, other) -> "RatFun":
        other = RatFun._coerce(other)
        if not self.num or not other.num:
            return RF_ZERO
        # both operands are reduced: only cross pairs can share a factor
        _, n1, d2 = _gcd_cofactors(self.num, other.den)
        _, n2, d1 = _gcd_cofactors(other.num, self.den)
        return RatFun(n1 * n2, d1 * d2, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = RatFun._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFun(*over_monic(other.den, other.num), _reduced=True)

    def __rtruediv__(self, other) -> "RatFun":
        return RatFun._coerce(other) / self

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return (RF_ONE / self) ** (-n)
        # powers of coprime polynomials stay coprime
        return RatFun(self.num ** n, self.den ** n, _reduced=True)

    def derivative(self) -> "RatFun":
        """d/dx via the quotient rule."""
        if self.is_polynomial():
            return RatFun.from_poly(self.num.derivative())
        n, d = self.num, self.den
        return RatFun(n.derivative() * d - n * d.derivative(), d * d)

    def eval(self, point) -> Rat:
        dv = self.den.eval(point)
        if dv == 0:
            raise ZeroDivisionError("evaluation at a pole")
        return self.num.eval(point) / dv

    def poly_part(self) -> tuple[Poly, "RatFun"]:
        """Split into (polynomial part, proper remainder)."""
        if self.is_polynomial():
            return over_monic(self.num, self.den)[0], RF_ZERO
        q, r = self.num.divmod(self.den)
        return q, RatFun(r, self.den, _reduced=True)

    def __repr__(self):
        if self.den == _PONE:
            return f"RatFun({format_poly(self.num)})"
        return f"RatFun(({format_poly(self.num)})/({format_poly(self.den)}))"


RF_ZERO = RatFun.__new__(RatFun)
object.__setattr__(RF_ZERO, "num", _PZERO)
object.__setattr__(RF_ZERO, "den", _PONE)
RF_ONE = RatFun.__new__(RatFun)
object.__setattr__(RF_ONE, "num", _PONE)
object.__setattr__(RF_ONE, "den", _PONE)
RF_X = RatFun.__new__(RatFun)
object.__setattr__(RF_X, "num", _PX)
object.__setattr__(RF_X, "den", _PONE)


def partial_split(f: RatFun, d1: Poly, d2: Poly) -> tuple[RatFun, RatFun]:
    """Split f = f1 + f2 with den(f1) | d1 and den(f2) | d2, given
    den(f) = d1*d2 (up to a constant) and gcd(d1, d2) = 1.

    Any polynomial part is folded into f2.  Computed with extended Euclid, so
    no root isolation is involved.
    """
    if d1.is_zero() or d2.is_zero():
        raise PreconditionError("partial_split with zero modulus")
    prod = (d1 * d2).monic()
    if prod != f.den.monic():
        raise PreconditionError("partial_split: den(f) != d1*d2")
    g, _, t = poly_xgcd(d1, d2)
    if g.degree > 0:
        raise PreconditionError("partial_split: d1, d2 not coprime")
    if d1.is_constant():
        return RF_ZERO, f
    if d2.is_constant():
        q, r = f.poly_part()
        return r, RatFun.from_poly(q)
    # 1 = s*d1 + t*d2  =>  f = n/(d1*d2) = n*t/d1 + n*s/d2 ; reduce n*t mod d1
    n = f.num * (d1 * d2).lc()  # f.den is monic, d1*d2 = lc * f.den
    f1 = RatFun((n * t) % d1, d1)
    f2 = f - f1
    return f1, f2
