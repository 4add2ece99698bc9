"""Exact arithmetic core: rationals, dense univariate polynomials, reduced
rational functions, and the gcd / root-difference / root primitives
everything else consumes.

All coefficients live in Q.  The ``Rat`` type is the stdlib
``fractions.Fraction`` (reduced, gcd(|num|, den) = 1, den > 0), which mixes
freely with ints; the kernels run on Python ints, the root kernels
(``root_differences``, the p-adic lifting of ``integer_roots``) included,
and a ``Rat`` is built only at the API edge, where a caller reads one
(``coeffs``, ``lc``, ``p[i]``, ``eval``, ``RatFun.const_value``).

A ``Poly`` is stored as a content times a primitive integer polynomial
(coprime integer coefficients, positive leading coefficient), the canonical
form of Geddes-Czapor-Labahn, ch. 2, with the content a reduced pair of
integers.  Ring operations, division, argument substitution, evaluation and
the gcd run on the integer parts; contents combine through one integer
helper, ``_qmul``, which multiplies reduced pairs by the cross gcds
(Knuth, TAOCP 4.5.1), and ``RatFun`` and ``structures.apply_sigma``
normalise a denominator to monic the same way (``over_monic``).  Division
runs one integer pseudo-division loop, ``_pseudo_divmod``; exact division,
``_exact_quotient``, runs it without scaling and stops at the first digit
lc(d) does not divide, so a rejected trial division of the gcd is cheap.
No other module reads the integer form: they go through ``over_monic``,
``divide_out_x``, ``integer_multiples``, ``coefficient_bits``,
``coefficient_bits_above`` and ``gf_coeffs``.  The parser computes on bare
integer coefficient lists, with the one schoolbook product ``int_poly_mul``
(which ``Poly`` multiplication runs too), its square and multiply
``int_poly_pow`` (which ``Poly`` powers run too) and ``int_poly_add``, and
crosses to and from a reduced ``RatFun`` through ``ratfun_from_ints`` and
``ratfun_ints``.

Every residue mod p is a one-digit CPython int (30-bit digits).
``GF_PRIME`` = 32603 is the largest safe prime below 2^15, p = 2r + 1 with r
prime, so there every product and ``acc*q + c`` stays below 2^30 too: the
first gcd image, the gap scans' Taylor shifts and q steps, and the Horner
filter of the q-power roots.  The gcd (``_int_gcd``) is Brown's multi-prime
loop (J. ACM 18, 1971) over GF_PRIME and then the primes below 2^30, skipping
primes that divide a leading coefficient: a constant image certifies 1 (the
common case), lower image degrees restart the run, equal ones combine by
CRT, and a symmetric lift (gamma times the monic image, the monic image, or
the cofactor) is accepted when it divides both operands.  A prime dividing
neither leading coefficient gives an image of degree at least deg G and an
accepted lift has degree at most deg G, so it is G; the loop ends because
only finitely many primes are unlucky and the gamma lift is exact once the
modulus passes twice the Mignotte bound on gamma*G/lc(G).  There is no
other gcd path.

The scans take the first safe prime below 2^15 (``scan_primes``) at which
the leading coefficients are units and, in the q case, q is a unit other
than +-1.  Such a q has order r or 2r >= r = 16301 at GF_PRIME, so the
images along a q orbit do not repeat within a window below r, and in the
windows between r and ``Q_WINDOW_CAP`` = 2^14 each repeat costs one exact
gcd.  The Mersenne prime 2^31 - 1 gives 2 and 4 the order 31, and the q = 2
and q = 1/4 scans then pass every 31st candidate on to an exact gcd of big
polynomials.

The root bounds read the integer form too: ``root_magnitude_bound`` and
``reciprocal_root_bound`` (the q windows), and ``root_disc``, an integer
centre and radius for the shift gap windows, the same bound read on a
Graeffe root-squaring image (the exact radius for degrees 1 and 2).
``_magnitude_bound`` is the one root-bound formula behind all three and
``integer_roots``.  ``q_window`` turns a
magnitude ratio into a number of q steps and raises BoundExceededError once
that number reaches ``Q_WINDOW_CAP`` = 2^14, before the powers of a q near 1
grow huge.  ``radical`` is the one squarefree primitive; the standard forms
read multiplicities by repeated gcd.

``integer_roots`` lifts the roots of the squarefree primitive P mod one
small prime l to l-adic roots by Newton's iteration, and keeps each
symmetric residue that is an exact root.  l divides neither lc(P) nor P' at
any root mod l, so every root mod l is simple: Hensel's lemma lifts it
uniquely, and an integer root, of magnitude at most the root bound B, is
its own lift once the modulus passes 2B.  Only the finitely many primes
dividing lc(P)*disc(P) are rejected, so the search for l ends.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BoundExceededError, InternalVerificationError, PreconditionError, ZeroInputError

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
        return _poly(tuple(int_poly_mul(a, b)), cn, cd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if not n:
            return _PONE
        if not self._ints:
            return _PZERO
        # (cn/cd)^n stays reduced, and by Gauss's lemma the power is primitive
        return _poly(tuple(int_poly_pow(self._ints, n)), self._cn ** n, self._cd ** n)

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
        if v == 1:
            return Rat(self._cn * _horner(ints, u), self._cd)
        # acc = v^n * P(u/v), homogeneous Horner
        acc, vp = 0, 1
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


def int_poly_mul(a, b) -> list[int]:
    """The product of two integer coefficient lists, lowest degree first, by
    the schoolbook rule; an empty list is the zero polynomial, and lists
    without trailing zeros give a product without them."""
    if not a or not b:
        return []
    if len(a) == 1:
        c = a[0]
        return [c * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def int_poly_pow(ints, n: int) -> list[int]:
    """The n-th power (n >= 0) of an integer coefficient list, by square and
    multiply on ``int_poly_mul``."""
    result = [1]
    while n:
        if n & 1:
            result = int_poly_mul(result, ints)
        n >>= 1
        if n:
            ints = int_poly_mul(ints, ints)
    return result


def int_poly_add(a, b) -> list[int]:
    """The sum of two integer coefficient lists, lowest degree first, with
    no trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


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
    (coefficient sequences as in ``_pseudo_divmod``): the division loop
    without scaling, which stops at the first leading coefficient lc(d)
    does not divide, so a trial division that fails is cheap."""
    if d == a:
        return (1,)
    db, lb = len(d) - 1, d[-1]
    r = list(a)
    quo = [0] * (len(a) - db)
    if not quo:
        return None
    for k in range(len(quo) - 1, -1, -1):
        lr = r.pop()
        if lr % lb:
            return None
        if lr:
            quo[k] = f = lr // lb
            for j in range(db):
                r[k + j] -= f * d[j]
    return None if any(r) else tuple(quo)


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
# gcd / root-difference / factor-free primitives
# ---------------------------------------------------------------------------

# the largest safe prime below 2^15; see the module docstring
GF_PRIME = 32603


def gf_coeffs(p: Poly, prime: int = GF_PRIME) -> list[int] | None:
    """Coefficients of the primitive integer part of p mod prime, lowest
    first; None when the reduction degenerates (leading coefficient
    vanishes)."""
    out = [v % prime for v in p._ints]
    if not out or out[-1] == 0:
        return None
    return out


def _gf_gcd(a: list[int], b: list[int], prime: int = GF_PRIME) -> list[int]:
    """The monic gcd over GF(prime) of two coefficient lists (lowest first,
    trailing zeros allowed); [] when both are zero."""
    a, b = list(a), list(b)
    da, db = len(a) - 1, len(b) - 1
    while da >= 0 and not a[da]:
        da -= 1
    while db >= 0 and not b[db]:
        db -= 1
    while db >= 0:
        # adding f*b with f = -a[da]/lc(b) keeps every operand non-negative,
        # which CPython reduces faster than a negative difference
        inv = prime - pow(b[db], -1, prime)
        while da >= db:
            f = a[da] * inv % prime
            if f:
                k = da - db
                for i in range(db):
                    a[k + i] = (a[k + i] + f * b[i]) % prime
            da -= 1
            while da >= 0 and not a[da]:
                da -= 1
        a, b, da, db = b, a, db, da
    inv = pow(a[da], -1, prime) if da >= 0 else 1
    return [v * inv % prime for v in a[: da + 1]]


def _gf_quotient(a: list[int], g: list[int], prime: int) -> list[int]:
    """The quotient over GF(prime) of a by the monic g, deg a >= deg g, both
    reduced with no trailing zeros."""
    r, dg = list(a), len(g) - 1
    quo = [0] * (len(a) - dg)
    for k in range(len(quo) - 1, -1, -1):
        f = quo[k] = r[k + dg]
        if f:
            f = prime - f
            for j in range(dg):
                r[k + j] = (r[k + j] + f * g[j]) % prime
    return quo


def gf_gcd_degree(a: list[int], b: list[int], prime: int = GF_PRIME) -> int:
    """Degree of gcd over GF(prime); inputs are coefficient lists."""
    return len(_gf_gcd(a, b, prime)) - 1


def _is_small_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def scan_primes():
    """The safe primes p = 2r + 1 (r prime) below 2^15, largest (GF_PRIME)
    first: the moduli of the gap scans and the q-power filter."""
    yield GF_PRIME
    for p in range(GF_PRIME - 2, 4, -2):
        if _is_small_prime(p) and _is_small_prime(p >> 1):
            yield p


# the odd primes up to 61, for one gcd of trial division
_SMALL_ODD_PRIMES = math.prod([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])


def _is_word_prime(n: int) -> bool:
    """Primality of an odd n with 61 < n < 2^32: trial division by the odd
    primes to 61, then Miller-Rabin to the bases 2, 7 and 61, deterministic
    below 4759123141 (Jaeschke, Math. Comp. 61, 1993)."""
    if math.gcd(n, _SMALL_ODD_PRIMES) != 1:
        return False
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for base in (2, 7, 61):
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes below 2^30, largest first, found on demand in blocks of 16,
# each prime paired with the product of its block; a thread that grows the
# tuple rebinds it whole, so a reader never sees a partial one
_WORD_PRIMES: tuple = ()


def _lift_primes():
    """(prime, block) for GF_PRIME (block None), then for the primes below
    2^30 in descending order, block the product of the 16 primes of its
    block: the moduli of the gcd images, every residue a one-digit CPython
    int.  Reducing big coefficients by the block first makes the 16
    reductions by its primes short."""
    global _WORD_PRIMES
    yield GF_PRIME, None
    i = 0
    while True:
        primes = _WORD_PRIMES
        if i == len(primes):
            n, more = primes[-1][0] if primes else (1 << 30) + 1, []
            while len(more) < 16:
                n -= 2
                if _is_word_prime(n):
                    more.append(n)
            block = math.prod(more)
            primes = _WORD_PRIMES = primes + tuple((p, block) for p in more)
        yield primes[i]
        i += 1


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
    (1, p, q) and runs no gcd.  The gcd runs on the primitive integer parts
    (``_int_gcd``)."""
    a, b = p._ints, q._ints
    if len(a) < 2 or len(b) < 2:
        return _PONE, p, q
    found = _int_gcd(a, b)
    if found is None:
        return _PONE, p, q
    g, qa, qb = found
    lc = g[-1]
    # p = c*a = (c*lc) * qa * (g/lc), with g/lc the monic gcd
    return _poly(g, 1, lc), _poly(qa, *_qmul(p._cn, p._cd, lc, 1)), _poly(qb, *_qmul(q._cn, q._cd, lc, 1))


def _symmetric(values, m: int) -> list[int]:
    """The residues mod m of ``values`` in (-m/2, m/2]."""
    half = m >> 1
    return [v - m if v > half else v for v in values]


def _int_gcd(a, b) -> tuple[tuple, tuple, tuple] | None:
    """(G, a/G, b/G) for G the gcd in Z[x] of two primitive integer
    polynomials of degree >= 1 with positive leading coefficients, G
    primitive with a positive leading coefficient; None when G = 1.

    Brown's multi-prime gcd (J. ACM 18, 1971) over ``_lift_primes``,
    skipping the primes that divide lc(a) or lc(b).  Each prime gives the
    monic gcd image and the image of the cofactor a/G times lc(G); a
    constant image certifies G = 1, a lower image degree restarts the run,
    and images of equal degree combine by the Chinese remainder theorem.  A
    candidate is the symmetric lift of one combination: gamma times the
    monic image, gamma = gcd(lc a, lc b), made primitive (tried at once on
    the first two primes, as most gcds lift from one); the monic image
    itself; and the cofactor, made primitive, whose quotient a/C is the
    candidate.  After the second prime a candidate is tried only when the
    last prime left its lift unchanged.  A candidate is accepted when it
    divides a and b exactly.

    Sound: a prime dividing neither leading coefficient gives an image of
    degree at least deg G, a candidate dividing both operands has degree at
    most deg G, and deg(a/C) is the image degree, so an accepted candidate
    is G.  The loop ends: only finitely many primes give an image of degree
    above deg G, and the gamma lift is exact once the product of the primes
    of one run passes twice the Mignotte bound on gamma*G/lc(G).  After the
    first lift fails, gcd(x^i A(x^k), x^j B(x^k)) = x^min(i,j) gcd(A, B)(x^k)
    deflates the operands: the radical of y^30 S(y^30) runs its gcd of
    degree 449 as one of degree 14."""
    la, lb = a[-1], b[-1]
    gamma = math.gcd(la, lb)
    deg, count, held = len(a), 0, None
    for prime, block in _lift_primes():
        if not (la % prime and lb % prime):
            continue
        if block is None:
            ra, rb = a, b
        elif block is not held:
            held, ra, rb = block, [v % block for v in a], [v % block for v in b]
        ap = [v % prime for v in ra]
        image = _gf_gcd(ap, [v % prime for v in rb], prime)
        d = len(image) - 1
        if not d:
            return None
        count += 1
        if d > deg:
            continue
        if d < deg:
            deg, m, monic, cof, last = d, 1, [0] * (d + 1), [0] * (len(a) - d), [None] * 3
        inv, mp = pow(m, -1, prime), m * prime
        monic = [c + m * ((r - c % prime) * inv % prime) for c, r in zip(monic, image)]
        lift = _symmetric(monic if gamma == 1 else [gamma * v % mp for v in monic], mp)
        if (count <= 2 or lift == last[0]) and (found := _divides_both(a, b, lift, gamma)):
            return found
        if count == 1 and (found := _deflated_gcd(a, b)) is not False:
            return found
        cof = [c + m * ((r - c % prime) * inv % prime) for c, r in zip(cof, _gf_quotient(ap, image, prime))]
        m = mp
        # with gamma = 1 the monic lift is the gamma lift
        lifts = [lift, lift if gamma == 1 else _symmetric(monic, m), _symmetric(cof, m)]
        if gamma != 1 and lifts[1] == last[1] and (found := _divides_both(a, b, lifts[1], gamma)):
            return found
        if lifts[2] == last[2] and (found := _cofactor_divides(a, b, lifts[2])):
            return found
        last = lifts


def _divides_both(a, b, lift, gamma: int):
    """(G, a/G, b/G) for G the primitive lift when lc(G) divides gamma and
    G divides a and b; else None."""
    g = _primitive(lift, 1, 1)[0]
    if gamma % g[-1]:
        return None
    qa = _exact_quotient(a, g)
    qb = None if qa is None else _exact_quotient(b, g)
    return None if qb is None else (g, qa, qb)


def _cofactor_divides(a, b, lift):
    """(G, C, b/G) for C the primitive lift and G = a/C when C divides a and
    G divides b; else None."""
    c = _primitive(lift, 1, 1)[0]
    g = _exact_quotient(a, c)
    qb = None if g is None else _exact_quotient(b, g)
    return None if qb is None else (g, c, qb)


def _deflated_gcd(a, b):
    """``_int_gcd`` through gcd(x^i A(x^k), x^j B(x^k)) = x^m gcd(A, B)(x^k)
    with m = min(i, j), i and j the orders at 0 and k the gcd of the other
    exponents; False when i = j = 0 and k = 1, where nothing deflates."""
    i = next(e for e, v in enumerate(a) if v)
    j = next(e for e, v in enumerate(b) if v)
    k = math.gcd(*[e - i for e in range(i + 1, len(a)) if a[e]], *[e - j for e in range(j + 1, len(b)) if b[e]]) or 1
    if not (i or j or k > 1):
        return False
    m = min(i, j)
    A, B = a[i::k], b[j::k]
    inner = _int_gcd(A, B) if len(A) > 1 and len(B) > 1 else None
    if inner is None:
        if not m:
            return None
        inner = (1,), A, B

    def inflate(f, shift):
        out = [0] * (shift + (len(f) - 1) * k + 1)
        out[shift::k] = f
        return tuple(out)

    g, ca, cb = inner
    return inflate(g, m), inflate(ca, i - m), inflate(cb, j - m)


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


def root_differences(a: Poly, b: Poly) -> Poly:
    """A polynomial whose roots are alpha - beta over the roots alpha of a
    and beta of b (degrees >= 1), with multiplicity: Res_x(b(x), a(x+y)) up
    to a constant, as a composed sum (Bostan, Flajolet, Salvy and Schost,
    J. Symbolic Comput. 41, 2006).  With l = lc(A)*lc(B) for the primitive
    parts A, B, the l*alpha and -l*beta have integer power sums; a binomial
    sum gives those of the l*(alpha - beta), and Newton's identities, each
    division by k exact, their monic polynomial E.  Returns E(l*y)."""
    A, B = a._ints, b._ints
    n = (len(A) - 1) * (len(B) - 1)
    l = A[-1] * B[-1]
    S, T = _power_sums(A, l, n), _power_sums(B, -l, n)
    sums = [sum(math.comb(k, t) * S[t] * T[k - t] for t in range(k + 1) if S[t] and T[k - t]) for k in range(n + 1)]
    e = [1]  # e[j] is the coefficient of y^(n-j) in E
    for k in range(1, n + 1):
        ek, rem = divmod(-sum(e[j] * sums[k - j] for j in range(k) if e[j] and sums[k - j]), k)
        if rem:
            raise InternalVerificationError("power sums of root differences are not integral")
        e.append(ek)
    return _normal([e[n - i] * l ** i for i in range(n + 1)], 1, 1)


def _power_sums(ints, scale: int, count: int) -> list[int]:
    """Power sums p_0 .. p_count of scale*alpha over the roots alpha of
    sum(ints[i] * x^i), whose leading entry lc divides scale: Newton's
    identities on the monic e_j = ints[n-j] * scale^j / lc, in integers."""
    n = len(ints) - 1
    e = [ints[n - j] * scale ** j // ints[-1] for j in range(n + 1)] + [0] * count
    p = [n]
    for k in range(1, count + 1):
        p.append(-k * e[k] - sum(e[j] * p[k - j] for j in range(1, min(k, n + 1)) if e[j] and p[k - j]))
    return p


def _horner(ints, x: int, m: int = 0) -> int:
    """The integer polynomial sum(ints[i] * x^i) at the integer x, reduced
    mod m at each step when m > 0."""
    acc = 0
    for v in reversed(ints):
        acc = acc * x + v
        if m:
            acc %= m
    return acc


def _iroot_floor(n: int, k: int) -> int:
    """Largest integer r >= 0 with r^k <= n (n >= 0, k >= 1).

    Integer Newton steps x -> ((k-1)*x + n // x^(k-1)) // k never fall below
    r from any start x >= r (arithmetic-geometric mean), and stop decreasing
    exactly at x = r.  The start, one more than the root of n's leading bits
    shifted back, lies above r and carries about half of r's bits, so a few
    steps finish where a bisection takes one step per bit of r."""
    if n < 2 or k == 1:
        return n
    s = n.bit_length() // (2 * k)
    x = (_iroot_floor(n >> (k * s), k) + 1) << s if s else 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _iroot_ceil(n: int, k: int) -> int:
    """Smallest integer r >= 0 with r^k >= n (n >= 0, k >= 1)."""
    r = _iroot_floor(n, k)
    return r if r ** k == n else r + 1


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
        # below 2^(k*(bits(fuji) - 1)) <= fuji^k the k-th root cannot raise fuji
        if ratio_ceil.bit_length() > k * (fuji.bit_length() - 1):
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

    r reads ``_magnitude_bound`` on G, the K-th Graeffe image of P: G has
    the roots (alpha - c)^(2^K), so |alpha - c| <= B(G)^(1/2^K), and r is
    the least integer at or above that root of ceil(B(G)).  Fujiwara's bound
    overestimates clustered roots by up to a factor 2n (van der Sluis,
    Numer. Math. 15, 1970); on G that factor shrinks to its 2^K-th root.
    r is 0 when P = x^n.

    Degrees 1 and 2 read r off the roots themselves, the centroid
    -b/(2a) +- sqrt(D)/(2a) of a*x^2 + b*x + c0 with D = b^2 - 4*a*c0 (and
    the one root -c0/b of b*x + c0): with e = |b + 2*a*c|, 2*a times the
    distance of the centroid from c, r is the least integer at or above
    (e + sqrt(D))/(2a) for real roots and sqrt(e^2 - D)/(2a) for complex
    ones, with sqrt(D) rounded up by ``math.isqrt``."""
    ints = p._ints
    n = len(ints) - 1
    lead = ints[-1]
    c = (n * lead - 2 * ints[-2]) // (2 * n * lead)  # floor(centroid + 1/2)
    if n == 1:
        return c, -(-abs(ints[0] + c * lead) // lead)
    if n == 2:
        e, disc = abs(ints[1] + 2 * lead * c), ints[1] ** 2 - 4 * lead * ints[0]
        root = _iroot_ceil(disc if disc >= 0 else e * e - disc, 2)
        return c, -(-(e + root if disc >= 0 else root) // (2 * lead))
    g = list(p.shift_arg(c)._ints)
    if not any(g[:-1]):
        return c, 0
    for _ in range(_GRAEFFE_STEPS):
        # g(x) = e(x^2) + x*o(x^2), and e(y)^2 - y*o(y)^2 = +-g(x)g(-x) at y = x^2
        odd = int_poly_mul(g[1::2], g[1::2])
        g = int_poly_mul(g[0::2], g[0::2]) + [0] * (n % 2)
        for i, v in enumerate(odd):
            g[i + 1] -= v
    return c, _iroot_ceil(math.ceil(_magnitude_bound(g)), 1 << _GRAEFFE_STEPS)


# every q window is below this: a q orbit gap scan or q-power root search
# walks at most this many steps, and for q near 1, where the window runs to
# millions, the powers of q stop growing before any scan starts
Q_WINDOW_CAP = 1 << 14


def q_window(q: Rat, bound: Rat) -> int:
    """Largest L >= 0 with Q^L <= bound, where Q = max(|q|, 1/|q|) > 1; 0 when
    bound < Q.  Exact: binary search over the powers Q^(2^k).  A window of
    ``Q_WINDOW_CAP`` or more raises BoundExceededError before its powers
    grow further."""
    a, b = abs(q.numerator), abs(q.denominator)
    if a == b:
        raise PreconditionError("q_window needs |q| != 1")
    if a < b:
        a, b = b, a
    c, d = bound.numerator, bound.denominator
    # Q^L <= bound  <=>  a^L * d <= c * b^L
    squares = []
    while a * d <= c * b:  # Q^(2^k) <= bound for k = len(squares)
        if 1 << len(squares) >= Q_WINDOW_CAP:
            raise BoundExceededError(f"q orbit window of {Q_WINDOW_CAP} steps or more")
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
    """Integer roots of p by p-adic Newton lifting from one small prime, with
    no factoring (Loos, SIAM J. Comput. 12, 1983).

    P is the primitive ``radical`` of p, and l the first prime that divides
    neither lc(P) nor P'(r) at any root r of P mod l, the roots found by
    evaluating at 0 .. l-1.  Each root is lifted by r <- r - P(r)/P'(r) mod
    l^(2^k) until the modulus m passes 2*floor(B) + 2 for the root bound
    B = ``_magnitude_bound(P)``, and each symmetric residue that P takes to
    zero exactly is kept.  Sound: an integer root reduces to a root of P mod
    l, simple there since l divides no P' value at a root, so Hensel's lemma
    lifts it uniquely and the lift is the root itself; |root| <= B < m/2, so
    it is that symmetric residue.  The search for l ends because P is
    squarefree: only the finitely many primes dividing lc(P)*disc(P) are
    rejected."""
    if p.is_zero():
        raise ZeroInputError("integer_roots of the zero polynomial")
    if p.degree == 0:
        return set()
    P = radical(p)._ints
    dP = [i * v for i, v in enumerate(P)][1:]
    ell = 1
    while True:
        ell += 1
        if P[-1] % ell == 0 or any(ell % d == 0 for d in range(2, math.isqrt(ell) + 1)):
            continue
        small, dsmall, roots = [v % ell for v in P], [v % ell for v in dP], []
        for r in range(ell):
            if not _horner(small, r, ell):
                if not _horner(dsmall, r, ell):
                    break  # a multiple root mod ell: try the next prime
                roots.append(r)
        else:
            break
    bound, m = 2 * math.floor(_magnitude_bound(P)) + 2, ell
    while roots and m <= bound:
        m *= m
        small, dsmall = [v % m for v in P], [v % m for v in dP]
        roots = [(r - _horner(small, r, m) * pow(_horner(dsmall, r, m), -1, m)) % m for r in roots]
    roots = [r - m if 2 * r > m else r for r in roots]
    return {r for r in roots if not _horner(P, r)}


def radical(p: Poly) -> Poly:
    """The monic squarefree part of p.  A squarefree image mod GF_PRIME
    (prime to the derivative image, which keeps its degree) certifies that p
    is squarefree before the derivative is built."""
    ints = p._ints
    n = len(ints) - 1
    if n > 0 and ints[-1] % GF_PRIME and n % GF_PRIME:
        image = [v % GF_PRIME for v in ints]
        if len(_gf_gcd(image, [i * v % GF_PRIME for i, v in enumerate(image)][1:])) == 1:
            return p.monic()
    return _gcd_cofactors(p, p.derivative())[1].monic()


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


_set_num = RatFun.num.__set__
_set_den = RatFun.den.__set__
RF_ZERO = RatFun.__new__(RatFun)
object.__setattr__(RF_ZERO, "num", _PZERO)
object.__setattr__(RF_ZERO, "den", _PONE)
RF_ONE = RatFun.__new__(RatFun)
object.__setattr__(RF_ONE, "num", _PONE)
object.__setattr__(RF_ONE, "den", _PONE)
RF_X = RatFun.__new__(RatFun)
object.__setattr__(RF_X, "num", _PX)
object.__setattr__(RF_X, "den", _PONE)


def ratfun_from_ints(num, den) -> RatFun:
    """The reduced rational function num/den of two integer coefficient
    lists, lowest degree first, den nonzero: one gcd, as ``RatFun`` takes,
    and none over a constant denominator."""
    if len(den) > 1:
        return RatFun(_normal(list(num), 1, 1), _normal(list(den), 1, 1))
    if len(num) == 1 and num[0]:
        ints, cn, cd = _PONE._ints, num[0], den[0]
        g = math.gcd(cn, cd)
        if cd < 0:
            g = -g
        cn, cd = cn // g, cd // g
    else:
        ints, cn, cd = _primitive(list(num), 1, 1)
        if not ints:
            return RF_ZERO
        if den[0] != 1:
            cn, cd = _qmul(cn, cd, 1, den[0])
    f = object.__new__(RatFun)
    _set_num(f, _poly(ints, cn, cd))
    _set_den(f, _PONE)
    return f


def ratfun_ints(f: RatFun) -> tuple[list[int], list[int]]:
    """Integer coefficient lists (num, den), lowest degree first, with
    num/den = f: (cn/cd) P / ((dn/dd) Q) = (k P) / (m Q) for k/m the reduced
    quotient of the contents."""
    n, d = f.num, f.den
    if not n._ints:
        return [], [1]
    k, m = _qmul(n._cn, n._cd, d._cd, d._cn)
    return [k * v for v in n._ints], [m * v for v in d._ints]


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
