"""Property tests for ``Poly`` (content times primitive integer part) against
a plain reference on lists of ``Fraction`` coefficients, plus the canonical
form: primitive part, positive leading entry, and ``==``/``hash`` agreeing
for equal polynomials built different ways.  ``poly_gcd`` is also checked
against sympy's gcd on every branch of its lift loop (a lift from one
prime, from several, from the cofactor, rejected lifts, no image), and
``RatFun`` arithmetic by Henrici's rule against the unreduced construction
it replaces.

Tier-1 runs the gcd comparison with sympy on a small derandomized sample; a
long run loads the ``gcd-oracle`` profile registered in conftest.py:

    python -m pytest tests/test_poly_properties.py -k against_sympy --hypothesis-profile=gcd-oracle
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import Poly, Rat, RatFun, poly_gcd
from diffalg import numcore
from diffalg.numcore import (
    GF_PRIME,
    _gcd_cofactors,
    coefficient_bits_above,
    gf_coeffs,
    gf_gcd_degree,
    int_poly_add,
    int_poly_mul,
    int_poly_pow,
    ratfun_from_ints,
    ratfun_ints,
)
from diffalg.parsing import _coeff_bits

# derandomized: tier-1 runs the same examples every time
props = settings(max_examples=100, deadline=None, derandomize=True, database=None)

rationals = st.builds(
    Fraction,
    st.integers(-40, 40),
    st.integers(1, 12),
)
nonzero_rationals = rationals.filter(bool)


def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


coeff_lists = st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=7).map(ref_trim)
nonzero_lists = coeff_lists.filter(bool)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_neg(a):
    return [-c for c in a]


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_pow(a, n):
    out = [Fraction(1)]
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_divmod(a, b):
    r = list(a)
    if len(r) < len(b):
        return [], ref_trim(r)
    quo = [Fraction(0)] * (len(r) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = r[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, v in enumerate(b):
            r[k + j] -= c * v
    return ref_trim(quo), ref_trim(r[: len(b) - 1])


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose_linear(a, s, t):
    """a(s*x + t)."""
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, [t, s]), [c])
    return acc


def ref_derivative(a):
    return ref_trim([i * c for i, c in enumerate(a)][1:])


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def as_list(p: Poly):
    return list(p.coeffs)


def check_canonical(p: Poly):
    ints, cn, cd = p._ints, p._cn, p._cd
    assert type(cn) is int and type(cd) is int
    if not ints:
        assert p.degree == -1 and (cn, cd) == (1, 1)
        return
    assert all(type(v) is int for v in ints)
    assert math.gcd(*ints) == 1
    assert ints[-1] > 0
    assert cn != 0 and cd > 0
    assert math.gcd(cn, cd) == 1
    assert p.coeffs == tuple(Fraction(cn * v, cd) for v in ints)
    assert all(type(v) is Rat for v in p.coeffs)
    assert p.coeffs[-1] != 0


@props
@given(coeff_lists, coeff_lists)
def test_ring_operations(a, b):
    pa, pb = Poly(a), Poly(b)
    for p, ref in (
        (pa + pb, ref_add(a, b)),
        (pa - pb, ref_add(a, ref_neg(b))),
        (-pa, ref_neg(a)),
        (pa * pb, ref_mul(a, b)),
    ):
        check_canonical(p)
        assert as_list(p) == ref


@props
@given(coeff_lists, rationals)
def test_scalar_operations(a, c):
    p = Poly(a)
    for out in (p * c, c * p, p + c, c - p):
        check_canonical(out)
    assert as_list(p * c) == ref_trim([v * c for v in a])
    assert as_list(p + c) == ref_add(a, [c])
    assert as_list(c - p) == ref_add([c], ref_neg(a))


@props
@given(coeff_lists, nonzero_lists)
def test_divmod(a, b):
    q, r = Poly(a).divmod(Poly(b))
    check_canonical(q)
    check_canonical(r)
    ref_q, ref_r = ref_divmod(a, b)
    assert as_list(q) == ref_q
    assert as_list(r) == ref_r


@props
@given(coeff_lists, nonzero_lists)
def test_exact_div(a, b):
    prod = Poly(ref_mul(a, b))
    quo = prod.exact_div(Poly(b))
    check_canonical(quo)
    assert as_list(quo) == a


@props
@given(coeff_lists, nonzero_lists, nonzero_lists)
def test_exact_div_rejects_a_remainder(a, b, r):
    # deg b >= 1 and deg r < deg b: r is the nonzero remainder of a*b + r
    b = b + [Fraction(1)]
    r = ref_trim(r[: len(b) - 1]) or [Fraction(1)]
    with pytest.raises(ValueError):
        Poly(ref_add(ref_mul(a, b), r)).exact_div(Poly(b))
    with pytest.raises(ValueError):
        Poly(r).exact_div(Poly(b))


@props
@given(coeff_lists, rationals)
def test_substitutions(a, c):
    p = Poly(a)
    shifted, scaled = p.shift_arg(c), p.scale_arg(c)
    check_canonical(shifted)
    check_canonical(scaled)
    assert as_list(shifted) == ref_compose_linear(a, 1, c)
    assert as_list(scaled) == ref_compose_linear(a, c, 0)
    assert p.eval(c) == ref_eval(a, c)
    assert Poly(a).eval(int(c)) == ref_eval(a, Fraction(int(c)))


@props
@given(coeff_lists)
def test_derivative_and_monic(a):
    p = Poly(a)
    for out, ref in ((p.derivative(), ref_derivative(a)), (p.monic(), ref_monic(a))):
        check_canonical(out)
        assert as_list(out) == ref


@props
@given(coeff_lists, coeff_lists, coeff_lists)
def test_gcd(a, b, common):
    # a common factor makes nontrivial gcds frequent
    a, b = ref_mul(a, common), ref_mul(b, common)
    g = poly_gcd(Poly(a), Poly(b))
    check_canonical(g)
    assert as_list(g) == ref_gcd(a, b)


def sympy_gcd(a: Poly, b: Poly) -> Poly:
    """Independent oracle: sympy's gcd over QQ, made monic."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], x,
                          domain="QQ")

    g = to_sympy(a).gcd(to_sympy(b))
    if g.is_zero:
        return Poly.zero()
    return Poly([Rat(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())])


# integer coefficients beyond GF_PRIME/2 defeat the lift of one mod-p image,
# those past 31, 62 and 124 bits that of one, two and four primes below
# 2^30, and multiples of GF_PRIME leave no image at all
wide_ints = st.one_of(
    st.integers(-40, 40),
    *[st.integers(-(2**bits), 2**bits) for bits in (16, 32, 63, 125)],
    st.sampled_from([GF_PRIME, -GF_PRIME, 3 * GF_PRIME, GF_PRIME + 1]),
)
planted_factors = st.lists(wide_ints, min_size=1, max_size=4).map(ref_trim).filter(bool)

if settings.get_current_profile_name() == "gcd-oracle":
    gcd_settings = settings(deadline=None, database=None)
else:
    gcd_settings = props


def ref_inflate(cs, k, shift):
    """The coefficients of x^shift * c(x^k) for c with coefficients cs."""
    out = [0] * (shift + k * (len(cs) - 1) + 1)
    out[shift::k] = cs
    return out


@gcd_settings
@given(nonzero_lists, nonzero_lists, planted_factors, st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_gcd_of_planted_factors_against_sympy(a, b, common, i, j, k):
    # x^i * A(x^k) and x^j * B(x^k) share x^min(i, j) * common(x^k)
    p = Poly(ref_inflate(ref_mul(a, common), k, i))
    q = Poly(ref_inflate(ref_mul(b, common), k, j))
    g, cp, cq = _gcd_cofactors(p, q)
    check_canonical(g)
    assert g == sympy_gcd(p, q) if p.degree > 0 and q.degree > 0 else g == Poly.one()
    assert g * cp == p and g * cq == q


class TestGcdBranches:
    """One deterministic input per branch of the lift loop of ``poly_gcd``,
    each against sympy."""

    def test_lift_beyond_half_the_prime_takes_more_primes(self):
        # the image x + (2^40 mod p) lifts to the wrong symmetric residue
        big = Poly([2**40, 1])
        assert 2**40 > GF_PRIME // 2
        p, q = big * Poly([-1, 1]), big * Poly([3, 2])
        assert poly_gcd(p, q) == big == sympy_gcd(p, q)

    def test_unlucky_image_is_rejected(self):
        p, x = Poly([GF_PRIME, 1]), Poly.x()
        assert gf_gcd_degree(gf_coeffs(p), gf_coeffs(x)) == 1  # the image is x
        assert poly_gcd(p, x) == Poly.one() == sympy_gcd(p, x)

    def test_leading_coefficient_divisible_by_the_prime_gives_no_image(self):
        common = Poly([5, 3, 1])
        p, q = Poly([1, GF_PRIME]) * common, Poly([-2, 1]) * common
        assert gf_coeffs(p) is None
        assert poly_gcd(p, q) == common.monic() == sympy_gcd(p, q)

    def test_only_the_cofactor_lifts_from_one_prime(self, monkeypatch):
        # the gcd x + 2^200 needs seven primes below 2^30, its cofactors
        # x + 1 and x + 2 one: the cofactor lift of the first prime is
        # unchanged by the second, which ends the loop
        big = Poly([2**200, 1])
        p, q = big * Poly([1, 1]), big * Poly([2, 1])
        images = []
        real = numcore._gf_gcd

        def counted(*args):
            images.append(args[-1])
            return real(*args)

        monkeypatch.setattr(numcore, "_gf_gcd", counted)
        g, cp, cq = _gcd_cofactors(p, q)
        assert g == big == sympy_gcd(p, q)
        assert (cp, cq) == (Poly([1, 1]), Poly([2, 1]))
        assert len(images) == 2 and images[0] == GF_PRIME and images[1] < 2**30

    def test_later_image_of_higher_degree_is_skipped(self):
        # the gcd x + 2^40 needs more primes; the first prime below 2^30,
        # 1073741789, shares the root -1 of both cofactors, so its image
        # has degree 2 and is passed over
        big = Poly([2**40, 1])
        p, q = big * Poly([1, 1]), big * Poly([1 + 1073741789, 1])
        assert poly_gcd(p, q) == big == sympy_gcd(p, q)

    def test_deflated_parts_coprime_share_a_power_of_x(self):
        # x^2 (x + 1) and x (x + 1 + GF_PRIME) share x + 1 mod GF_PRIME only;
        # the common power x splits off, and x + 1 and x + 1 + GF_PRIME are
        # coprime
        p, q = Poly([0, 0, 1]) * Poly([1, 1]), Poly([0, 1]) * Poly([1 + GF_PRIME, 1])
        assert poly_gcd(p, q) == Poly.x() == sympy_gcd(p, q)


# RatFun operands of every shape: constants, polynomials, and fractions whose
# numerators and denominators draw on a few shared factors, so cross terms
# cancel often
shared_factors = [Poly([0, 1]), Poly([1, 1]), Poly([-2, 1]), Poly([1, 2]), Poly([1, 0, 1])]
factor_products = st.lists(st.sampled_from(shared_factors), max_size=3).map(
    lambda fs: math.prod(fs, start=Poly.one())
)


@st.composite
def reduced_ratfuns(draw):
    kind = draw(st.sampled_from(["const", "poly", "frac"]))
    if kind == "const":
        return RatFun.const(draw(rationals))
    num = Poly(draw(coeff_lists)) * draw(factor_products)
    if kind == "poly":
        return RatFun(num)
    return RatFun(num, Poly(draw(nonzero_lists)) * draw(factor_products))


@props
@given(reduced_ratfuns(), reduced_ratfuns(), st.sampled_from(["any", "same_den", "complement", "negation"]),
       st.integers(-3, 3))
def test_ratfun_arithmetic_matches_the_unreduced_construction(a, c, mode, k):
    if mode == "same_den":
        c = RatFun(c.num, a.den)
    elif mode == "complement":
        # a + c = the old c, with most of a's denominator cancelling
        c = RatFun(c.num * a.den - a.num * c.den, c.den * a.den)
    elif mode == "negation":
        c = -a
    n1, d1, n2, d2 = a.num, a.den, c.num, c.den
    cases = [
        (a * c, RatFun(n1 * n2, d1 * d2)),
        (a + c, RatFun(n1 * d2 + n2 * d1, d1 * d2)),
        (a - c, RatFun(n1 * d2 - n2 * d1, d1 * d2)),
    ]
    if c:
        cases.append((a / c, RatFun(n1 * d2, d1 * n2)))
    if k >= 0:
        cases.append((a ** k, RatFun(n1 ** k, d1 ** k)))
    elif a:
        cases.append((a ** k, RatFun(d1 ** -k, n1 ** -k)))
    for got, ref in cases:
        check_canonical(got.num)
        check_canonical(got.den)
        assert (got.num, got.den) == (ref.num, ref.den)


@props
@given(coeff_lists, nonzero_rationals, nonzero_lists)
def test_equal_polynomials_compare_and_hash_equal(a, c, b):
    p = Poly(a)
    same = [
        Poly([Fraction(v) for v in a] + [0, 0]),
        Poly(a[:1]) + Poly.x() * Poly(a[1:]),
        (p * c) * (1 / c),
        -(-p),
        p + Poly.zero(),
        (p + Poly(b)) - Poly(b),
        (p * Poly(b)).exact_div(Poly(b)),
        Poly(as_list(p.shift_arg(c))).shift_arg(-c),
        sum((Poly.monomial(v, i) for i, v in enumerate(a)), Poly.zero()),
    ]
    if a and all(v.denominator == 1 for v in a):
        same.append(Poly([int(v) for v in a]))
    for q in same:
        check_canonical(q)
        assert q == p
        assert hash(q) == hash(p)


wide_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-40, 40), st.integers(-(2**90), 2**90)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**60), st.sampled_from([2**40, 3 * 2**37, 5**20])),
)


@props
@given(
    st.lists(st.one_of(st.just(Fraction(0)), wide_rationals), max_size=6).map(ref_trim),
    st.lists(wide_rationals, min_size=1, max_size=5).map(ref_trim).filter(bool),
)
def test_coeff_bits_matches_fraction_definition(num, den):
    # the parser's cap reads content and integer part; this is its meaning
    f = RatFun(Poly(num), Poly(den))
    coeffs = f.num.coeffs + f.den.coeffs
    assert _coeff_bits(f) == max(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)


@props
@given(
    st.lists(st.one_of(st.just(Fraction(0)), wide_rationals), max_size=6).map(ref_trim),
    st.lists(wide_rationals, min_size=1, max_size=5).map(ref_trim).filter(bool),
    st.integers(0, 200),
)
def test_coefficient_bits_above_is_first_size_above_cap(num, den, cap):
    # the bit-length prefilter may only skip polynomials with no size above cap
    f = RatFun(Poly(num), Poly(den))
    sizes = [c.numerator.bit_length() + c.denominator.bit_length() for c in f.num.coeffs + f.den.coeffs]
    assert coefficient_bits_above(cap, f.num, f.den) == next((s for s in sizes if s > cap), None)


# contents far from 1: negative, and hundreds of bits in numerator and
# denominator, so every content operation has cross gcds to cancel
big_contents = st.builds(
    Fraction,
    st.one_of(st.integers(-(2**300), -1), st.integers(1, 2**300)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**300)),
)
scaled_lists = st.tuples(coeff_lists, big_contents).map(lambda t: [c * t[1] for c in t[0]])
scaled_nonzero_lists = scaled_lists.filter(bool)


@props
@given(scaled_lists, scaled_nonzero_lists, nonzero_lists, st.integers(-5, 5), big_contents)
def test_kernels_with_wide_contents_match_the_reference(a, b, common, k, c):
    pa, pb = Poly(a), Poly(b)
    ab = ref_mul(a, ref_mul(b, common))
    q, r = pa.divmod(pb)
    g, ca, cb = _gcd_cofactors(Poly(ab), pb)
    cases = [
        (pa + pb, ref_add(a, b)),
        (pa - pb, ref_add(a, ref_neg(b))),
        (pa * pb, ref_mul(a, b)),
        (pa * c, [v * c for v in a]),
        # zero to the power 0 is one, as for any base
        (pa ** abs(k), ref_pow(a, abs(k))),
        (q, ref_divmod(a, b)[0]),
        (r, ref_divmod(a, b)[1]),
        (Poly(ab).exact_div(pb), ref_mul(a, common) if a else []),
        (pa.derivative(), ref_derivative(a)),
        (pa.shift_arg(k), ref_compose_linear(a, 1, k)),
        (pa.shift_arg(c), ref_compose_linear(a, 1, c)),
        (pa.scale_arg(c), ref_compose_linear(a, c, 0)),
        (pa.monic(), ref_monic(a)),
        # a zero or constant operand runs no gcd
        (g, ref_gcd(ab, b) if len(ab) > 1 and len(b) > 1 else [1]),
        (ca, ref_divmod(ab, as_list(g))[0]),
        (cb, ref_divmod(b, as_list(g))[0]),
    ]
    for got, ref in cases:
        check_canonical(got)
        assert as_list(got) == ref
    # RatFun normalisation makes the denominator monic whatever its content
    f = RatFun(pa, pb)
    check_canonical(f.num)
    check_canonical(f.den)
    assert f.den.lc() == 1
    assert f.num * pb == pa * f.den


# the parser's integer coefficient lists: zeros inside and at the top
int_lists = st.lists(st.one_of(st.just(0), st.integers(-(2**70), 2**70)), max_size=7)


@props
@given(int_lists, int_lists, int_lists.filter(any))
def test_integer_list_kernels_match_the_reference(a, b, d):
    assert int_poly_mul(ref_trim(a), ref_trim(b)) == ref_mul(a, b)
    assert int_poly_add(a, b) == ref_add(a, b)
    for n in range(4):
        assert int_poly_pow(ref_trim(a), n) == ref_pow(a, n)
    f = ratfun_from_ints(a, d)
    check_canonical(f.num)
    check_canonical(f.den)
    assert f == RatFun(Poly(a), Poly(d))
    n, m = ratfun_ints(f)
    assert ref_mul(as_list(f.num), m) == ref_mul(n, as_list(f.den))
    assert ratfun_from_ints(n, m) == f


def _count_fractions(monkeypatch):
    """Patch every way the stdlib builds a Fraction to count the builds."""
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            built.append(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return built


def test_kernels_build_no_fraction(monkeypatch):
    # contents -3/7 and (2^200+1)/3^90 share no factor with the operands'
    # integer parts, so every content operation does real work
    big = Fraction(2**200 + 1, 3**90)
    p = Poly([Fraction(-3, 7), Fraction(6, 7), Fraction(-9, 7)]) * Poly([1, 1])
    q = Poly([Fraction(2, 5), Fraction(-1, 3), 1]) * Poly([1, 1]) * big
    d = Poly([Fraction(3, 4), Fraction(-5, 6)])
    f, h = RatFun(q, p), RatFun(d, Poly([1, -2, 1]) * big)
    built = _count_fractions(monkeypatch)
    Fraction(1, 2)  # the counter sees a direct construction
    assert len(built) == 1
    built.clear()
    for op in (
        lambda: p + q,
        lambda: p - q,
        lambda: p * q,
        lambda: (p * q).divmod(d),
        lambda: (p * q).exact_div(q),
        lambda: q.derivative(),
        lambda: q.shift_arg(3),
        lambda: q.shift_arg(-2),
        lambda: q.monic(),
        lambda: _gcd_cofactors(p, q),
        lambda: _gcd_cofactors(Poly([2**40, 1]) * p, Poly([2**40, 1]) * q),  # lifted over two primes
        lambda: f + h,
        lambda: f * h,
        lambda: f / h,
        lambda: RatFun(p, q),
    ):
        op()
        assert built == [], op
