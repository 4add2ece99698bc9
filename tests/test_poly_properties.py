"""Property tests for ``Poly`` (content times primitive integer part) against
a plain reference on lists of ``Fraction`` coefficients, plus the canonical
form: primitive part, positive leading entry, and ``==``/``hash`` agreeing
for equal polynomials built different ways."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import Poly, Rat, RatFun, poly_gcd
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
    ints, content = p._ints, p._content
    if not ints:
        assert p.degree == -1 and content == 1
        return
    assert all(type(v) is int for v in ints)
    assert math.gcd(*ints) == 1
    assert ints[-1] > 0
    assert content != 0
    assert p.coeffs == tuple(content * v for v in ints)
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
