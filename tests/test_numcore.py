"""Exact-arithmetic core: gcd, root differences, roots, partial split, the
q magnitude window and its cap; gcd, root differences (against sympy's
resultant) and integer roots are cross-checked against sympy.

Tier-1 runs the integer-roots comparison with sympy on a small derandomized
sample; a long run loads the ``integer-roots`` profile registered in
conftest.py:

    python -m pytest tests/test_numcore.py -k against_ground_roots --hypothesis-profile=integer-roots
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pp, rand_poly, rf
from diffalg import (
    BoundExceededError,
    Poly,
    Rat,
    RatFun,
    PreconditionError,
    partial_split,
    poly_gcd,
)
from diffalg.numcore import (
    GF_PRIME,
    Q_WINDOW_CAP,
    _iroot_ceil,
    _lift_primes,
    _magnitude_bound,
    integer_roots,
    poly_lcm,
    poly_xgcd,
    q_window,
    reciprocal_root_bound,
    root_differences,
    root_disc,
    root_magnitude_bound,
)
from oracle import to_sympy


class TestPolyBasics:
    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree == -1
        assert Poly([0, 0, 0]).degree == -1
        assert pp("x^3").degree == 3

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_poly(rng, 6)
            b = rand_poly(rng, 4, nonzero=True)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_compose_linear(self):
        p = pp("x^2 - 3*x + 2")
        assert p.shift_arg(1) == pp("(x+1)^2 - 3*(x+1) + 2")
        assert p.scale_arg(Rat(1, 2)) == pp("x^2/4 - 3*x/2 + 2")


class TestGcd:
    def test_shared_root(self):
        assert poly_gcd(pp("x^2-1"), pp("x-1")) == pp("x-1")

    def test_coprime(self):
        assert poly_gcd(pp("x"), pp("x+1")) == Poly.one()

    def test_euclid_by_hand(self):
        # gcd(2x^2+2x, 4x): 2x^2+2x = (x/2 + 1/2)*4x + 0, so gcd is x monic
        assert poly_gcd(pp("2*x^2 + 2*x"), pp("4*x")) == pp("x")

    def test_zero_zero(self):
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()

    def test_divides_exactly(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rand_poly(rng, 5)
            q = rand_poly(rng, 5)
            g = poly_gcd(p, q)
            if g.is_zero():
                assert p.is_zero() and q.is_zero()
                continue
            if not p.is_zero():
                assert (p % g).is_zero()
                assert (p // g) * g == p
            if not q.is_zero():
                assert (q % g).is_zero()

    def test_xgcd_identity(self):
        rng = random.Random(13)
        for _ in range(60):
            p = rand_poly(rng, 5, nonzero=True)
            q = rand_poly(rng, 5, nonzero=True)
            g, s, t = poly_xgcd(p, q)
            assert s * p + t * q == g
            assert g == poly_gcd(p, q)


def _from_sympy(sp) -> Poly:
    return Poly([Rat(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())])


class TestRootDifferences:
    def test_linear(self):
        # the one root difference of x - 2 and x - 3 is 2 - 3
        assert root_differences(pp("x-2"), pp("x-3")) == pp("x+1")

    def test_leading_coefficient(self):
        # E(l*y) for l = lc(a)*lc(b) = 12 has the leading coefficient 12^(2*1),
        # and the roots +-1/2 - 1/3
        p = root_differences(pp("4*x^2 - 1"), pp("3*x - 1"))
        assert p == pp("144*(x + 5/6)*(x - 1/6)")

    def test_matches_sympy_resultant(self):
        # Res_x(b(x), a(x + y)) in y, on rational coefficients and unequal
        # degrees, leading coefficients of either sign
        sympy = pytest.importorskip("sympy")
        xs, ys = sympy.symbols("x y")
        rng = random.Random(43)

        def rational_poly(deg):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
            return Poly(coeffs + [Fraction(rng.choice([-7, -3, -1, 2, 5]), rng.randint(1, 4))])

        def to_expr(p, var):
            return sum(sympy.Rational(c.numerator, c.denominator) * var ** i for i, c in enumerate(p.coeffs))

        for _ in range(30):
            da = rng.randint(1, 4)
            a, b = rational_poly(da), rational_poly(rng.choice([d for d in range(1, 5) if d != da]))
            theirs = sympy.Poly(sympy.resultant(to_expr(b, xs), to_expr(a, xs + ys), xs), ys).monic()
            assert root_differences(a, b).monic() == _from_sympy(theirs), (a, b)


BIG = 10 ** 40


class TestIntegerRoots:
    def test_simple(self):
        assert integer_roots(pp("x*(x-3)*(x+2)")) == {0, 3, -2}

    def test_excludes_fractions(self):
        assert integer_roots(Poly([-1, -1, 2])) == {1}

    def test_repeated_roots(self):
        assert integer_roots(pp("(x-4)^3*(x+5)")) == {4, -5}

    def test_chain_with_negative_leads_and_large_coefficients(self):
        # roots of both signs 40 digits apart, a rational root that is no
        # integer, and complex roots of magnitude 10^15
        p = pp("(x - 10^40)*(x + 3)*(x^2 + 10^30)*(2*x - 7)")
        roots = to_sympy(p).ground_roots()
        assert integer_roots(p) == {int(r) for r in roots if r.is_integer} == {-3, 10 ** 40}

    @pytest.mark.parametrize(
        "text, roots",
        [
            # mod each prime below 61 every residue is a multiple root, so
            # P' vanishes there and the lifting starts from 61
            ("*".join(f"(x - {k})" for k in range(60)), set(range(60))),
            # 30030 = 2*3*5*7*11*13, so the first usable prime is 17
            ("(30030*x - 1)*(x - 5)", {5}),
            ("30030*x - 1", set()),
            # odd values at 0 and 1: no root mod 2, so nothing is lifted
            ("x^2 + x + 1", set()),
            (f"((x - {2 * BIG})^2 + (x - {2 * BIG}) + 1)*((x + {2 * BIG})^2 + (x + {2 * BIG}) + 3)", set()),
            (f"(x + {BIG})*(x - {BIG} - 7)*(x + 3)*(3*x + {BIG} + 1)*(x^2 - 2)", {-BIG, BIG + 7, -3}),
            (f"(x - {BIG})^3*(x + 2)^2*(x - 1)", {BIG, -2, 1}),
            # two simple roots mod 2: lifted over the even moduli 2^(2^k)
            ("(x - 5)*(x + 2^70)", {5, -(2 ** 70)}),
        ],
        ids=["prod-x-k-60", "lc-30030", "lc-30030-linear", "no-root-mod-2", "no-root-mod-2-huge", "huge-both-signs",
             "repeated-huge", "lift-from-2"],
    )
    def test_exact(self, text, roots):
        assert integer_roots(pp(text)) == roots

    def test_matches_rational_roots(self):
        rng = random.Random(29)
        for _ in range(60):
            p = rand_poly(rng, 6, nonzero=True)
            if p.degree == 0:
                continue
            roots = to_sympy(p).ground_roots()
            expected = {int(r) for r in roots if r.is_integer}
            assert integer_roots(p) == expected


if settings.get_current_profile_name() == "integer-roots":
    roots_settings = settings(deadline=None, database=None)
else:
    roots_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# (a*x - b, e): a leading coefficient a made of small primes pushes the
# prime l past them, and b = a*r, or a*r + 1, which no a > 1 divides
small_prime_products = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=4).map(math.prod)
planted_factors = st.tuples(
    small_prime_products,
    st.one_of(st.integers(-20, 20), st.integers(-(10**40), 10**40)),
    st.integers(0, 1),
    st.integers(1, 2),
).map(lambda t: (t[0], t[0] * t[1] + t[2], t[3]))
random_factors = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any)


@roots_settings
@given(st.lists(planted_factors, min_size=1, max_size=5), st.lists(random_factors, max_size=2))
def test_integer_roots_against_ground_roots(planted, extra):
    """Planted factors (a*x - b)^e, integer roots when a divides b, times
    small random factors: the integer roots of sympy's ``ground_roots``."""
    p = Poly.one()
    for a, b, e in planted:
        p = p * Poly([-b, a]) ** e
    for coeffs in extra:
        p = p * Poly(coeffs)
    if p.degree < 1:
        return
    expected = {int(r) for r in to_sympy(p).ground_roots() if r.is_integer}
    assert {b // a for a, b, _ in planted if b % a == 0} <= expected
    assert integer_roots(p) == expected


class TestAgainstSympy:
    def test_gcd_matches(self):
        rng = random.Random(47)
        for _ in range(80):
            common = rand_poly(rng, 2)
            p = rand_poly(rng, 4, nonzero=True) * common
            q = rand_poly(rng, 4, nonzero=True) * common
            theirs = to_sympy(p).gcd(to_sympy(q)).monic()
            assert poly_gcd(p, q) == _from_sympy(theirs)

    def test_gcd_and_lcm_match_on_large_rational_gcds(self):
        rng = random.Random(59)

        def rational_poly(deg):
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(deg)]
            return Poly(coeffs + [Fraction(rng.choice([-7, -3, -1, 2, 5]), rng.randint(1, 6))])

        negative_leads = 0
        for _ in range(40):
            common = rational_poly(rng.randint(4, 6))
            p = rational_poly(rng.randint(0, 4)) * common
            q = rational_poly(rng.randint(0, 4)) * common
            negative_leads += p.lc() < 0
            sp, sq = to_sympy(p), to_sympy(q)
            g = poly_gcd(p, q)
            assert g.degree >= 4
            assert g == _from_sympy(sp.gcd(sq).monic())
            assert poly_lcm(p, q) == _from_sympy(sp.lcm(sq).monic())
        assert 0 < negative_leads < 40

    def test_gcd_and_lcm_with_zero_arguments(self):
        rng = random.Random(61)
        zero = Poly.zero()
        for _ in range(20):
            p = rand_poly(rng, 5, nonzero=True) * Fraction(-3, 7)
            theirs = _from_sympy(to_sympy(p).gcd(to_sympy(zero)).monic())
            assert poly_gcd(p, zero) == poly_gcd(zero, p) == theirs == p.monic()
            assert poly_lcm(p, zero) == poly_lcm(zero, p) == zero
        assert poly_gcd(zero, zero) == zero
        assert poly_gcd(Poly.const(Fraction(-2, 3)), zero) == Poly.one()


class TestQWindow:
    @pytest.mark.parametrize("q", [Rat(2), Rat(1, 4), Rat(-3), Rat(3, 2)])
    def test_brackets_bound(self, q):
        base = max(abs(q), 1 / abs(q))
        rng = random.Random(59)
        bounds = [base ** k for k in range(12)] + [base ** k - Rat(1, 10 ** 9) for k in range(1, 12)]
        bounds += [Rat(rng.randint(1, 10 ** 15), rng.randint(1, 10 ** 6)) for _ in range(300)]
        for bound in bounds:
            if bound < 1:
                assert q_window(q, bound) == 0
                continue
            window = q_window(q, bound)
            assert base ** window <= bound < base ** (window + 1), (q, bound)

    def test_unit_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            q_window(Rat(-1), Rat(8))

    @pytest.mark.parametrize("q", [Rat(2), Rat(1, 4), Rat(-3), Rat(3, 2)])
    def test_exact_powers(self, q):
        base = max(abs(q), 1 / abs(q))
        for k in range(40):
            assert q_window(q, base ** k) == k
            assert q_window(q, base ** k * Rat(1001, 1000)) == k

    def test_cap(self):
        assert q_window(Rat(2), Rat(2) ** (Q_WINDOW_CAP - 1)) == Q_WINDOW_CAP - 1
        # q near 1: a window of about 6.9 million for roots 1 and 1000
        for q, bound in [(Rat(2), Rat(2) ** Q_WINDOW_CAP), (Rat(1000001, 1000000), Rat(1000))]:
            with pytest.raises(BoundExceededError):
                q_window(q, bound)


class TestIntegerRoot:
    def test_ceil_root_is_least(self):
        # the root bounds round every k-th root up through _iroot_ceil
        rng = random.Random(71)
        cases = [(n, k) for n in range(300) for k in range(1, 9)]
        for _ in range(400):
            k = rng.randint(1, 60)
            r = rng.getrandbits(rng.randint(1, 80))
            cases += [(r ** k, k), (r ** k + 1, k), (rng.getrandbits(rng.randint(1, 3000)), k)]
            if r:
                cases.append((r ** k - 1, k))
        cases.append((rng.getrandbits(48000), 2))  # 24000 steps for a bisection
        for n, k in cases:
            r = _iroot_ceil(n, k)
            assert r ** k >= n and (r == 0 or (r - 1) ** k < n), (n, k)


class TestRootBounds:
    @staticmethod
    def _polys():
        rng = random.Random(67)
        for _ in range(60):
            p = rand_poly(rng, 6, lo=-30, hi=30, nonzero=True)
            if p.degree >= 1:
                yield p
        # clusters far from 0 and wide spreads, where the centre and the
        # root-squaring matter
        yield pp("(x-5000)*(x-5003)*((x-5000)^2+1)")
        yield pp("(2*x+9001)*(2*x+9007)*(x+4500)^3")
        yield pp("x^8 - 10^12")
        yield pp("(x^2+1)*(x^2+2)*(x^2+3)*(x^2+4)*(x^2+5)")
        yield pp("(x-7)^5")

    def test_disc_holds_every_root(self):
        for p in self._polys():
            c, r = root_disc(p)
            lead, sub = p.coeffs[-1], p.coeffs[-2]
            assert abs(c + sub / (p.degree * lead)) <= Rat(1, 2), p  # c is the nearest integer
            for root in to_sympy(p).sqf_part().nroots(n=30, maxsteps=200):
                assert abs(complex(root) - c) <= r + 1e-9, (p, root, c, r)

    def test_disc_is_exact_on_one_point(self):
        assert root_disc(pp("(x-7)^5")) == (7, 0)
        assert root_disc(pp("3*x+12")) == (-4, 0)

    def test_disc_is_the_least_integer_radius_up_to_degree_two(self):
        # degrees 1 and 2 read the radius off the roots: it holds every root
        # and one less does not
        rng = random.Random(4613)
        for _ in range(300):
            p = Poly([rng.randint(-60, 60) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 12)])
            c, r = root_disc(p)
            far = max(abs(complex(root) - c) for root in to_sympy(p).nroots(n=30))
            assert far <= r + 1e-9 and (r == 0 or far > r - 1 + 1e-9), (p, c, r, far)

    def test_reciprocal_bound_is_bound_of_reversal(self):
        for p in self._polys():
            if p[0] != 0:
                assert reciprocal_root_bound(p) == root_magnitude_bound(Poly(list(reversed(p.coeffs)))), p

    def test_magnitude_bound_matches_every_root_taken(self):
        # the bound skips a k-th root that cannot raise the running maximum;
        # a reference that takes every root must agree on every input
        def reference(ints):
            n, lead = len(ints) - 1, abs(ints[-1])
            cauchy = lead + max(abs(c) for c in ints[:-1])
            roots = [_iroot_ceil(-(-abs(ints[n - k]) // lead), k) for k in range(1, n + 1) if ints[n - k]]
            fuji = 2 * max(roots, default=0) + 1
            return Rat(cauchy, lead) if cauchy <= fuji * lead else Rat(fuji)

        rng = random.Random(733)
        for _ in range(3000):
            bits = rng.choice([3, 12, 40, 200])
            low = [rng.choice([0, rng.randint(-(2**bits), 2**bits)]) for _ in range(rng.randint(1, 12))]
            lead = rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.choice([1, 8, 30]))
            ints = low + [lead]
            assert _magnitude_bound(ints) == reference(ints), ints


def test_gf_prime_is_a_safe_prime():
    # p = 2r + 1 with r prime: no q other than 0, +-1 has a short orbit mod
    # p; every residue, product and acc*q + c stays one CPython digit
    sympy = pytest.importorskip("sympy")
    assert GF_PRIME**2 + GF_PRIME < 2**30
    assert sympy.isprime(GF_PRIME) and sympy.isprime((GF_PRIME - 1) // 2)
    assert pow(2, 31, GF_PRIME) != 1 and pow(4, 31, GF_PRIME) != 1


def test_lift_primes_are_the_primes_below_2_to_the_30():
    # GF_PRIME, then the primes below 2^30 in descending order, each with
    # the product of its block of 16
    sympy = pytest.importorskip("sympy")
    pairs = list(itertools.islice(_lift_primes(), 49))
    primes = [p for p, _ in pairs]
    assert pairs[0] == (GF_PRIME, None)
    assert primes[1:] == [sympy.prevprime(2**30)] + [sympy.prevprime(p) for p in primes[1:-1]]
    for k in range(3):
        block = pairs[1 + 16 * k: 17 + 16 * k]
        assert {b for _, b in block} == {math.prod(p for p, _ in block)}


class TestPartialSplit:
    def test_hand_example(self):
        f1, f2 = partial_split(rf("1/(x*(x+1))"), pp("x"), pp("x+1"))
        assert f1 == rf("1/x")
        assert f2 == rf("-1/(x+1)")

    def test_trivial_side(self):
        f1, f2 = partial_split(rf("1/x"), pp("x"), Poly.one())
        assert f1 == rf("1/x")
        assert f2 == RatFun.zero()

    def test_substitution_check(self):
        f1, f2 = partial_split(rf("(2*x+1)/(x*(x+1))"), pp("x"), pp("x+1"))
        assert f1 == rf("1/x")
        assert f2 == rf("1/(x+1)")

    def test_sum_is_exact(self):
        rng = random.Random(41)
        for _ in range(60):
            d1 = rand_poly(rng, 2, nonzero=True)
            d2 = rand_poly(rng, 2, nonzero=True)
            if poly_gcd(d1, d2).degree > 0:
                continue
            num = rand_poly(rng, 3, nonzero=True)
            f = RatFun(num, d1 * d2)
            if f.den.monic() != (d1 * d2).monic():  # cancellation changed the frame
                continue
            f1, f2 = partial_split(f, d1, d2)
            assert f1 + f2 == f
            assert (d1 % f1.den).is_zero() or f1.is_zero()
            assert (d2 % f2.den).is_zero() or f2.is_polynomial()

    def test_precondition_violation(self):
        with pytest.raises(PreconditionError):
            partial_split(rf("1/(x*(x+1))"), pp("x"), pp("x+2"))
        with pytest.raises(PreconditionError):
            partial_split(rf("1/(x^2*(x+1))"), pp("x"), pp("x*(x+1)"))


class TestLcm:
    def test_lcm_divisibility(self):
        rng = random.Random(43)
        for _ in range(40):
            p = rand_poly(rng, 4, nonzero=True)
            q = rand_poly(rng, 4, nonzero=True)
            m = poly_lcm(p, q)
            assert (m % p).is_zero() and (m % q).is_zero()
            assert m.degree == p.degree + q.degree - poly_gcd(p, q).degree
