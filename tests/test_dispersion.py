"""Dispersion, polar dispersion, standardness, and the two standard-form
decompositions with their exact certificates."""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Q2,
    Q14,
    QM3,
    SHIFT,
    pp,
    rand_orbit_factor,
    rand_poly,
    rf,
    run_positive_pdisp_suite,
    run_standard_roundtrip_suite,
)
from diffalg import (
    Rat,
    RatFun,
    ZeroInputError,
    additive_standard_decomp,
    cli,
    dispersion,
    is_standard,
    multiplicative_standard_form,
    polar_dispersion,
    q_structure,
)
from diffalg.dispersion import (
    _SCAN_LIMIT,
    _gap_window,
    _scan_images,
    _orbit_primary_part,
    orbit_gaps,
    orbit_gaps_between,
    radical,
)
from diffalg.numcore import GF_PRIME, Poly, poly_gcd, root_magnitude_bound
from oracle import sigma_orbits, to_sympy
from test_golden import QUERIES, run_one

# the package exports the function ``dispersion`` under the module's name
dispersion_module = importlib.import_module("diffalg.dispersion")


class TestDispersion:
    def test_shift_integer_gap(self):
        assert dispersion(SHIFT, pp("x*(x+3)")) == 3

    def test_complex_roots_no_factoring(self):
        # roots differ by 2i; the gap scan reports 0 without factoring
        assert dispersion(SHIFT, pp("x^2+1")) == 0

    def test_q_power_gap(self):
        assert dispersion(Q2, pp("(x-1)*(x-4)")) == 2

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroInputError):
            dispersion(SHIFT, Poly.zero())

    def test_q_ignores_zero_roots(self):
        # 0 and 4 are roots but only nonzero orbit pairs count
        assert dispersion(Q2, pp("x^3*(x-4)")) == 0
        assert dispersion(Q2, pp("x*(x-1)*(x-2)")) == 1

    def test_negative_q(self):
        qm2 = q_structure(-2)
        assert dispersion(qm2, pp("(x-1)*(x+2)")) == 1
        assert dispersion(qm2, pp("(x-1)*(x-4)")) == 2

    def test_gap_lower_bound_property(self):
        rng = random.Random(51)
        for k in range(1, 6):
            for _ in range(12):
                q = rand_poly(rng, 3, nonzero=True)
                if q.degree == 0:
                    continue
                assert dispersion(SHIFT, q * q.shift_arg(k)) >= k

    def test_gap_lower_bound_property_q(self):
        rng = random.Random(53)
        for k in range(1, 6):
            for _ in range(12):
                q = rand_poly(rng, 3, nonzero=True)
                if q.degree == 0 or q.valuation() > 0:
                    continue
                scaled = q.scale_arg(Q2.q ** k)
                assert dispersion(Q2, q * scaled) >= k

    def test_many_roots_of_unity(self):
        # the gcd of the 2-gap lifts its mod-p image; the PRS on these
        # inputs took seconds
        p = pp("x^256 - 1")
        assert poly_gcd(p, p.shift_arg(2)) == pp("x + 1")
        assert dispersion(SHIFT, p) == 2

    def test_huge_root_bound_falls_back_to_resultant(self):
        # gap 10^6: the direct scan is capped, the integer roots of the root
        # differences must still find it
        p = pp("x*(x-1000000)")
        assert dispersion(SHIFT, p) == 1000000


def _root_difference_route(a: Poly, b: Poly | None = None) -> bool:
    """The shift gap scan of a against b (the radical of a against itself
    when b is left out) reads the integer roots of the root differences,
    not the direct scan."""
    if b is None:
        a = b = radical(a)
    return _gap_window(SHIFT, a, b) > _SCAN_LIMIT


def _product(factors) -> Poly:
    out = Poly.one()
    for f in factors:
        out = out * f
    return out


# factors to plant shifts of: linear, quadratic (real, double or complex
# roots) and clusters of 2-4 roots less than 1 apart, real or complex
_linear = st.builds(lambda n, d: Poly([-Fraction(n, d), 1]), st.integers(-4, 4), st.integers(1, 3))
_quadratic = st.builds(lambda c0, c1: Poly([c0, c1, 1]), st.integers(-5, 5), st.integers(-5, 5))


def _cluster_factor(r: int, m: int, k: int, real: bool) -> Poly:
    if real:
        return _product(Poly([-r - Fraction(j, m), 1]) for j in range(k))
    return Poly([r * r + Fraction(1, m), -2 * r, 1])  # roots r +- i/sqrt(m)


_cluster = st.builds(
    _cluster_factor,
    st.integers(-3, 3),
    st.integers(2, 5),
    st.integers(2, 4),
    st.booleans(),
)
_planted = st.lists(st.tuples(st.integers(0, 2), st.integers(-6, 6)), min_size=1, max_size=3)


class TestShiftGapsAgainstSympy:
    """Shift-case gaps against sympy's factor-based dispersion (Man and
    Wright, ISSAC 1994), which shares no code with diffalg's gcd and
    root-difference scans."""

    @staticmethod
    def _check(p: Poly):
        theirs = to_sympy(p)
        from sympy.polys.dispersion import dispersion as sympy_dispersion, dispersionset

        assert orbit_gaps(SHIFT, p) == sorted(dispersionset(theirs) - {0}), p
        assert dispersion(SHIFT, p) == sympy_dispersion(theirs), p

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.one_of(_linear, _quadratic, _cluster), min_size=1, max_size=3),
        _planted,
        _planted,
        st.sampled_from([0, 0, -30, 30]),
    )
    def test_gaps_between_two_polynomials(self, bases, picks_a, picks_b, offset):
        # a and b are products of integer shifts of shared factors, so gaps
        # are planted; offset 30 puts every root of a left of the roots of b
        # (no positive gap), offset -30 puts them right (gaps near 30)
        a, b = (_product(bases[i % len(bases)].shift_arg(h) for i, h in picks) for picks in (picks_a, picks_b))
        a = a.shift_arg(offset)
        theirs_a, theirs_b = to_sympy(a), to_sympy(b)
        from sympy.polys.dispersion import dispersionset

        expected = sorted(dispersionset(theirs_b, theirs_a) - {0})
        assert orbit_gaps_between(SHIFT, a, b) == expected, (a, b)

    def test_gaps_past_the_scan_limit_between_two_polynomials(self):
        # a carries shifts of factors of b planted 1500-3000 steps to the
        # right, so the window passes _SCAN_LIMIT and the gaps come from the
        # integer roots of the root differences; unplanted factors of b and
        # a factor of a with no partner make the degrees unequal
        bases = [pp(t) for t in ("x", "2*x + 1", "x^2 + 1", "x^2 - 2", "x^2 + x + 1", "x^3 - 2")]
        from sympy.polys.dispersion import dispersionset

        rng = random.Random(2203)
        for _ in range(10):
            a, b = pp("x^2 + 3"), rng.choice(bases[:2] + bases[5:]).shift_arg(rng.randint(-6, 6))
            for _ in range(rng.randint(1, 2)):
                f, k, h = rng.choice(bases), rng.randint(-6, 6), rng.randint(1500, 3000)
                a, b = a * f.shift_arg(-k - h), b * f.shift_arg(-k)
            assert a.degree != b.degree and _root_difference_route(a, b)
            expected = sorted(dispersionset(to_sympy(b), to_sympy(a)) - {0})
            assert max(expected) >= 1500
            assert orbit_gaps_between(SHIFT, a, b) == expected, (a, b)

    def test_window_is_sharp(self):
        # roots +-i*sqrt(k), k <= 30: no positive real difference, yet the
        # Fujiwara bound about the centroid alone gives a window of 91
        p = _product(pp(f"x^2 + {k}") for k in range(1, 31))
        assert _gap_window(SHIFT, p, p) <= 24
        # every root of a left of every root of b: nothing to scan
        a = _product(pp(f"x + {k}") for k in range(20, 28))
        b = _product(pp(f"x^2 - {k}") for k in range(1, 5)) * pp("x - 1")
        assert _gap_window(SHIFT, a, b) < 1
        assert orbit_gaps_between(SHIFT, a, b) == []

    @pytest.mark.parametrize("r", [1, 2, -1, 3, -5, 7, Fraction(1, 2), Fraction(5, 3)], ids=str)
    def test_window_of_two_linear_factors(self, r):
        # w = (x + r)(x + r + h): the window is never below the gap h, at
        # most h + 2, and exactly h when the centroid -r - h/2 is an integer,
        # so the gap sits at the window's last step
        for h in range(1, 13):
            w = Poly([r, 1]) * Poly([r + h, 1])
            window = _gap_window(SHIFT, w, w)
            assert h <= window <= h + 2, (r, h, window)
            if Fraction(r).denominator == 1 and h % 2 == 0:
                assert window == h, (r, h)
            assert orbit_gaps(SHIFT, w) == [h]

    # the last one is an off-centre cluster whose roots +-i keep the window
    # about the centroid wide
    @pytest.mark.parametrize(
        "text", ["x^2 - 10^40", "x^4 - 10^20", "(x^2 - 10^12)*(x - 3)", "(x-5000)*(x-5003)*(x^2+1)"]
    )
    def test_large_roots(self, text):
        p = pp(text)
        assert _root_difference_route(p)
        self._check(p)

    @pytest.mark.parametrize(
        "text", ["(2*x+9001)*(2*x+9007)", "(x-5000)*(x-5003)*((x-5000)^2+1)", "(x+3000)^2*(x+3004)*(x+2999)"]
    )
    def test_off_centre_clusters_scan_directly(self, text):
        # roots far from 0 but close together: the bound about 0 would take
        # the root-difference route, the window about the centroid scans
        # directly
        p = pp(text)
        assert 2 * root_magnitude_bound(radical(p)) > _SCAN_LIMIT
        assert not _root_difference_route(p)
        self._check(p)

    def test_seeded_products_of_shifted_factors(self):
        # linear and irreducible factors, shifted by small integers and, in
        # about one input of three, by one shift past the direct-scan limit
        bases = [pp(t) for t in ("x", "2*x + 1", "x^2 + 1", "x^2 - 2", "x^2 + x + 1", "x^3 - 2")]
        rng = random.Random(1107)
        routes = set()
        for _ in range(40):
            large = rng.random() < 0.35
            p = Poly.one()
            for k in range(rng.randint(2, 2 if large else 4)):
                base = rng.choice(bases[:2] if large else bases)
                shift = rng.randint(600, 3000) if large and k == 0 else rng.randint(-6, 6)
                p = p * base.shift_arg(shift) ** rng.choice([1, 1, 2])
            routes.add(_root_difference_route(p))
            self._check(p)
        assert routes == {False, True}


class TestQGapsAgainstSympy:
    """q-case gaps against exact gcds that sympy computes h by h over a
    window wider than any planted gap; sympy shares no code with the mod-p
    filter or the root bounds of the scan."""

    # prime to x, with roots of magnitude between 1/2 and 2
    _bases = ("x - 1", "2*x + 1", "x^2 + 1", "x^2 - 3", "3*x^2 + x + 2", "x^3 - 2")

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 4), Fraction(-3), Fraction(3, 2)], ids=str)
    def test_planted_orbits(self, q):
        # a carries f(q^k x) and b carries f(q^(k+g) x), so g is a planted
        # gap; g above 31 outruns the order of 2 and 4 modulo a Mersenne prime
        ds = q_structure(q)
        bases = [pp(t) for t in self._bases]
        rng = random.Random(4409)
        planted = set()
        for _ in range(6):
            a, b = rng.choice(bases), rng.choice(bases).scale_arg(q ** rng.randint(0, 3))
            for _ in range(rng.randint(1, 2)):
                f, k, g = rng.choice(bases), rng.randint(0, 3), rng.choice([1, 2, 33, 37])
                a, b = a * f.scale_arg(q ** k), b * f.scale_arg(q ** (k + g))
                planted.add(g)
            # exponents reach 3 + 37 and every root ratio of two bases is
            # below |q|^4, so no gap lies past 44
            theirs_b = to_sympy(b)
            expected = [h for h in range(1, 60) if theirs_b.gcd(to_sympy(a.scale_arg(q ** h))).degree() > 0]
            assert orbit_gaps_between(ds, a, b) == expected, (q, a, b)
        assert max(planted) > 31

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 4)], ids=str)
    def test_only_hits_reach_an_exact_gcd(self, monkeypatch, q):
        # the cube roots of 3 and of 3*2^700 lie 2^(700/3) apart, no power
        # of q: the window holds over a hundred gaps and none is a hit, so
        # the mod-p filter must reject every one of them
        ds = q_structure(q)
        p = pp(f"(x^3-3)*(x^3-{3 * 2**700})*(x^2+5)")
        w = radical(p)
        assert _gap_window(ds, w, w) > 3 * 31
        exact = []
        real = dispersion_module.poly_gcd

        def counted(u, v):
            exact.append((u, v))
            return real(u, v)

        monkeypatch.setattr(dispersion_module, "poly_gcd", counted)
        assert orbit_gaps(ds, p) == []
        assert exact == []


class TestScanPrime:
    """The modulus of the gap scans and the q-power filter: the first safe
    prime below 2^15 with unit leading coefficients and, in the q case, a
    unit q other than +-1."""

    def test_first_safe_prime(self):
        prime, images, qmod = _scan_images(Q2, pp("x^2 + 1"), pp("3*x - 1"))
        assert (prime, images, qmod) == (GF_PRIME, [[1, 0, 1], [GF_PRIME - 1, 3]], 2)

    def test_leading_coefficient_divisible_by_the_first_prime(self):
        w = Poly([1, 0, GF_PRIME])
        assert _scan_images(SHIFT, w)[0] == 32507
        assert _scan_images(SHIFT, Poly([1, 0, GF_PRIME * 32507]))[0] == 32183

    @pytest.mark.parametrize(
        "q", [Fraction(1032603, 1000000), Fraction(-1, GF_PRIME - 1), Fraction(GF_PRIME, 2)], ids=str
    )
    def test_q_of_order_one_or_two_or_no_unit(self, q):
        prime, _, qmod = _scan_images(q_structure(q), pp("x - 1"))
        assert prime == 32507 and qmod not in (1, prime - 1)

    def test_q_congruent_to_one_reaches_only_the_hits(self, monkeypatch):
        # q = 1 mod GF_PRIME repeats the image of a at every step of a
        # window of over 200; the scan takes the next safe prime, where the
        # one planted gap, 7 and 7*q^3, and two images that share a root
        # only mod the prime pay for an exact gcd
        q = Fraction(1032603, 1000000)
        ds = q_structure(q)
        p = _product(pp(f"x - {k}") for k in (1, 3, 11, 29, 70, 141, 260, 433, 650, 1000, 7)) * Poly([-7 * q**3, 1])
        assert _gap_window(ds, radical(p), radical(p)) > 200
        exact = []
        real = dispersion_module.poly_gcd

        def counted(u, v):
            exact.append((u, v))
            return real(u, v)

        monkeypatch.setattr(dispersion_module, "poly_gcd", counted)
        assert orbit_gaps(ds, p) == [3]
        assert len(exact) == 3


class TestPolarDispersion:
    def test_single_pole(self):
        assert polar_dispersion(SHIFT, rf("1/x")) == 0

    def test_two_poles_gap_two(self):
        assert polar_dispersion(SHIFT, rf("1/x + 1/(x+2)")) == 2

    def test_q_case(self):
        assert polar_dispersion(Q2, rf("1/((x-1)*(x-2))")) == 1

    def test_polynomials_have_zero(self):
        assert polar_dispersion(SHIFT, rf("x^5 - 3")) == 0


class TestIsStandard:
    def test_x_is_standard(self):
        assert is_standard(SHIFT, rf("x"))

    def test_zero_pole_gap(self):
        assert not is_standard(SHIFT, rf("(x+1)/x"))

    def test_q_single_root(self):
        assert is_standard(Q2, rf("x-1"))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            is_standard(SHIFT, RatFun.zero())

    def test_mixed_zero_pole_orbit_q(self):
        assert not is_standard(Q2, rf("(x-2)/(x-1)"))


class TestAdditiveDecomp:
    def test_already_standard(self):
        d = additive_standard_decomp(SHIFT, rf("1/(x+1)"), 1)
        assert d.standard_part == rf("1/(x+1)")
        assert d.certificate_g == RatFun.zero()

    def test_pure_telescoping(self):
        d = additive_standard_decomp(SHIFT, rf("1/x - 1/(x+1)"), 1)
        assert d.standard_part == RatFun.zero()
        assert d.certificate_g == rf("-1/x")

    def test_merged_orbit(self):
        d = additive_standard_decomp(SHIFT, rf("1/x + 1/(x+2)"), 1)
        assert d.standard_part == rf("2/x")
        assert d.certificate_g == rf("1/x + 1/(x+1)")

    def test_polynomial_part_untouched(self):
        f = rf("x^3 + 1/x + 1/(x+1)")
        d = additive_standard_decomp(SHIFT, f, 2)
        poly_part, _ = d.standard_part.poly_part()
        assert poly_part == pp("x^3")
        assert d.reconstruct() == f

    def test_q_laurent_part_untouched(self):
        f = rf("1/x^2 + x + 1/((x-1)*(x-2))")
        d = additive_standard_decomp(Q2, f, 3)
        assert d.reconstruct() == f
        assert polar_dispersion(Q2, d.standard_part) == 0
        # the pole block at 0 must survive in the standard part
        assert d.standard_part.den.valuation() == 2

    def test_nontrivial_twist(self):
        f = rf("1/x + 1/(x+1)")
        d = additive_standard_decomp(SHIFT, f, 3)
        assert d.reconstruct() == f
        assert polar_dispersion(SHIFT, d.standard_part) == 0

    def test_zero_twist_rejected(self):
        from diffalg import PreconditionError

        with pytest.raises(PreconditionError):
            additive_standard_decomp(SHIFT, rf("1/x"), 0)


class TestMultiplicativeForm:
    def test_already_standard(self):
        m = multiplicative_standard_form(SHIFT, rf("x"))
        assert m.standard_part == rf("x")
        assert m.certificate_g == RatFun.one()

    def test_sigma_ratio(self):
        m = multiplicative_standard_form(SHIFT, rf("(x+1)/x"))
        assert m.standard_part == RatFun.one()
        assert m.certificate_g == rf("x")

    def test_q_case(self):
        m = multiplicative_standard_form(Q2, rf("2*x*(2*x-1)/(x-1)"))
        assert m.standard_part == rf("2*x")
        assert m.certificate_g == rf("x-1")

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            multiplicative_standard_form(SHIFT, RatFun.zero())

    def test_multiplicity_layers(self):
        f = rf("(x+2)^2/(x*(x+1)^3)")
        m = multiplicative_standard_form(SHIFT, f)
        assert m.reconstruct() == f
        assert is_standard(SHIFT, m.standard_part)


# pairwise coprime irreducible factors over Q
_PRIMES = [pp(t) for t in ("x", "x - 1", "x + 2", "2*x - 3", "x^2 + 1", "x^2 - 2", "x^2 + x + 5", "x^3 - 3")]


@st.composite
def _primary_part_inputs(draw):
    """(q, w): q a scaled product of 0-4 factors of multiplicity 1-4, and w
    sharing none, some or all of them, times 0-2 factors q lacks."""
    order = draw(st.permutations(range(len(_PRIMES))))
    n = draw(st.integers(0, 4))
    q = Poly.const(draw(st.sampled_from([1, Fraction(-3, 7), 5])))
    for i in order[:n]:
        q = q * _PRIMES[i] ** draw(st.integers(1, 4))
    shared = draw(st.integers(0, n))
    w = Poly.const(draw(st.sampled_from([1, Fraction(2, 9)])))
    for i in order[:shared] + order[n : n + draw(st.integers(0, 2))]:
        w = w * _PRIMES[i]
    return q, w


class TestOrbitPrimaryPart:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_primary_part_inputs())
    def test_strips_shared_roots_at_full_multiplicity(self, inputs):
        q, w = inputs
        d1 = _orbit_primary_part(q, w)
        rest, remainder = q.divmod(d1)
        assert remainder.is_zero(), (q, w, d1)
        assert poly_gcd(rest, w).degree == 0, (q, w, d1)
        assert w % radical(d1) == Poly.zero(), (q, w, d1)


class TestOneGapScan:
    """Each standard form walks the gaps of one scan, largest first; the
    final verification scans once more."""

    @pytest.mark.parametrize(
        "ds, text, form",
        [
            (SHIFT, "1/x + 1/(x+3) + 1/(x+10)", "additive"),
            (SHIFT, "(x+10)*(x+3)/(x*(x+1)*(x+7))", "multiplicative"),
            (Q2, "1/(x-1) + 1/(x-8) + 1/(x-64)", "additive"),
            (Q2, "(x-64)/((x-1)*(x-8))", "multiplicative"),
        ],
    )
    def test_two_scans(self, monkeypatch, ds, text, form):
        calls = []
        scan = dispersion_module.orbit_gaps

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(dispersion_module, "orbit_gaps", counted)
        f = rf(text)
        if form == "additive":
            result = additive_standard_decomp(ds, f, 1)
        else:
            result = multiplicative_standard_form(ds, f)
        assert result.reconstruct() == f
        assert len(calls) == 2


def _orbit_inputs(ds, seed: int, count: int):
    """``count`` triples (product, total, a): a product of 3-5 shifted bases
    to the powers +-1 and +-2, times a power of x in the q case, a sum of
    constants over powers of 3-5 shifted bases plus a power of x, and a
    twist a.  Their zeros and poles share orbits, so most of them are not
    standard."""
    rng = random.Random(seed)
    for _ in range(count):
        product = RatFun.const(rng.choice([1, -2, Rat(1, 3)]))
        if not ds.is_shift:
            product = product * RatFun.x() ** rng.randint(-2, 2)
        total = RatFun.x() ** rng.randint(0, 2)
        for _ in range(rng.randint(3, 5)):
            product = product * rand_orbit_factor(rng, ds) ** rng.choice([1, 2, -1, -2])
            c = RatFun.const(rng.choice([1, -3, Rat(1, 2)]))
            total = total + c / rand_orbit_factor(rng, ds) ** rng.randint(1, 2)
        yield product, total, rng.choice([1, 2, -1, Rat(1, 2)])


class TestStandardPartOrbits:
    """No two monic irreducible factors of a standard part share a
    sigma-orbit, by ``oracle.sigma_orbits`` on sympy's factors: its zeros
    and poles together for the multiplicative form, its poles for the
    additive one, x left out in the q case."""

    @staticmethod
    def _one_factor_per_orbit(ds, *polys) -> bool:
        return all(len(orbit) == 1 for orbit in sigma_orbits(ds, *polys))

    @pytest.mark.parametrize(
        "line", [l for l in QUERIES if l["subcommand"] in ("mult-form", "standard-form") and l["f"] != "0"]
    )
    def test_golden_reports(self, line):
        report, _ = run_one(line)
        part = rf(report["certificate"]["standard_part"])
        polys = (part.num, part.den) if line["subcommand"] == "mult-form" else (part.den,)
        assert self._one_factor_per_orbit(cli.query_from_dict(line).structure, *polys)

    @pytest.mark.parametrize(
        "ds, seed", [(SHIFT, 461), (Q2, 463), (Q14, 467), (QM3, 479)], ids=["shift", "q2", "q1/4", "q-3"]
    )
    def test_planted(self, ds, seed):
        merged = 0
        for product, total, a in _orbit_inputs(ds, seed, 40):
            merged += not self._one_factor_per_orbit(ds, product.num, product.den)
            merged += not self._one_factor_per_orbit(ds, total.den)
            part = multiplicative_standard_form(ds, product).standard_part
            assert self._one_factor_per_orbit(ds, part.num, part.den), product
            part = additive_standard_decomp(ds, total, a).standard_part
            assert self._one_factor_per_orbit(ds, part.den), (total, a)
        assert merged >= 40, merged


class TestRandomSuites:
    def test_positive_pdisp_shift(self):
        assert run_positive_pdisp_suite(SHIFT, 60, seed=101) == 60

    def test_positive_pdisp_q(self):
        assert run_positive_pdisp_suite(Q2, 60, seed=103) == 60

    def test_roundtrip_shift(self):
        assert run_standard_roundtrip_suite(SHIFT, 60, seed=107) == 60

    def test_roundtrip_q(self):
        assert run_standard_roundtrip_suite(Q2, 60, seed=109) == 60

    def test_roundtrip_fractional_q(self):
        assert run_standard_roundtrip_suite(Q14, 40, seed=113) == 40

    def test_roundtrip_negative_q(self):
        assert run_standard_roundtrip_suite(QM3, 40, seed=127) == 40
