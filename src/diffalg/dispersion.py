"""Dispersion analysis and standard-form decompositions.

The dispersion of a polynomial is the largest nonnegative integer L such
that two of its roots differ by L (shift case) or by a factor q^L (q case,
nonzero roots only).  A rational function is *standard* when the combined
zero/pole set has dispersion 0.  The two decomposition routines below push
every pole (resp. zero/pole) orbit onto a single representative position,
producing

    f = standard_part + sigma(g) - a*g          (additive, constant twist a)
    f = standard_part * sigma(g)/g              (multiplicative)

with exact certificates.  Everything is factorization-free: orbits are
detected through gcds of shifted polynomials over a window of candidate
gaps.  A shift gap h = alpha - beta between a root alpha of a and a root
beta of b is scanned over 1..c_a - c_b + r_a + r_b, for discs |alpha - c| <= r
about integer centres (``numcore.root_disc``), so the window is one-sided
and empty when the roots of a lie left of those of b; past ``_SCAN_LIMIT``
the integer roots of an interpolated resultant replace the scan.

The q-case scans all live here and share one root-magnitude window: the
orbit gaps between polynomials prime to x (``_q_gap_candidates``), the
integers v with p(q^v) = 0 (``q_power_roots``, which the solver's valuation
and degree bounds read) and the exponent v of a constant q^v
(``q_power_log``).
The power of x itself, which x -> q*x fixes, is split off by
``structures.split_x_power`` before any scan.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalVerificationError, PreconditionError, ZeroInputError
from .numcore import (
    GF_PRIME,
    Poly,
    Rat,
    RatFun,
    gf_coeffs,
    gf_gcd_degree,
    integer_roots,
    partial_split,
    poly_gcd,
    poly_resultant,
    q_window,
    radical,
    reciprocal_root_bound,
    root_disc,
    root_magnitude_bound,
    squarefree_decomposition,
)
from .structures import DiffStructure, apply_sigma, sigma_poly, split_x_power

# direct gap scans are capped here; beyond it the shift case falls back to
# integer roots of the interpolated resultant Res_x(Q(x), Q(x+y))
_SCAN_LIMIT = 1024


def _gf_shift(cs: list[int], h: int) -> list[int]:
    """Coefficients of p(x + h) mod GF_PRIME via Horner."""
    prime = GF_PRIME
    acc: list[int] = []
    for c in reversed(cs):
        # acc = acc*(x+h) + c
        new = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            new[i + 1] = (new[i + 1] + a) % prime
            new[i] = (new[i] + a * h) % prime
        new[0] = (new[0] + c) % prime
        acc = new
    return acc


def _gf_scale(cs: list[int], factor: int) -> list[int]:
    """Coefficients of p(factor * x) mod GF_PRIME."""
    out = []
    t = 1
    for c in cs:
        out.append(c * t % GF_PRIME)
        t = t * factor % GF_PRIME
    return out


def _shift_gap_window(a: Poly, b: Poly | None = None) -> int:
    """An integer at or above every integer difference h = alpha - beta of
    a root alpha of a and a root beta of b (both of degree >= 1; b = a when
    omitted); 0 or less when no such h is positive.

    With (c_a, r_a) and (c_b, r_b) from ``root_disc``,
    h = (c_a - c_b) + (alpha - c_a) - (beta - c_b)
      <= (c_a - c_b) + |alpha - c_a| + |beta - c_b| <= c_a - c_b + r_a + r_b.
    The window is one-sided: when every root of a lies left of the roots of
    b, no shift is scanned at all.  It only limits which h are tried; each
    candidate still passes the mod-p filter and the exact gcd."""
    c_a, r_a = root_disc(a)
    c_b, r_b = (c_a, r_a) if b is None or b is a else root_disc(b)
    return c_a - c_b + r_a + r_b


def _shift_gap_candidates(a: Poly, b: Poly) -> list[int]:
    """Positive integers h, ascending, with gcd(a(x+h), b) nonconstant; a and
    b nonconstant."""
    limit = _shift_gap_window(a, b)
    if limit < 1:
        return []
    hits: list[int] = []
    if limit <= _SCAN_LIMIT:
        gf_a, gf_b = gf_coeffs(a), gf_coeffs(b)
        for h in range(1, limit + 1):
            if gf_a and gf_b and gf_gcd_degree(gf_b, _gf_shift(gf_a, h)) < 1:
                continue  # mod-p gcd constant certifies the Q-gcd is constant
            if poly_gcd(b, a.shift_arg(h)).degree > 0:
                hits.append(h)
        return hits
    # resultant route: R(y) = Res_x(b(x), a(x+y)) vanishes exactly at the
    # root differences; interpolate R from deg(a)*deg(b) + 1 values
    n = a.degree * b.degree
    pts = [(Rat(k), poly_resultant(b, a.shift_arg(k))) for k in range(n + 1)]
    res_poly = _interpolate(pts)
    if res_poly.is_zero():  # cannot happen for nonzero a, b; guard anyway
        raise InternalVerificationError("interpolated resultant vanished identically")
    for h in sorted(integer_roots(res_poly)):
        if h >= 1 and poly_gcd(b, a.shift_arg(h)).degree > 0:
            hits.append(h)
    return hits


def _interpolate(points: list[tuple[Rat, Rat]]) -> Poly:
    """Lagrange interpolation through exact points (Newton form)."""
    xs = [p[0] for p in points]
    coeffs = [p[1] for p in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    poly = Poly.zero()
    for i in range(n - 1, -1, -1):
        poly = poly * Poly([-xs[i], 1]) + Poly.const(coeffs[i])
    return poly


def _q_root_window(ds: DiffStructure, w: Poly) -> tuple[Rat, Rat, list[int] | None, int | None]:
    """What every q-case scan of w (degree >= 1, w(0) != 0) starts from:
    (lo, hi) with lo <= |alpha| <= hi for every root alpha and lo <= 1 <= hi,
    then w and q mod GF_PRIME, each None where it does not reduce."""
    gf = gf_coeffs(w)
    qn, qd = ds.q.numerator % GF_PRIME, ds.q.denominator % GF_PRIME
    qmod = qn * pow(qd, -1, GF_PRIME) % GF_PRIME if gf is not None and qn and qd else None
    return 1 / reciprocal_root_bound(w), root_magnitude_bound(w), gf, qmod


def _q_gap_candidates(ds: DiffStructure, a: Poly, b: Poly) -> list[int]:
    """Positive integers h, ascending, with gcd(a(q^h x), b) nonconstant; a
    and b nonconstant and coprime to x.  |q|^h is the ratio of a root of a
    to a root of b, at most hi(a)/lo(b) when |q| > 1 and at least
    lo(a)/hi(b) when |q| < 1.  A gcd that is constant mod a large prime
    certifies the exact gcd is constant, so only the few surviving
    candidates pay for exact big-rational arithmetic."""
    hits = []
    lo_a, hi_a, gf_a, qmod = _q_root_window(ds, a)
    lo_b, hi_b, gf_b, _ = _q_root_window(ds, b)
    ratio = hi_a / lo_b if abs(ds.q) > 1 else hi_b / lo_a
    for h in range(1, q_window(ds.q, ratio) + 1):
        if qmod is not None and gf_b is not None:
            qh = pow(qmod, h, GF_PRIME)
            if qh != 0 and gf_gcd_degree(gf_b, _gf_scale(gf_a, qh)) < 1:
                continue
        if poly_gcd(b, a.scale_arg(ds.q ** h)).degree > 0:
            hits.append(h)
    return hits


def q_power_log(ds: DiffStructure, value: Rat) -> int | None:
    """The integer v with q^v == value, if one exists: |v| is the magnitude
    window of max(|value|, 1/|value|)."""
    if value == 0:
        return None
    v = q_window(ds.q, max(abs(value), 1 / abs(value)))
    for cand in (v, -v):
        if ds.q ** cand == value:
            return cand
    return None


def q_power_roots(ds: DiffStructure, p: Poly) -> list[int]:
    """All integers v with p(q^v) = 0, found by scanning the magnitude window
    allowed by the root bounds (no factoring); evaluation mod a large prime
    certifies the nonroots cheaply."""
    if p.is_zero():
        raise ZeroInputError("q-power roots of the zero polynomial")
    w, _ = split_x_power(ds, p)
    if w.degree < 1:
        return []
    lo, hi, gf, qmod = _q_root_window(ds, w)
    vbound = q_window(ds.q, max(hi, 1 / lo))
    out = []
    for v in range(-vbound, vbound + 1):
        if qmod is not None:
            qv = pow(qmod, v, GF_PRIME)
            acc = 0
            for c in reversed(gf):
                acc = (acc * qv + c) % GF_PRIME
            if acc != 0:
                continue
        if w.eval(ds.q ** v) == 0:
            out.append(v)
    return out


def orbit_gaps(ds: DiffStructure, poly: Poly) -> list[int]:
    """Every L > 0, ascending, such that some root pair of ``poly`` sits L
    apart in the structure's orbit sense (nonzero roots in the q case)."""
    if poly.is_zero():
        raise ZeroInputError("dispersion of the zero polynomial")
    w, _ = split_x_power(ds, radical(poly))
    return orbit_gaps_between(ds, w, w)


def orbit_gaps_between(ds: DiffStructure, a: Poly, b: Poly) -> list[int]:
    """Every h > 0, ascending, with gcd(sigma^h(a), b) nonconstant: some root
    of a sits h steps along the orbit of a root of b.  a and b are nonzero,
    and coprime to x in the q case."""
    if a.degree < 1 or b.degree < 1:
        return []
    return _shift_gap_candidates(a, b) if ds.is_shift else _q_gap_candidates(ds, a, b)


def dispersion(ds: DiffStructure, poly: Poly) -> int:
    """Largest L >= 0 such that some root pair of ``poly`` sits L apart in the
    structure's orbit sense; 0 when there is no such pair."""
    return max(orbit_gaps(ds, poly), default=0)


def polar_dispersion(ds: DiffStructure, f: RatFun) -> int:
    """Dispersion of the denominator; 0 for polynomials."""
    return dispersion(ds, f.den)


def is_standard(ds: DiffStructure, f: RatFun) -> bool:
    """True iff the combined zero/pole set has dispersion 0."""
    if f.is_zero():
        raise ZeroInputError("standardness of the zero function")
    return dispersion(ds, f.num * f.den) == 0


# ---------------------------------------------------------------------------
# additive standard decomposition
# ---------------------------------------------------------------------------


class StandardDecomp(namedtuple("StandardDecomp", "structure twist_a standard_part certificate_g")):
    """Certified decomposition f = standard_part + sigma(g) - a*g with
    polar dispersion of the standard part equal to 0."""

    __slots__ = ()

    def reconstruct(self) -> RatFun:
        sigma_g = apply_sigma(self.structure, self.certificate_g)
        return self.standard_part + sigma_g - RatFun.const(self.twist_a) * self.certificate_g


class MultStandardForm(namedtuple("MultStandardForm", "structure standard_part certificate_g")):
    """Certified decomposition f = standard_part * sigma(g)/g with a standard
    standard_part."""

    __slots__ = ()

    def reconstruct(self) -> RatFun:
        sigma_g = apply_sigma(self.structure, self.certificate_g)
        return self.standard_part * sigma_g / self.certificate_g


def _orbit_ends(ds: DiffStructure, p: Poly, gap: int) -> Poly:
    """gcd(w, sigma^gap(w)) for w the radical of p prime to x, as in
    ``orbit_gaps``: its roots are the roots of w with another root gap steps
    along their orbit, so it is constant when gap is no orbit gap of p."""
    w, _ = split_x_power(ds, radical(p))
    return poly_gcd(w, sigma_poly(ds, w, gap).monic())


def _orbit_primary_part(q: Poly, w: Poly) -> Poly:
    """The factor of q carrying all roots shared with w, full multiplicity."""
    d1 = Poly.one()
    for factor, mult in squarefree_decomposition(q):
        shared = poly_gcd(factor, w)
        if shared.degree > 0:
            d1 = d1 * shared ** mult
    return d1


def additive_standard_decomp(ds: DiffStructure, f: RatFun, a) -> StandardDecomp:
    """Write f = f_std + sigma(g) - a*g with pdisp(f_std) = 0.

    The polynomial part (shift) or the Laurent-at-0 part (q case) passes
    through untouched.  Each remaining pole block n/u^k is translated onto
    the far end of its orbit using n/u^k = a^L * sigma^{-L}(n/u^k) modulo the
    image of (sigma - a), with the telescoping certificate

        sigma^L(C) - a^L*C = sigma(G) - a*G,
        G = sum_{j=0}^{L-1} a^(L-1-j) * sigma^j(C).

    The gaps L come from one scan, largest first (see the multiplicative form).
    """
    a = Rat(a)
    if a == 0:
        raise PreconditionError("twist constant a must be nonzero")
    poly_piece, frac = f.poly_part()
    passthrough = RatFun.from_poly(poly_piece)
    stripped, m = split_x_power(ds, frac.den)
    if m > 0:
        at_zero, frac = partial_split(frac, Poly.monomial(1, m), stripped)
        passthrough = passthrough + at_zero

    g_total = RatFun.zero()
    for gap in reversed(orbit_gaps(ds, frac.den)):
        w = _orbit_ends(ds, frac.den, gap)
        if w.degree < 1:
            continue
        d1 = _orbit_primary_part(frac.den, w)
        block, rest = partial_split(frac, d1, frac.den.exact_div(d1))
        moved = apply_sigma(ds, block, -gap)
        cert = RatFun.zero()
        for j in range(gap):
            cert = cert + RatFun.const(a ** (gap - 1 - j)) * apply_sigma(ds, moved, j)
        frac = rest + RatFun.const(a ** gap) * moved
        g_total = g_total + cert

    result = StandardDecomp(ds, a, passthrough + frac, g_total)
    if result.reconstruct() != f or polar_dispersion(ds, result.standard_part) != 0:
        raise InternalVerificationError("additive standard decomposition failed")
    return result


def multiplicative_standard_form(ds: DiffStructure, f: RatFun) -> MultStandardForm:
    """Write f = f_std * sigma(g)/g with f_std standard.

    Zero/pole orbits of f are merged without root isolation: for each orbit
    gap L > 0 of the combined zero/pole polynomial, largest first, the
    orbit-primary part v of the numerator (and of the denominator) on the
    low ends of the orbits with gap L is replaced by sigma^{-L}(v), and the
    telescoping ratio v/sigma^{-L}(v) = sigma(G)/G with
    G = prod_{j=1}^{L} sigma^{-j}(v) is absorbed into the certificate.  A
    step moves roots onto roots, so the gaps of the first scan are the only
    candidates; a gap that an earlier step removed has constant orbit ends.
    """
    if f.is_zero():
        raise ZeroInputError("multiplicative standard form of zero")
    num, den = f.num, f.den
    cert = RatFun.one()
    for gap in reversed(orbit_gaps(ds, num * den)):
        w = _orbit_ends(ds, num * den, gap)
        if w.degree < 1:
            continue
        moved, chains = [], []
        for source in (num, den):
            v = _orbit_primary_part(source, w)
            chain = Poly.one()
            for j in range(1, gap + 1):
                chain = chain * sigma_poly(ds, v, -j)
            moved.append(source.exact_div(v) * sigma_poly(ds, v, -gap).monic())
            chains.append(chain)
        cert = cert * RatFun(*chains)
        reduced = RatFun(*moved)
        num, den = reduced.num, reduced.den
    if not cert.num.is_zero() and cert.num.lc() != 1:
        cert = cert * RatFun.const(1 / cert.num.lc())  # sigma(g)/g is scale-invariant
    sigma_cert = apply_sigma(ds, cert)
    standard = f * cert / sigma_cert
    result = MultStandardForm(ds, standard, cert)
    if result.reconstruct() != f or not is_standard(ds, standard):
        raise InternalVerificationError("multiplicative standard form failed")
    return result
