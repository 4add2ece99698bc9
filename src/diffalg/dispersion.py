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
detected through gcds of sigma^h(a) and b over a window of candidate gaps h,
in one scan for both structures (``orbit_gaps_between``).  Its window
(``_gap_window``) reads root discs |alpha - c| <= r about integer centres
(``numcore.root_disc``) in the shift case, so it is one-sided and empty when
the roots of a lie left of those of b, and the root-magnitude bounds in the
q case, capped at ``numcore.Q_WINDOW_CAP`` steps (bound-exceeded past it).
Past ``_SCAN_LIMIT`` the shift case reads the integer roots of
``numcore.root_differences`` instead.  ``q_power_roots`` finds the integers
v with p(q^v) = 0 over the same magnitude bounds: the solver's valuation and
degree bounds read it, and it finds the exponent r of a constant c = q^r as
the root of x - c.  Each standard-form step moves the orbit-primary part of a
polynomial, the factor carrying the roots it shares with the orbit ends at
full multiplicity, taken by repeated gcd (``_orbit_primary_part``).
The power of x itself, which x -> q*x fixes, is split off by
``structures.split_x_power`` before any scan.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalVerificationError, PreconditionError, ZeroInputError
from .numcore import (
    Poly,
    Rat,
    RatFun,
    gf_coeffs,
    gf_gcd_degree,
    integer_roots,
    partial_split,
    poly_gcd,
    q_window,
    radical,
    reciprocal_root_bound,
    root_differences,
    root_disc,
    root_magnitude_bound,
    scan_primes,
)
from .structures import DiffStructure, apply_sigma, sigma_poly, split_x_power

# direct gap scans are capped here; beyond it the shift case takes the
# integer roots of the root differences of a and b, Res_x(b(x), a(x+y))
_SCAN_LIMIT = 1024


def _gf_shift(cs: list[int], prime: int) -> list[int]:
    """Coefficients of p(x + 1) mod prime: the Taylor shift by one as
    repeated synthetic division by x - 1, in additions only."""
    out = list(cs)
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] = (out[j] + out[j + 1]) % prime
    return out


def _scan_images(ds: DiffStructure, *polys: Poly) -> tuple[int, list, int | None] | None:
    """(prime, images, qmod) for the first of ``numcore.scan_primes`` at
    which every leading coefficient of the polys is a unit and, in the q
    case, q is a unit other than +-1: the images of the polys and q mod the
    prime (None in the shift case).  None when no safe prime below 2^15
    qualifies, and the scan runs unfiltered.

    With p = 2r + 1 and r prime, every such q has order r or 2r mod p, so
    the images along a q orbit repeat only after r steps (r = 16301 at
    GF_PRIME): a window below r meets no repeat, and each repeat in a longer
    one (up to ``Q_WINDOW_CAP`` = 2^14) costs one exact gcd or evaluation."""
    for prime in scan_primes():
        images = [gf_coeffs(p, prime) for p in polys]
        if None in images:
            continue
        if ds.is_shift:
            return prime, images, None
        qn, qd = ds.q.numerator % prime, ds.q.denominator % prime
        qmod = qn * pow(qd, -1, prime) % prime if qn and qd else None
        if qmod is not None and qmod not in (1, prime - 1):
            return prime, images, qmod
    return None


def _gap_window(ds: DiffStructure, a: Poly, b: Poly) -> int:
    """An integer at or above every orbit gap h > 0 between a root alpha of a
    and a root beta of b (both of degree >= 1, coprime to x in the q case);
    0 or less when there is none.  It only limits which h are tried; each
    candidate still passes the mod-p filter and the exact gcd.

    Shift case: with (c_a, r_a) and (c_b, r_b) from ``root_disc``,
    h = (c_a - c_b) + (alpha - c_a) - (beta - c_b)
      <= (c_a - c_b) + |alpha - c_a| + |beta - c_b| <= c_a - c_b + r_a + r_b,
    one-sided: when every root of a lies left of the roots of b, no shift is
    scanned at all.

    q case: alpha = q^h * beta, so |q|^h = |alpha|/|beta| is at most
    hi(a)/lo(b) when |q| > 1, and |q|^-h at most hi(b)/lo(a) when |q| < 1,
    with hi the root magnitude bound and 1/lo the reciprocal one."""
    if ds.is_shift:
        c_a, r_a = root_disc(a)
        c_b, r_b = (c_a, r_a) if b is a else root_disc(b)
        return c_a - c_b + r_a + r_b
    if abs(ds.q) < 1:
        a, b = b, a
    return q_window(ds.q, root_magnitude_bound(a) * reciprocal_root_bound(b))


def q_power_roots(ds: DiffStructure, p: Poly) -> list[int]:
    """All integers v with p(q^v) = 0, found by scanning the magnitude window
    allowed by the root bounds (no factoring); evaluation mod a safe prime
    (``_scan_images``) certifies the nonroots cheaply."""
    if p.is_zero():
        raise ZeroInputError("q-power roots of the zero polynomial")
    w, _ = split_x_power(ds, p)
    if w.degree < 1:
        return []
    vbound = q_window(ds.q, max(root_magnitude_bound(w), reciprocal_root_bound(w)))
    scan = _scan_images(ds, w)
    out = []
    if scan is not None:
        prime, (gf,), qmod = scan
        qv = pow(qmod, -vbound, prime)  # q^v mod prime
    for v in range(-vbound, vbound + 1):
        if scan is not None:
            acc = 0
            for c in reversed(gf):
                acc = (acc * qv + c) % prime
            qv = qv * qmod % prime
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
    and coprime to x in the q case.

    One scan serves both structures: h runs over ``_gap_window``, and the
    image of sigma^h(a) mod a safe prime (``_scan_images``) is stepped from
    that of sigma^(h-1)(a) (a Taylor shift by one, or coefficient j times
    q^j), so only the few h whose image shares a factor with b's pay for an
    exact gcd of big-rational polynomials.  A shift window past
    ``_SCAN_LIMIT`` gives way to the integer roots of ``root_differences``,
    each checked the same way."""
    if a.degree < 1 or b.degree < 1:
        return []
    window = _gap_window(ds, a, b)
    if ds.is_shift and window > _SCAN_LIMIT:
        hs = sorted(integer_roots(root_differences(a, b)))
        return [h for h in hs if h >= 1 and poly_gcd(b, a.shift_arg(h)).degree > 0]
    # the leading coefficient of each image stays a unit (q is one), so a
    # gcd constant mod the prime certifies the exact gcd is constant
    scan = _scan_images(ds, a, b)
    if scan is not None:
        prime, (image, gf_b), qmod = scan
        powers = [pow(qmod, j, prime) for j in range(a.degree + 1)] if qmod is not None else []
    hits = []
    for h in range(1, window + 1):
        if scan is not None:
            image = _gf_shift(image, prime) if ds.is_shift else [c * t % prime for c, t in zip(image, powers)]
            if gf_gcd_degree(gf_b, image, prime) < 1:
                continue
        if poly_gcd(b, sigma_poly(ds, a, h)).degree > 0:
            hits.append(h)
    return hits


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
    """The monic factor of the nonzero q carrying all roots shared with w,
    at full multiplicity: each gcd with what is left of q takes one more
    power of the shared roots that q still has."""
    d1, g = Poly.one(), poly_gcd(q, w)
    while g.degree > 0:
        d1 = d1 * g
        q = q.exact_div(g)
        g = poly_gcd(q, g)
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
    The standard part is what the loop leaves of num/den, so the final
    ``reconstruct`` check tests every step's ratio.
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
            moved.append(source.exact_div(v) * sigma_poly(ds, v, -gap))
            chains.append(chain)
        cert = cert * RatFun(*chains)
        reduced = RatFun(*moved)
        num, den = reduced.num, reduced.den
    if not cert.num.is_zero() and cert.num.lc() != 1:
        cert = cert * RatFun.const(1 / cert.num.lc())  # sigma(g)/g is scale-invariant
    standard = RatFun(num, den, _reduced=True)
    result = MultStandardForm(ds, standard, cert)
    if result.reconstruct() != f or not is_standard(ds, standard):
        raise InternalVerificationError("multiplicative standard form failed")
    return result
