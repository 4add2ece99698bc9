"""Expression parsing and printing for the CLI.

Grammar: the single variable ``x``, optionally signed integer literals (runs
of the Unicode decimal digits ``int`` reads; rationals are written with the
division operator, e.g. ``1/4``), operators ``+ - * / ^`` with the usual
precedence, parentheses, matrices as bracketed rows of expressions like
``[[0,-1],[1,x]]``, and ``;`` lists of expressions with empty items skipped.
Whitespace is ignored.  A field is parsed in place, so an error position is
an offset into the whole field.  Printing produces strings that reparse to
an identical reduced rational function.

Input size is capped so that no expression can run without bound: an
exponent above ``MAX_DEGREE`` in magnitude, parentheses nested deeper than
``MAX_NESTING``, an integer literal, a power or any intermediate result of
degree above ``MAX_DEGREE`` or with coefficients above ``MAX_COEFF_BITS``
bits is a parse error.  The same bit cap bounds what is printed: a result
coefficient above it is a BoundExceededError (kind ``bound-exceeded`` in a
report), never a report too large to print.

An expression is evaluated by one loop over its tokens, with a stack of
left operands and one of pending operators and open parentheses.  A value
is an unreduced pair (N, D) of integer coefficient lists; each item (a
field, a ``;`` item, a matrix or vector entry) becomes one reduced
``RatFun`` at its end.

The caps hold for the reduced value after every binary operator, and
are tested only where they could fail.  A polynomial over a constant d
reduces to the same degree, and each coefficient c/d to at most
bits(c) + bits(d) bits.  Otherwise let N = G N' and D = G D' for the
primitive gcd G; by Gauss's lemma N' and D' lie in Z[x].  The reduced value
is (N'/c) / (D'/c) with c = lc(D'), which divides lc(D), so its degree is
at most max(deg N, deg D) and a coefficient of its numerator (denominator)
has at most B(N) + bits(lc D) (B(D) + bits(lc D)) bits, where B(f) bounds
the bit length of a coefficient of a factor of f in Z[x].  A factor h of
degree k of f has |h_i| <= C(k, i) M(h) <= 2^k M(f) <= 2^k ||f||_2
(Mignotte's bound and Landau's inequality, M the Mahler measure), and
||f||_2 < sqrt(m+1) 2^b for f of degree m with coefficients of at most b
bits, so B(f) = m + b + ceil(log2 sqrt(m+1)), the last term at most
((m+1).bit_length() + 1) // 2.  Both sums are at most 2 (n + b + L) for n
the larger degree, b the larger bit length and L its log term.  Where a
bound could pass a cap the value is reduced, checked at the operator's
position, and carried on reduced.  A pair with a nonconstant denominator
is also reduced when its degree passes max(32, twice the degree of the last
reduced value): a telescoping sum stays small, and an irreducible one is
reduced a logarithmic number of times.  A reduction applies the operator in
``RatFun`` arithmetic to the two reduced operands, whose gcds are smaller
than the unreduced result's.  A power reads its estimates off the reduced
base.
"""

from __future__ import annotations

import operator
import re

from .errors import BoundExceededError, ParseError
from .linalg import MatrixRF
from .numcore import (
    Poly,
    RatFun,
    coefficient_bits,
    coefficient_bits_above,
    format_poly,
    int_poly_add,
    int_poly_mul,
    int_poly_pow,
    ratfun_from_ints,
    ratfun_ints,
)

MAX_DEGREE = 256
# open parentheses
MAX_NESTING = 64
MAX_COEFF_BITS = 1 << 13
# the largest telescoper order bound a query may ask for: the search grows
# steeply with it (two functions at bound 128 take tens of seconds)
MAX_ORDER_BOUND = 64
DEFAULT_ORDER_BOUND = 3
# the largest degree cap a query may ask for: the ansatz grows with it
MAX_DEGREE_CAP = 512

_TOKEN = re.compile(r"\s*(\d+|\S)")
# the pair of a constant's denominator; never changed in place
_ONE = [1]
_X = [0, 1]
# the degree past which a pair is reduced when no reduction came before
_REDUCE_FROM = 32
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_DEGREE_ABOVE_CAP = f"expression of degree above the cap {MAX_DEGREE}"


def _tokens(text: str) -> list[str]:
    """The tokens of a field (digit runs, other characters one by one),
    closed by an empty token at its end."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _offset(text: str, tokens: list[str], index: int, end: bool = False) -> int:
    """The offset in text of the start of token ``index``, or of its end;
    the end of text for the closing empty token.  Only whitespace lies
    between tokens, so each starts at the first occurrence of its first
    character after the one before.  Read only for an error."""
    position = 0
    for token in tokens[:index]:
        position = text.find(token[0], position) + len(token)
    token = tokens[index]
    if not token:
        return len(text)
    position = text.find(token[0], position)
    return position + len(token) if end else position


def _fail(text: str, tokens: list[str], index: int, message: str, end: bool = False):
    raise ParseError(message, _offset(text, tokens, index, end))


def _expect(text: str, tokens: list[str], i: int, token: str) -> int:
    if tokens[i] != token:
        _fail(text, tokens, i, f"expected '{token}', found {tokens[i][:1]!r}")
    return i + 1


def _expression(text: str, tokens: list[str], i: int) -> tuple[list[int], list[int], int]:
    """The value (N, D) of the expression that starts at token i, and the
    index of the token after it.

    A product or quotient is checked at the end of its right operand's
    exponent, if it has one, else at the start of the token after it; a sum
    or difference at the start of the token after its right operand."""
    operands = []  # left operands of the pending operators
    pending = []  # "+", "-", "*", "/", or the sign before an open parenthesis
    depth = 0
    limit = _REDUCE_FROM
    while True:
        sign = 1
        token = tokens[i]
        while token == "+" or token == "-":
            if token == "-":
                sign = -sign
            i += 1
            token = tokens[i]
        if token == "(":
            i += 1
            if depth == MAX_NESTING:
                _fail(text, tokens, i - 1, f"parentheses nested above the cap {MAX_NESTING}", end=True)
            depth += 1
            pending.append(sign)
            continue
        if token == "x":
            num, den = _X, _ONE
        elif token.isdecimal():
            # log2(10) < 10/3: a literal of this many digits fits the bit cap
            if len(token) * 10 > MAX_COEFF_BITS * 3:
                _fail(text, tokens, i, f"integer literal above the cap of {MAX_COEFF_BITS} bits", end=True)
            v = int(token)
            num, den = [v] if v else [], _ONE
        else:
            _fail(text, tokens, i, f"unexpected character {token!r}" if token else "unexpected end of input")
        i += 1
        while True:
            # an operand (a literal, x, or a closed parenthesis) ends before
            # token i: its power binds first, then its sign
            powered = tokens[i] == "^"
            if powered:
                num, den, i = _power(text, tokens, i + 1, num, den)
            if sign < 0:
                num = [-c for c in num]
            # a pending product ends with its right operand; its checks read
            # the position after the exponent, or the next token's start
            op = pending[-1] if pending else None
            if op == "*" or op == "/":
                pending.pop()
                at = i - 1 if powered else i
                if op == "/" and not num:
                    _fail(text, tokens, at, "division by zero", end=powered)
                num, den, limit = _apply(text, tokens, at, powered, op, operands.pop(), num, den, limit)
            token = tokens[i]
            if token == "*" or token == "/":
                operands.append((num, den))
                pending.append(token)
                i += 1
                break
            op = pending[-1] if pending else None
            if op == "+" or op == "-":
                pending.pop()
                num, den, limit = _apply(text, tokens, i, False, op, operands.pop(), num, den, limit)
            if token == "+" or token == "-":
                operands.append((num, den))
                pending.append(token)
                i += 1
                break
            if not depth:
                return num, den, i
            if token != ")":
                _fail(text, tokens, i, f"expected ')', found {token[:1]!r}")
            sign = pending.pop()
            depth -= 1
            i += 1


def _apply(
    text: str,
    tokens: list[str],
    index: int,
    end: bool,
    op: str,
    left: tuple,
    num: list[int],
    den: list[int],
    limit: int,
) -> tuple[list[int], list[int], int]:
    """left op num/den as a pair, and the next reduction limit.  The caps
    are tested on the reduced value where they could fail (at the start of
    token ``index``, or at its end); a reduction runs ``RatFun``
    arithmetic on the reduced operands, whose gcds are smaller than that of
    the unreduced result."""
    lnum, lden = left
    if op == "*":
        rnum, rden = int_poly_mul(lnum, num), int_poly_mul(lden, den)
    elif op == "/":
        rnum, rden = int_poly_mul(lnum, den), int_poly_mul(lden, num)
    else:
        rnum = [-c for c in num] if op == "-" else num
        if not lnum:
            rden = den
        elif not rnum:
            rnum, rden = lnum, lden
        elif lden == den:
            rnum, rden = int_poly_add(lnum, rnum), den
        else:
            rnum = int_poly_add(int_poly_mul(lnum, den), int_poly_mul(rnum, lden))
            rden = int_poly_mul(lden, den)
    if not rnum:
        return rnum, _ONE, limit
    if len(rden) == 1:
        # a polynomial: reducing keeps its degree, and divides a coefficient
        # c / d by at most gcd(c, d)
        if len(rnum) - 1 > MAX_DEGREE:
            _fail(text, tokens, index, _DEGREE_ABOVE_CAP, end)
        fits = max(map(int.bit_length, rnum)) + rden[0].bit_length() <= MAX_COEFF_BITS
    else:
        lead = rden[-1].bit_length()
        fits = (
            max(len(rnum), len(rden)) - 1 <= limit
            and _factor_bits(rnum) + lead <= MAX_COEFF_BITS
            and _factor_bits(rden) + lead <= MAX_COEFF_BITS
        )
    if fits:
        return rnum, rden, limit
    value = _OPERATORS[op](ratfun_from_ints(lnum, lden), ratfun_from_ints(num, den))
    if max(value.num.degree, value.den.degree) > MAX_DEGREE:
        _fail(text, tokens, index, _DEGREE_ABOVE_CAP, end)
    if coefficient_bits_above(MAX_COEFF_BITS, value.num, value.den) is not None:
        _fail(text, tokens, index, f"expression with coefficients above the cap of {MAX_COEFF_BITS} bits", end)
    num, den = ratfun_ints(value)
    return num, den, min(MAX_DEGREE, max(_REDUCE_FROM, 2 * (max(len(num), len(den)) - 1)))


def _factor_bits(ints: list[int]) -> int:
    """A bound on the bit length of each coefficient of a factor in Z[x] of
    the nonzero polynomial ``ints`` (Mignotte's bound, module docstring)."""
    n = len(ints)
    return n - 1 + max(map(int.bit_length, ints)) + (n.bit_length() + 1) // 2


def _power(
    text: str, tokens: list[str], i: int, num: list[int], den: list[int]
) -> tuple[list[int], list[int], int]:
    """num/den to the exponent that starts at token i, and the index after
    the exponent."""
    sign = 1
    if tokens[i] == "-":
        i += 1
        sign = -1
    digits = tokens[i]
    if not digits.isdecimal():
        _fail(text, tokens, i, "expected an integer exponent")
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        _fail(text, tokens, i, f"exponent above the cap {MAX_DEGREE}", end=True)
    exponent = sign * int(digits)
    # estimates made on the reduced base before the power is computed
    if den == _ONE:
        degree = len(num) - 1
        bits = max(map(int.bit_length, num), default=1) + 1
        top = max(degree, 0)
    else:
        base = ratfun_from_ints(num, den)
        degree = base.num.degree
        bits = _coeff_bits(base)
        top = max(degree, base.den.degree)
        num, den = ratfun_ints(base)
    if exponent < 0 and not num:
        _fail(text, tokens, i, "zero to a negative power", end=True)
    if abs(exponent) * top > MAX_DEGREE:
        _fail(text, tokens, i, f"power of degree above the cap {MAX_DEGREE}", end=True)
    if abs(exponent) * (bits + degree.bit_length()) > MAX_COEFF_BITS:
        _fail(text, tokens, i, f"power with coefficients above the cap of {MAX_COEFF_BITS} bits", end=True)
    if exponent < 0:
        num, den = den, num
    return int_poly_pow(num, abs(exponent)), int_poly_pow(den, abs(exponent)), i + 1


def _coeff_bits(value: RatFun) -> int:
    return max(coefficient_bits(value.num, value.den))


def _at_end(text: str, tokens: list[str], i: int) -> None:
    if tokens[i]:
        position = _offset(text, tokens, i)
        raise ParseError(f"trailing input {text[position:]!r}", position)


def _item(text: str, tokens: list[str], i: int) -> tuple[RatFun, int]:
    num, den, i = _expression(text, tokens, i)
    return ratfun_from_ints(num, den), i


def parse_ratfun(text: str) -> RatFun:
    """Parse an expression into an exact reduced rational function."""
    tokens = _tokens(text)
    value, i = _item(text, tokens, 0)
    _at_end(text, tokens, i)
    return value


def parse_poly(text: str) -> Poly:
    f = parse_ratfun(text)
    if not f.is_polynomial():
        raise ParseError("expected a polynomial (no denominator)", 0)
    return f.num


def parse_ratfun_list(text: str) -> list[RatFun]:
    """Parse ``e; e; ...``, skipping empty items."""
    return [f for _, f in _semicolon_list(text)[1]]


def parse_poly_list(text: str) -> list[Poly]:
    """Parse ``p; p; ...``, skipping empty items; each item must be a
    polynomial, checked once the whole list has parsed."""
    tokens, items = _semicolon_list(text)
    for start, f in items:
        if not f.is_polynomial():
            _fail(text, tokens, start, "expected a polynomial (no denominator)")
    return [f.num for _, f in items]


def _semicolon_list(text: str) -> tuple[list[str], list[tuple[int, RatFun]]]:
    """The tokens of ``e; e; ...`` and its items, each with the index of
    its first token."""
    tokens = _tokens(text)
    items = []
    i = 0
    while tokens[i]:
        if tokens[i] != ";":
            start = i
            value, i = _item(text, tokens, i)
            items.append((start, value))
        if tokens[i]:
            i = _expect(text, tokens, i, ";")
    return tokens, items


def parse_matrix(text: str) -> MatrixRF:
    """Parse ``[[e, e, ...], ...]`` into a square matrix over Q(x)."""
    tokens = _tokens(text)
    rows, i = _bracketed(text, tokens, 0, _row)
    _at_end(text, tokens, i)
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", len(text))
    return MatrixRF(rows)


def parse_vector(text: str) -> list[RatFun]:
    tokens = _tokens(text)
    entries, i = _row(text, tokens, 0)
    _at_end(text, tokens, i)
    return entries


def _bracketed(text: str, tokens: list[str], i: int, item) -> tuple[list, int]:
    """``[item, item, ...]`` from token i: one or more items, comma
    separated, and the index after the closing bracket."""
    i = _expect(text, tokens, i, "[")
    items = []
    while True:
        value, i = item(text, tokens, i)
        items.append(value)
        if tokens[i] != ",":
            return items, _expect(text, tokens, i, "]")
        i += 1


def _row(text: str, tokens: list[str], i: int) -> tuple[list[RatFun], int]:
    return _bracketed(text, tokens, i, _entry)


def _entry(text: str, tokens: list[str], i: int) -> tuple[RatFun, int]:
    if tokens[i] in (",", "]", ""):
        # at the end of the bracket or comma before it
        _fail(text, tokens, i - 1, "empty matrix entry", end=True)
    return _item(text, tokens, i)


def _check_printable(*polys: Poly) -> None:
    # a result may not print a coefficient an input could not hold; the
    # first one above the cap is reported
    bits = coefficient_bits_above(MAX_COEFF_BITS, *polys)
    if bits is not None:
        raise BoundExceededError(
            f"result coefficient of {bits} bits above the cap of {MAX_COEFF_BITS} bits"
        )


def format_rat(c) -> str:
    """A rational of a result as text; BoundExceededError above the
    coefficient cap."""
    _check_printable(Poly.const(c))
    return str(c)


def format_ratfun(f: RatFun) -> str:
    """Canonical text form; reparses to an identical RatFun.  A coefficient
    above ``MAX_COEFF_BITS`` bits raises BoundExceededError."""
    _check_printable(f.num, f.den)
    num = format_poly(f.num)
    if f.den == Poly.one():
        return num
    return f"({num})/({format_poly(f.den)})"

