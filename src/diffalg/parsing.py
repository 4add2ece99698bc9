"""Expression parsing and printing for the CLI.

Grammar: the single variable ``x``, optionally signed integer literals
(rationals are written with the division operator, e.g. ``1/4``), operators
``+ - * / ^`` with the usual precedence, parentheses, and matrices as
bracketed rows of expressions like ``[[0,-1],[1,x]]``.  Whitespace is
ignored.  Printing produces strings that reparse to an identical reduced
rational function.

Input size is capped so that no expression can run without bound: an
exponent above ``MAX_DEGREE`` in magnitude, an integer literal, a power or
any intermediate result of degree above ``MAX_DEGREE`` or with coefficients
above ``MAX_COEFF_BITS`` bits is a parse error.  The same bit cap bounds what
is printed: a result coefficient above it is a BoundExceededError (kind
``bound-exceeded`` in a report), never a report too large to print.
"""

from __future__ import annotations

from .errors import BoundExceededError, ParseError
from .numcore import Poly, RatFun, coefficient_bits, coefficient_bits_above, format_poly
from .solver import MatrixRF

MAX_DEGREE = 256
MAX_COEFF_BITS = 1 << 13
# the largest telescoper order bound a query may ask for: the search grows
# steeply with it (two functions at bound 128 take tens of seconds)
MAX_ORDER_BOUND = 64


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            raise ParseError(f"expected '{ch}', found {got!r}", self.pos)
        self.pos += 1

    def fail(self, message: str):
        raise ParseError(message, self.pos)


def _parse_expr(sc: _Scanner) -> RatFun:
    value = _parse_term(sc)
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take()
            value = _checked(sc, value + _parse_term(sc))
        elif ch == "-":
            sc.take()
            value = _checked(sc, value - _parse_term(sc))
        else:
            return value


def _parse_term(sc: _Scanner) -> RatFun:
    value = _parse_unary(sc)
    while True:
        ch = sc.peek()
        if ch == "*":
            sc.take()
            value = _checked(sc, value * _parse_unary(sc))
        elif ch == "/":
            sc.take()
            divisor = _parse_unary(sc)
            if divisor.is_zero():
                sc.fail("division by zero")
            value = _checked(sc, value / divisor)
        else:
            return value


def _parse_unary(sc: _Scanner) -> RatFun:
    sign = 1
    while sc.peek() in ("+", "-"):
        if sc.take() == "-":
            sign = -sign
    value = _parse_power(sc)
    return -value if sign < 0 else value


def _parse_power(sc: _Scanner) -> RatFun:
    base = _parse_atom(sc)
    if sc.peek() == "^":
        sc.take()
        exponent = _parse_exponent(sc)
        if exponent < 0 and base.is_zero():
            sc.fail("zero to a negative power")
        # estimates made before the power is computed
        if abs(exponent) * max(base.num.degree, base.den.degree) > MAX_DEGREE:
            sc.fail(f"power of degree above the cap {MAX_DEGREE}")
        if abs(exponent) * (_coeff_bits(base) + base.num.degree.bit_length()) > MAX_COEFF_BITS:
            sc.fail(f"power with coefficients above the cap of {MAX_COEFF_BITS} bits")
        return base ** exponent
    return base


def _coeff_bits(value: RatFun) -> int:
    return max(coefficient_bits(value.num, value.den))


def _checked(sc: _Scanner, value: RatFun) -> RatFun:
    if max(value.num.degree, value.den.degree) > MAX_DEGREE:
        sc.fail(f"expression of degree above the cap {MAX_DEGREE}")
    if coefficient_bits_above(MAX_COEFF_BITS, value.num, value.den) is not None:
        sc.fail(f"expression with coefficients above the cap of {MAX_COEFF_BITS} bits")
    return value


def _parse_exponent(sc: _Scanner) -> int:
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    ch = sc.peek()
    if not ch.isdigit():
        sc.fail("expected an integer exponent")
    digits = _take_digits(sc)
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        sc.fail(f"exponent above the cap {MAX_DEGREE}")
    return sign * int(digits)


def _take_digits(sc: _Scanner) -> str:
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
        sc.pos += 1
    return sc.text[start : sc.pos]


def _parse_atom(sc: _Scanner) -> RatFun:
    ch = sc.peek()
    if ch == "(":
        sc.take()
        value = _parse_expr(sc)
        sc.expect(")")
        return value
    if ch == "x":
        sc.take()
        return RatFun.x()
    if ch.isdigit():
        digits = _take_digits(sc)
        # log2(10) < 10/3: a literal of this many digits fits the bit cap
        if len(digits) * 10 > MAX_COEFF_BITS * 3:
            sc.fail(f"integer literal above the cap of {MAX_COEFF_BITS} bits")
        return RatFun.const(int(digits))
    sc.fail(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def _parse_whole(text: str, rule):
    """``rule`` applied to a scanner over text, which it must consume."""
    sc = _Scanner(text)
    value = rule(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        sc.fail(f"trailing input {sc.text[sc.pos:]!r}")
    return value


def parse_ratfun(text: str) -> RatFun:
    """Parse an expression into an exact reduced rational function."""
    return _parse_whole(text, _parse_expr)


def parse_poly(text: str) -> Poly:
    f = parse_ratfun(text)
    if not f.is_polynomial():
        raise ParseError("expected a polynomial (no denominator)", 0)
    return f.num * (1 / f.den.lc())


def parse_matrix(text: str) -> MatrixRF:
    """Parse ``[[e, e, ...], ...]`` into a square matrix over Q(x)."""
    rows = _parse_whole(text, lambda sc: _bracketed(sc, _parse_row))
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix must be square", len(text))
    return MatrixRF(rows)


def parse_vector(text: str) -> list[RatFun]:
    return _parse_whole(text, _parse_row)


def _bracketed(sc: _Scanner, item) -> list:
    """``[item, item, ...]``: one or more items, comma separated."""
    sc.expect("[")
    items = [item(sc)]
    while sc.peek() == ",":
        sc.take()
        items.append(item(sc))
    sc.expect("]")
    return items


def _parse_row(sc: _Scanner) -> list[RatFun]:
    return _bracketed(sc, _parse_entry)


def _parse_entry(sc: _Scanner) -> RatFun:
    # an expression terminated by ',' or ']' at depth zero
    start = sc.pos
    depth = 0
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in ",]":
            break
        sc.pos += 1
    chunk = sc.text[start : sc.pos]
    if not chunk.strip():
        raise ParseError("empty matrix entry", start)
    try:
        return parse_ratfun(chunk)
    except ParseError as exc:
        raise ParseError(str(exc), start + exc.position) from None


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

