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
"""

from __future__ import annotations

import re

from .errors import BoundExceededError, ParseError
from .numcore import Poly, RatFun, coefficient_bits, coefficient_bits_above, format_poly
from .solver import MatrixRF

MAX_DEGREE = 256
# open parentheses; at a few frames each, far below the recursion limit
MAX_NESTING = 64
MAX_COEFF_BITS = 1 << 13
# the largest telescoper order bound a query may ask for: the search grows
# steeply with it (two functions at bound 128 take tens of seconds)
MAX_ORDER_BOUND = 64

_TOKEN = re.compile(r"\s*(\d+|\S)")


class _Scanner:
    """The tokens of a field (digit runs, other characters one by one) with
    their start offsets.  Taking a token leaves ``pos`` at its end; peeking
    moves ``pos`` to the next token's start, or to the end of the text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.start(1), m[1]) for m in _TOKEN.finditer(text)]
        self.tokens.append((len(text), ""))
        self.index = 0
        self.pos = 0
        self.depth = 0  # parentheses open

    def peek(self) -> str:
        self.pos, token = self.tokens[self.index]
        return token

    def take(self) -> str:
        token = self.peek()
        self.index += 1
        self.pos += len(token)
        return token

    def expect(self, token: str):
        if self.peek() != token:
            self.fail(f"expected '{token}', found {self.peek()[:1]!r}")
        self.take()

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
    digits = sc.peek()
    if not digits.isdecimal():
        sc.fail("expected an integer exponent")
    sc.take()
    if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
        sc.fail(f"exponent above the cap {MAX_DEGREE}")
    return sign * int(digits)


def _parse_atom(sc: _Scanner) -> RatFun:
    token = sc.peek()
    if token == "(":
        sc.take()
        if sc.depth == MAX_NESTING:
            sc.fail(f"parentheses nested above the cap {MAX_NESTING}")
        sc.depth += 1
        value = _parse_expr(sc)
        sc.expect(")")
        sc.depth -= 1
        return value
    if token == "x":
        sc.take()
        return RatFun.x()
    if token.isdecimal():
        sc.take()
        # log2(10) < 10/3: a literal of this many digits fits the bit cap
        if len(token) * 10 > MAX_COEFF_BITS * 3:
            sc.fail(f"integer literal above the cap of {MAX_COEFF_BITS} bits")
        return RatFun.const(int(token))
    sc.fail(f"unexpected character {token!r}" if token else "unexpected end of input")


def _parse_whole(text: str, rule):
    """``rule`` applied to a scanner over text, which it must consume."""
    sc = _Scanner(text)
    value = rule(sc)
    if sc.peek():
        sc.fail(f"trailing input {sc.text[sc.pos:]!r}")
    return value


def _polynomial(f: RatFun, position: int) -> Poly:
    if not f.is_polynomial():
        raise ParseError("expected a polynomial (no denominator)", position)
    return f.num * (1 / f.den.lc())


def parse_ratfun(text: str) -> RatFun:
    """Parse an expression into an exact reduced rational function."""
    return _parse_whole(text, _parse_expr)


def parse_poly(text: str) -> Poly:
    return _polynomial(parse_ratfun(text), 0)


def parse_ratfun_list(text: str) -> list[RatFun]:
    """Parse ``e; e; ...``, skipping empty items."""
    return [f for _, f in _parse_whole(text, _semicolon_list)]


def parse_poly_list(text: str) -> list[Poly]:
    """Parse ``p; p; ...``, skipping empty items; each item must be a
    polynomial, checked once the whole list has parsed."""
    return [_polynomial(f, start) for start, f in _parse_whole(text, _semicolon_list)]


def _semicolon_list(sc: _Scanner) -> list[tuple[int, RatFun]]:
    """The items of ``e; e; ...``, each with the offset where it starts."""
    items = []
    while sc.peek():
        if sc.peek() != ";":
            start = sc.pos
            items.append((start, _parse_expr(sc)))
        if sc.peek():
            sc.expect(";")
    return items


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
    start = sc.pos
    if sc.peek() in (",", "]", ""):
        raise ParseError("empty matrix entry", start)
    return _parse_expr(sc)


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

