"""The parser's error table and its caps on cancelling input.

Every ParseError site of ``parsing`` is pinned here, message and position,
through each entry point that reaches it; the positions tell "at the start
of the token" (where a token was only looked at) from "at its end" (where it
was read).  The caps are tested on the reduced value at each operator, so
input that cancels passes where its unreduced form would not.
"""

import pytest
from hypothesis import given, settings, strategies as st

from diffalg import ParseError, Poly, RatFun
from diffalg.parsing import (
    _TOKEN,
    MAX_NESTING,
    _offset,
    _tokens,
    parse_matrix,
    parse_poly,
    parse_poly_list,
    parse_ratfun,
    parse_ratfun_list,
    parse_vector,
)

ENTRY = {
    "ratfun": parse_ratfun,
    "poly": parse_poly,
    "ratfun_list": parse_ratfun_list,
    "poly_list": parse_poly_list,
    "matrix": parse_matrix,
    "vector": parse_vector,
}
BIG = "(2^250)^32"  # 2^8000, one bit short of half the coefficient cap
DEEP = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
SIGNED_DEEP = "-(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
DEGREE = "expression of degree above the cap 256"
BITS = "expression with coefficients above the cap of 8192 bits"

ERRORS = [
    # tokens: a character or the end where an operand must start
    ("ratfun", "x + $", "unexpected character '$' (at position 4)"),
    ("ratfun", "x +", "unexpected end of input (at position 3)"),
    ("ratfun", "", "unexpected end of input (at position 0)"),
    ("ratfun", "   ", "unexpected end of input (at position 3)"),
    ("ratfun", "²", "unexpected character '²' (at position 0)"),
    ("ratfun", "2x", "trailing input 'x' (at position 1)"),
    ("ratfun", "x + 1) * 2", "trailing input ') * 2' (at position 5)"),
    ("ratfun", "(x)(x)", "trailing input '(x)' (at position 3)"),
    ("ratfun", "x^2^3", "trailing input '^3' (at position 3)"),
    # expect: each token it can name
    ("ratfun", "(x+1", "expected ')', found '' (at position 4)"),
    ("ratfun", "(x+1 2", "expected ')', found '2' (at position 5)"),
    ("ratfun", "((x)", "expected ')', found '' (at position 4)"),
    ("ratfun_list", "x) ; 1", "expected ';', found ')' (at position 1)"),
    ("ratfun_list", "x 1", "expected ';', found '1' (at position 2)"),
    ("poly_list", "x , 1", "expected ';', found ',' (at position 2)"),
    ("matrix", "[1]", "expected '[', found '1' (at position 1)"),
    ("matrix", "x", "expected '[', found 'x' (at position 0)"),
    ("matrix", "", "expected '[', found '' (at position 0)"),
    ("vector", "1,2", "expected '[', found '1' (at position 0)"),
    ("matrix", "[[1,2],[3,4]", "expected ']', found '' (at position 12)"),
    ("matrix", "[[1,2] [3,4]]", "expected ']', found '[' (at position 7)"),
    ("matrix", "[[1)]]", "expected ']', found ')' (at position 3)"),
    ("matrix", "[[(1]]", "expected ')', found ']' (at position 4)"),
    ("vector", "[1;2]", "expected ']', found ';' (at position 2)"),
    ("vector", "[1,2", "expected ']', found '' (at position 4)"),
    # division and powers of zero: after the divisor, or after its exponent
    ("ratfun", "1/(x - x)", "division by zero (at position 9)"),
    ("ratfun", "1/0^2", "division by zero (at position 5)"),
    ("ratfun", "1/0 + 1", "division by zero (at position 4)"),
    ("ratfun", "x/(1/x - 1/x)", "division by zero (at position 13)"),
    ("ratfun", "0^-1", "zero to a negative power (at position 4)"),
    ("matrix", "[[0^-0^0]]", "expected ']', found '^' (at position 6)"),
    ("ratfun", "(1/x - 1/x)^-2", "zero to a negative power (at position 14)"),
    # exponents
    ("ratfun", "x^y", "expected an integer exponent (at position 2)"),
    ("ratfun", "x^", "expected an integer exponent (at position 2)"),
    ("ratfun", "x^+2", "expected an integer exponent (at position 2)"),
    ("ratfun", "x^--2", "expected an integer exponent (at position 3)"),
    ("ratfun", "x^²", "expected an integer exponent (at position 2)"),
    ("ratfun", "x^257", "exponent above the cap 256 (at position 5)"),
    ("ratfun", "x^0257", "exponent above the cap 256 (at position 6)"),
    ("ratfun", "x^99999999", "exponent above the cap 256 (at position 10)"),
    ("ratfun", "x^-99999999", "exponent above the cap 256 (at position 11)"),
    # the two power estimates, on a polynomial and on a reduced rational base
    ("ratfun", "(x^2+1)^200", "power of degree above the cap 256 (at position 11)"),
    ("ratfun", "(1/(x^2+1))^-200", "power of degree above the cap 256 (at position 16)"),
    ("ratfun", "(9^256)^256", "power with coefficients above the cap of 8192 bits (at position 11)"),
    ("ratfun", "(x/9^256)^-256", "power with coefficients above the cap of 8192 bits (at position 14)"),
    # the degree cap after each operator: a product is checked after its
    # right operand's exponent, or at the next token; a sum at the next token
    ("ratfun", "x^200*x^100", f"{DEGREE} (at position 11)"),
    ("ratfun", "x^200*x^100 + 1", f"{DEGREE} (at position 11)"),
    ("ratfun", "(x^200+1)*(x^100+1)", f"{DEGREE} (at position 19)"),
    ("ratfun", "x^256*x + 1", f"{DEGREE} (at position 8)"),
    ("ratfun", "x^200/x^-100", f"{DEGREE} (at position 12)"),
    ("ratfun", "1/x^200 + 1/(x+1)^100", f"{DEGREE} (at position 21)"),
    ("ratfun", "1/x^200 - 1/(x+1)^100 + 1", f"{DEGREE} (at position 22)"),
    # the coefficient cap after each operator
    ("ratfun", "*".join(["9^256"] * 20), f"{BITS} (at position 65)"),
    ("ratfun", f"{BIG}*2^200", f"{BITS} (at position 16)"),
    ("ratfun", f"{BIG}*2^190 + {BIG}*2^190", f"{BITS} (at position 35)"),
    ("ratfun", f"{BIG}*2^190 + {BIG}*2^190 + 1", f"{BITS} (at position 36)"),
    ("ratfun", f"1/{BIG} + 1/(3^250)^20", f"{BITS} (at position 27)"),
    ("ratfun", f"x/{BIG}/2^200", f"{BITS} (at position 18)"),
    ("ratfun", f"{BIG}*2^190/(x+1) + {BIG}*2^190/(x+1)", f"{BITS} (at position 47)"),
    ("ratfun", f"{BIG}*2^190/(x+1) + {BIG}*2^190/(x+1) - 1", f"{BITS} (at position 48)"),
    ("ratfun", f"1/({BIG}*x+1)/({BIG}*x+1)", f"{BITS} (at position 35)"),
    # literal size and nesting
    ("ratfun", "9" * 5000, "integer literal above the cap of 8192 bits (at position 5000)"),
    ("ratfun", "x + " + "9" * 2460, "integer literal above the cap of 8192 bits (at position 2464)"),
    ("ratfun", DEEP, "parentheses nested above the cap 64 (at position 65)"),
    ("ratfun", SIGNED_DEEP, "parentheses nested above the cap 64 (at position 130)"),
    # polynomials: a whole field at 0, a list item at its first token
    ("poly", "1/x", "expected a polynomial (no denominator) (at position 0)"),
    ("poly", "  x + 1/x", "expected a polynomial (no denominator) (at position 0)"),
    ("poly", "x + $", "unexpected character '$' (at position 4)"),
    ("poly_list", "x;  1/x", "expected a polynomial (no denominator) (at position 4)"),
    ("poly_list", "x;1;  (x+1)/x ;1/x", "expected a polynomial (no denominator) (at position 6)"),
    ("poly_list", " 1/x; 1/0", "division by zero (at position 9)"),
    ("poly_list", "x+1; x + $", "unexpected character '$' (at position 9)"),
    ("ratfun_list", "x+1; x + $", "unexpected character '$' (at position 9)"),
    ("ratfun_list", "x; (x", "expected ')', found '' (at position 5)"),
    ("ratfun_list", "x;; 1/0", "division by zero (at position 7)"),
    ("ratfun_list", "1; x^200*x^100", f"{DEGREE} (at position 14)"),
    # matrices and vectors: an empty entry at the end of the '[' or ',' before it
    ("matrix", "[[1,x+$],[0,1]]", "unexpected character '$' (at position 6)"),
    ("matrix", "[[1, ],[0,1]]", "empty matrix entry (at position 4)"),
    ("matrix", "[[],[0,1]]", "empty matrix entry (at position 2)"),
    ("matrix", "[[1,]]", "empty matrix entry (at position 4)"),
    ("matrix", "[ [ 1 , ] ]", "empty matrix entry (at position 7)"),
    ("matrix", "[[1,2,3],[4,5,6]]", "matrix must be square (at position 17)"),
    ("matrix", "[[1],[2]]", "matrix must be square (at position 9)"),
    ("matrix", "[[1]]]", "trailing input ']' (at position 5)"),
    ("matrix", "[[1,0],[0,1/0]]", "division by zero (at position 13)"),
    ("matrix", "[[x^200*x^100]]", f"{DEGREE} (at position 13)"),
    ("vector", "[1, x+$]", "unexpected character '$' (at position 6)"),
    ("vector", "[1,,2]", "empty matrix entry (at position 3)"),
    ("vector", "[]", "empty matrix entry (at position 1)"),
    ("vector", "[1,2] x", "trailing input 'x' (at position 6)"),
    ("vector", "[x^200*x^100]", f"{DEGREE} (at position 12)"),
]


@pytest.mark.parametrize(
    "entry, text, message", ERRORS, ids=[f"{entry}-{n}" for n, (entry, _, _) in enumerate(ERRORS)]
)
def test_parse_error_message_and_position(entry, text, message):
    with pytest.raises(ParseError) as err:
        ENTRY[entry](text)
    assert str(err.value) == message


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=" \t\u00a0\u2028x+-*/^()[],;0123\u0663\u00b2$", max_size=30))
def test_error_offsets_match_the_token_matches(text):
    # an error offset is found again from the token list: the start and end
    # of each token's match, and the end of text for the closing empty token
    tokens = _tokens(text)
    spans = [(m.start(1), m.end(1)) for m in _TOKEN.finditer(text)] + [(len(text), len(text))]
    offsets = [(_offset(text, tokens, k), _offset(text, tokens, k, end=True)) for k in range(len(tokens))]
    assert offsets == spans


def _linear(k: int) -> Poly:
    return Poly([k, 1])


def test_exponent_minus_zero_is_zero():
    # -0 is not a negative exponent, even for a zero base
    assert parse_ratfun("0^-0") == RatFun.one()
    assert parse_ratfun("(x/(x+1))^-0") == RatFun.one()


class TestCancellationAtTheCaps:
    def test_degree_cancels_at_each_operator(self):
        # each factor reduces to x before the product is checked
        assert parse_ratfun("(x^200/x^199)*(x^200/x^199)") == RatFun(Poly([0, 0, 1]))

    def test_degree_is_checked_before_a_later_division_cancels(self):
        with pytest.raises(ParseError) as err:
            parse_ratfun("(x+1)^200*(x-1)^100/(x^2-1)^100")
        assert str(err.value) == f"{DEGREE} (at position 19)"

    def test_coefficients_cancel_at_each_operator(self):
        assert parse_ratfun(f"({BIG}*x/{BIG})*({BIG}*x/{BIG})") == RatFun(Poly([0, 0, 1]))

    def test_coefficients_are_checked_before_a_later_division_cancels(self):
        with pytest.raises(ParseError) as err:
            parse_ratfun(f"{BIG}*2^200/2^200")
        assert str(err.value) == f"{BITS} (at position 16)"

    def test_pole_sum_matches_ratfun_arithmetic(self):
        # 199 poles: irreducible, of degree 199 below the cap
        text = "+".join(f"1/(x+{k})" for k in range(1, 200))
        expected = RatFun.zero()
        for k in range(1, 200):
            expected = expected + RatFun(Poly.one(), _linear(k))
        assert parse_ratfun(text) == expected
        assert expected.den.degree == 199

    def test_telescoping_sum_reduces(self):
        text = "+".join(f"(1/(x+{k})-1/(x+{k + 1}))" for k in range(1, 400))
        assert parse_ratfun(text) == RatFun(Poly.one(), _linear(1)) - RatFun(Poly.one(), _linear(400))
