"""The parser checked from outside: sympy reads the same text.

Hypothesis writes expressions of the parser's grammar (signs, nested
parentheses, negative exponents, ``;`` lists with empty items), and each
item must equal sympy's ``parse_expr`` of it, with ``^`` read as a power,
after ``cancel``: the same numerator over the same monic denominator.  The
parser must refuse an item, as a division by zero or a zero to a negative
power, exactly when sympy's unevaluated tree of it holds a divisor or a
base with a negative exponent that ``cancel`` takes to zero.  Nothing but
``parsing`` is taken from the package.

Tier-1 runs a small derandomized sample; a long run loads the
``parser-oracle`` profile registered in conftest.py:

    python -m pytest tests/test_parser_oracle.py --hypothesis-profile=parser-oracle
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from diffalg.parsing import ParseError, parse_ratfun, parse_ratfun_list

X = sympy.Symbol("x")
TRANSFORMATIONS = standard_transformations + (convert_xor,)

if settings.get_current_profile_name() == "parser-oracle":
    oracle_settings = settings(deadline=None, database=None)
else:
    oracle_settings = settings(max_examples=100, deadline=None, derandomize=True, database=None)

SPACE = st.sampled_from(["", "", " "])
atoms = st.one_of(st.just("x"), st.integers(0, 12).map(str))


def _parenthesized(inner):
    return st.tuples(SPACE, inner, SPACE).map(lambda t: f"({t[0]}{t[1]}{t[2]})")


def _grow(children):
    operand = st.one_of(atoms, _parenthesized(children))
    return st.one_of(
        st.tuples(children, SPACE, st.sampled_from("+-*/"), SPACE, children).map("".join),
        st.tuples(st.sampled_from(["-", "+", "--", "-+"]), children).map("".join),
        st.tuples(operand, st.integers(-3, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        _parenthesized(children),
    )


expressions = st.recursive(atoms, _grow, max_leaves=10)


def _read(text: str, evaluate: bool = True):
    return parse_expr(text, local_dict={"x": X}, transformations=TRANSFORMATIONS, evaluate=evaluate)


def _divides_by_zero(text: str) -> bool:
    """Whether a divisor or a base with a negative exponent is zero, read
    on the unevaluated tree: evaluated, y^0 is 1 and y/zoo is 0 whatever
    y divides by."""
    return any(
        node.is_Pow and node.exp.is_negative and sympy.cancel(node.base.doit()) == 0
        for node in sympy.preorder_traversal(_read(text, evaluate=False))
    )


def _reference(text: str):
    """(numerator, monic denominator) of sympy's value, rational
    coefficients lowest degree first."""
    num, den = sympy.fraction(sympy.cancel(_read(text)))
    num = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(num, X).all_coeffs())]
    den = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(den, X).all_coeffs())]
    lead = den[-1]
    num = [c / lead for c in num]
    while num and not num[-1]:
        num.pop()
    return num, [c / lead for c in den]


def _check(items, texts):
    for f, text in zip(items, texts):
        assert not _divides_by_zero(text), text
        assert (list(f.num.coeffs), list(f.den.coeffs)) == _reference(text), text


def _check_refused(err: ParseError, texts):
    assert str(err).startswith(("division by zero", "zero to a negative power")), str(err)
    assert any(_divides_by_zero(t) for t in texts), texts


@oracle_settings
@given(expressions)
def test_expression_matches_sympy(text):
    try:
        f = parse_ratfun(text)
    except ParseError as err:
        _check_refused(err, [text])
        return
    _check([f], [text])


@oracle_settings
@given(st.lists(st.one_of(expressions, st.just(""), st.just(" ")), max_size=4))
def test_list_matches_sympy(items):
    text = ";".join(items)
    texts = [t for t in items if t.strip()]
    try:
        values = parse_ratfun_list(text)
    except ParseError as err:
        _check_refused(err, texts)
        return
    assert len(values) == len(texts)
    _check(values, texts)
