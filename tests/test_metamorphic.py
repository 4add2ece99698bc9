"""Changes of variable that commute with the structure: x -> x + 3 commutes
with the shift and with d/dx, and x -> 3*x with x -> q*x and with x*d/dx.
So no verdict, exit code or error kind of a pinned query
(``test_golden.QUERIES``) may move when every expression field of the query
is rewritten that way.  This is the one outside check of the negative
verdicts of integrability; it cannot see a fault that is wrong the same way
in both coordinates, only one that depends on where the roots sit."""

import pytest

from test_golden import QUERIES, run_one

NOT_EXPRESSIONS = ("subcommand", "case", "q", "degree_cap", "order_bound")


def substituted(line: dict) -> dict:
    """``line`` with x replaced by x + 3 in every expression field, or by
    3*x in the q case."""
    image = "(3*x)" if line.get("case") == "q" else "(x+3)"
    return {k: v if k in NOT_EXPRESSIONS else v.replace("x", image) for k, v in line.items()}


@pytest.mark.parametrize("index", range(len(QUERIES)))
def test_change_of_variable_keeps_the_verdict(index):
    line = QUERIES[index]
    (report, code), (moved, moved_code) = run_one(line), run_one(substituted(line))
    assert moved_code == code, substituted(line)
    if "error" in report:
        assert moved["error"]["kind"] == report["error"]["kind"], substituted(line)
    else:
        assert moved["verdict"] == report["verdict"], substituted(line)
