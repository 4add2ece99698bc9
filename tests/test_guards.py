"""The shape of the guard table ``tests/data/guards.jsonl``, which
``tests/guards.py`` runs one process per guard.  Nothing here starts a
process: each object query is only read through ``cli.query_from_dict``."""

import json

import pytest

from diffalg import cli
from guards import check_output, load_guards, matches

GUARDS = load_guards()
EXIT_CODES = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}


def test_entries_have_the_four_keys_and_unique_ids():
    assert GUARDS
    for guard in GUARDS:
        assert list(guard) == ["id", "query", "seconds", "expect"], guard.get("id")
        assert isinstance(guard["id"], str) and guard["id"]
        assert isinstance(guard["query"], (str, dict)), guard["id"]
    ids = [guard["id"] for guard in GUARDS]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard["id"])
def test_guard(guard):
    """A positive ``seconds``, an ``expect`` of a known exit code and a
    nonempty report, and a query that reads as that expectation says: a
    string must fail JSON parsing, and an object must become a ``Query`` or
    fail in ``query_from_dict`` with the error kind and exit code expected."""
    seconds, expect = guard["seconds"], guard["expect"]
    assert isinstance(seconds, (int, float)) and not isinstance(seconds, bool)
    assert seconds > 0
    assert sorted(expect) == ["exit", "report"]
    assert expect["exit"] in EXIT_CODES
    assert isinstance(expect["report"], dict) and expect["report"]
    query = guard["query"]
    if isinstance(query, str):
        with pytest.raises((ValueError, RecursionError)):
            json.loads(query)
        return
    try:
        cli.query_from_dict(query)
    except Exception as exc:
        assert cli._error_kind(exc) == (expect["report"]["error"]["kind"], expect["exit"])


class TestMatching:
    def test_dicts_match_as_recursive_subsets(self):
        report = {"verdict": "DISPERSION", "certificate": {"dispersion": 0}, "case": "shift"}
        assert matches({"certificate": {"dispersion": 0}}, report)
        assert matches({}, report)
        assert not matches({"certificate": {"dispersion": 1}}, report)
        assert not matches({"certificate": {"dispersion": 0, "n": 1}}, report)
        assert not matches({"q": None}, report)

    def test_other_values_match_by_type_and_value(self):
        assert not matches(0, False)
        assert not matches(2, 2.0)
        assert not matches({"verdict": "SOLVED"}, {"verdict": {"SOLVED": 1}})

    def test_check_output(self):
        expect = {"exit": 2, "report": {"error": {"kind": "bound-exceeded"}}}
        line = '{"error": {"line": 1, "message": "m", "kind": "bound-exceeded"}}\n'
        assert check_output(expect, 2, line) is None
        assert check_output(expect, 1, line) == "exit 1, expected 2"
        assert check_output(expect, 2, line * 2) == "2 reports, expected 1"
        assert check_output(expect, 2, "").startswith("0 reports")
        assert check_output(expect, 2, line.replace("bound-exceeded", "parse")).startswith("report ")
        assert check_output(expect, 2, "Traceback").startswith("not a JSON report")
