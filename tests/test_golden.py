"""Pinned CLI outputs: each hand-written query in data/golden_reports.json
must still give the exact JSON report (``timing_ms`` left out) and exit code
recorded there, both as a batch line and as a command line.  The queries
cover all eleven subcommands, the shift and q cases and every verdict, plus
a few error reports.

A change that is meant to alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and its diff shows every report that moved.
"""

import contextlib
import io
import json
import os

import pytest

from diffalg import cli

DATA_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_reports.json")

QUERIES = [
    # disp
    {"subcommand": "disp", "poly": "x*(x-3)*(x+2)"},
    {"subcommand": "disp", "f": "(x+1)/(x*(x+5)^2)"},
    {"subcommand": "disp", "case": "q", "q": "2", "poly": "(x-1)*(x-8)*(x+3)", "f": "(x-3)/((x-1)*(x-4))"},
    {"subcommand": "disp", "case": "q", "q": "1/4", "poly": "x^2*(x-1)*(4*x-1)"},
    # standard-form
    {"subcommand": "standard-form", "f": "1/x + 1/(x+3)"},
    {"subcommand": "standard-form", "f": "x^2 + 1/(x*(x+2)^2)", "a": "2"},
    {"subcommand": "standard-form", "case": "q", "q": "2", "f": "x + 1/x + 1/((x-1)*(x-4))"},
    {"subcommand": "standard-form", "case": "q", "q": "1/4", "f": "1/(x*(x-1)*(4*x-1))", "a": "3"},
    # mult-form
    {"subcommand": "mult-form", "f": "x*(x+3)^2/(x+1)"},
    {"subcommand": "mult-form", "f": "(x^2+1)*((x+2)^2+1)/(x-4)"},
    {"subcommand": "mult-form", "case": "q", "q": "2", "f": "(x-1)^2/((x-8)*x)"},
    {"subcommand": "mult-form", "case": "q", "q": "-3", "f": "(x+1)*(x-9)^3/(x-3)"},
    {"subcommand": "mult-form", "f": "(x+7)^2*(x+2)/(x^3*(x+4))"},
    {"subcommand": "mult-form", "case": "q", "q": "1/4", "f": "(x-16)^2*(x-1)/((x-4)^3*(4*x-1))"},
    # solve-first-order
    {"subcommand": "solve-first-order", "a": "x", "rhs": "(x+1)^2 - x^3"},
    {"subcommand": "solve-first-order", "a": "1", "rhs": "1/x"},
    {"subcommand": "solve-first-order", "a": "1", "rhs_basis": "1/x;1/(x+1);x"},
    {"subcommand": "solve-first-order", "a": "x+1", "rhs": "x^3", "degree_cap": 0},
    {"subcommand": "solve-first-order", "case": "q", "q": "2", "a": "2", "rhs": "x^2 + 1/x"},
    {"subcommand": "solve-first-order", "case": "q", "q": "2", "a": "1", "rhs": "1/(x-1)"},
    {"subcommand": "solve-first-order", "case": "q", "q": "1/4", "a": "x", "rhs": "1/(x-1)", "rhs_basis": "1;x"},
    # solve-scalar
    {"subcommand": "solve-scalar", "coeffs": "x;-(x+1)", "rhs": "1"},
    {"subcommand": "solve-scalar", "coeffs": "-1;1", "rhs": "1/x"},
    {"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x^3", "degree_cap": 0},
    {"subcommand": "solve-scalar", "coeffs": "x+1", "rhs": "x", "rhs_basis": "1/x"},
    {"subcommand": "solve-scalar", "coeffs": "x*(x+1);-2*x;1", "rhs_basis": "1;x;x^2"},
    {"subcommand": "solve-scalar", "case": "q", "q": "1/4", "coeffs": "1;-x;x^2", "rhs": "x^3 - 1"},
    {"subcommand": "solve-scalar", "case": "q", "q": "3/2", "coeffs": "x-1;2", "rhs_basis": "1;1/x"},
    # solve-system
    {"subcommand": "solve-system", "matrix": "[[1,x],[0,2]]", "rhs_vector": "[1, x]"},
    {"subcommand": "solve-system", "matrix": "[[1,0],[0,1]]"},
    {"subcommand": "solve-system", "matrix": "[[1,0],[0,1]]", "rhs_vector": "[1/x, 0]"},
    {"subcommand": "solve-system", "matrix": "[[1,x],[0,1]]", "rhs_vector": "[x^4, x^3]", "degree_cap": 1},
    {"subcommand": "solve-system", "case": "q", "q": "2", "matrix": "[[2,0],[x,1/2]]", "rhs_vector": "[x, 1]"},
    {"subcommand": "solve-system", "case": "q", "q": "2", "matrix": "[[2,0],[0,3]]", "rhs_vector": "[2*x^2, -2]"},
    {"subcommand": "solve-system", "matrix": "[[1,1,0],[0,1,1],[0,0,1]]", "rhs_vector": "[0, 0, 1]"},
    {"subcommand": "solve-system", "matrix": "[[1,1],[x,x]]"},
    # telescope
    {"subcommand": "telescope", "funcs": "1/x;1/(x+1)", "order_bound": 1},
    {"subcommand": "telescope", "funcs": "1/x", "order_bound": 2},
    {"subcommand": "telescope", "case": "q", "q": "2", "funcs": "1/(x-1);1/(x-2)", "order_bound": 1},
    # da-hypergeom
    {"subcommand": "da-hypergeom", "b": "2*(x+1)/x"},
    {"subcommand": "da-hypergeom", "b": "x"},
    {"subcommand": "da-hypergeom", "case": "q", "q": "2", "b": "x^2*(2*x-1)/(x-1)"},
    {"subcommand": "da-hypergeom", "case": "q", "q": "1/4", "b": "x-1"},
    # da-inhomog
    {"subcommand": "da-inhomog", "a": "2", "b": "1/(x+1) - 2/x"},
    {"subcommand": "da-inhomog", "a": "x", "b": "(x+1)^2 - x^3"},
    {"subcommand": "da-inhomog", "a": "1", "b": "1/x"},
    {"subcommand": "da-inhomog", "case": "q", "q": "2", "a": "3", "b": "3*x - 3"},
    # integrability
    {"subcommand": "integrability", "matrix": "[[0,-1],[1,x]]"},
    {"subcommand": "integrability", "matrix": "[[1,x],[0,1]]"},
    {"subcommand": "integrability", "case": "q", "q": "2", "matrix": "[[2,0],[1,1]]"},
    {"subcommand": "integrability", "case": "q", "q": "2", "matrix": "[[0,-1],[1,x]]"},
    # classify-group
    {"subcommand": "classify-group", "f": "1/x - 1/(x+1)"},
    {"subcommand": "classify-group", "f": "1/x"},
    {"subcommand": "classify-group", "case": "q", "q": "2", "f": "1"},
    {"subcommand": "classify-group", "case": "q", "q": "2", "f": "1/(x-1)"},
    # error reports
    {"subcommand": "da-hypergeom", "b": "x +"},
    {"subcommand": "mult-form", "f": "0"},
    {"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x", "degree_cap": -3},
    # constant twist: sigma(g) - a*g = rhs after the additive standard decomposition
    {"subcommand": "solve-first-order", "case": "q", "q": "2", "a": "1/4", "rhs_basis": "x^-3;x^2+1/x"},
    {"subcommand": "solve-first-order", "case": "q", "q": "2", "a": "1/4", "rhs": "1/x^2+x", "rhs_basis": "1"},
    {"subcommand": "solve-first-order", "case": "q", "q": "1/4", "a": "16", "rhs": "1/(x-1)-1/(16*x-1)+x^-1"},
    {"subcommand": "solve-first-order", "case": "q", "q": "-3", "a": "9", "rhs": "x^2", "rhs_basis": "x^-1"},
    {"subcommand": "solve-first-order", "a": "-1", "rhs": "1/x", "rhs_basis": "1;x"},
    {"subcommand": "classify-group", "f": "x^7 - 1/(x*(x+12))"},
    {"subcommand": "classify-group", "case": "q", "q": "3", "f": "1/x^2 + 5 + x"},
    {"subcommand": "da-inhomog", "case": "q", "q": "2", "a": "8", "b": "1/x + x^3"},
    # the kernel x*(x+1)*...*(x+199) has degree 200, the default cap: a
    # denominator with backward orbit chains would lift the bound above it
    {"subcommand": "solve-scalar", "coeffs": "x+200;-x", "rhs": "1"},
]


def run_one(line: dict) -> tuple[dict, int]:
    """The report a single CLI query prints, and its exit code."""
    try:
        report, code = cli.run_query(cli.query_from_dict(line))
    except Exception as exc:
        kind, code = cli._error_kind(exc)
        return {"error": {"message": str(exc), "kind": kind}}, code
    out = report.to_json_dict()
    del out["timing_ms"]
    return out, code


def _load():
    with open(DATA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_pinned_queries_are_current():
    assert [entry["query"] for entry in _load()] == QUERIES


@pytest.mark.parametrize("index", range(len(QUERIES)))
def test_report_unchanged(index):
    entry = _load()[index]
    report, code = run_one(entry["query"])
    assert (report, code) == (entry["report"], entry["exit_code"])


def argv_of(line: dict, joined: bool) -> list[str]:
    """The command line of a query: one ``--key-with-dashes`` flag per field,
    followed by ``=value`` when ``joined``, else by the value as the next
    argument (a value such as ``-1;1`` must not read as a flag either way)."""
    out = [line["subcommand"]]
    for key, value in line.items():
        if key != "subcommand":
            flag = f"--{key.replace('_', '-')}"
            out += [f"{flag}={value}"] if joined else [flag, str(value)]
    return out


@pytest.mark.parametrize("index", range(len(QUERIES)))
def test_command_line_matches_pinned_report(index):
    entry = _load()[index]
    for joined in (True, False):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv_of(entry["query"], joined))
        assert code == entry["exit_code"], joined
        if "error" in entry["report"]:
            assert stdout.getvalue() == ""
            assert json.loads(stderr.getvalue()) == entry["report"]
        else:
            report = json.loads(stdout.getvalue())
            del report["timing_ms"]
            assert report == entry["report"]
            assert stderr.getvalue() == ""


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_help_formats(name, capsys):
    assert cli.main([name, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: diffalg {name}")
    for key, _, _ in cli.COMMANDS[name][1]:
        assert f"--{key.replace('_', '-')}" in out


if __name__ == "__main__":
    entries = []
    for line in QUERIES:
        report, code = run_one(line)
        entries.append({"query": line, "report": report, "exit_code": code})
    os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
    with open(DATA_PATH, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
