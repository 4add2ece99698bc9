"""Expression parsing, query dispatch, JSON reports, batch mode, exit codes."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import SHIFT, Q2, rand_ratfun, rf
from diffalg import BoundExceededError, ParseError, Poly, Rat, RatFun, format_ratfun, parse_matrix, parse_ratfun
from diffalg import MatrixRF, MultStandardForm, ScalarDiffEq, StandardDecomp, cli, criteria, solver
from diffalg.cli import (
    EXIT_BOUND,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    Query,
    main,
    query_from_dict,
    run_batch,
    run_query,
)
from diffalg.parsing import MAX_COEFF_BITS, MAX_NESTING, format_rat, parse_poly_list, parse_ratfun_list

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "diffalg", "verdict_report.schema.json")


class TestParser:
    def test_simple_pole(self):
        f = parse_ratfun("1/x")
        assert f == RatFun(Poly.one(), Poly.x())

    def test_fixture_coefficient(self):
        f = parse_ratfun("(x-1)/(4*x-1)")
        assert f.num == Poly([Rat(-1, 4), Rat(1, 4)])  # monic denominator normalisation
        assert f.den == Poly([Rat(-1, 4), 1])

    def test_mixed_rational(self):
        assert parse_ratfun("x^2 + 1/2") == RatFun(Poly([1, 0, 2]), Poly([2]))

    def test_whitespace_insensitive(self):
        assert parse_ratfun(" x ^ 2+ 1 / 2 ") == parse_ratfun("x^2+1/2")

    def test_precedence(self):
        assert parse_ratfun("2*x^2") == rf("2*(x^2)")
        assert parse_ratfun("-x^2") == -rf("x^2")
        assert parse_ratfun("1 - 2/x") == rf("(x-2)/x")

    def test_negative_exponent(self):
        assert parse_ratfun("x^-2") == rf("1/x^2")

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_ratfun("x + $")
        assert err.value.position == 4

    def test_matrix_entry_error_position_is_absolute(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("[[1,x+$],[0,1]]")
        assert str(err.value) == "unexpected character '$' (at position 6)"
        with pytest.raises(ParseError) as err:
            parse_matrix("[[1, ],[0,1]]")
        assert str(err.value) == "empty matrix entry (at position 4)"

    def test_list_item_error_position_is_absolute(self):
        with pytest.raises(ParseError) as err:
            parse_poly_list("x+1; x + $")
        assert str(err.value) == "unexpected character '$' (at position 9)"
        with pytest.raises(ParseError) as err:
            parse_poly_list("x;  1/x")
        assert str(err.value) == "expected a polynomial (no denominator) (at position 4)"

    def test_list_skips_empty_items(self):
        assert parse_ratfun_list(" ;1;; x ;") == [rf("1"), rf("x")]
        assert parse_ratfun_list("  ") == []

    def test_literals_are_decimal_digits(self):
        assert parse_ratfun("\u0663 + x") == rf("3 + x")  # ARABIC-INDIC DIGIT THREE
        for text, position in (("\u00b2", 0), ("x^\u00b2", 2), ("1\u00b2", 1)):
            with pytest.raises(ParseError) as err:
                parse_ratfun(text)
            assert err.value.position == position

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_ratfun("x + 1) * 2")

    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse_ratfun("1/(x - x)")

    def test_matrix(self):
        m = parse_matrix("[[0,-1],[1,x]]")
        assert m.n == 2
        assert m.entries[1][1] == rf("x")

    def test_matrix_must_be_square(self):
        with pytest.raises(ParseError):
            parse_matrix("[[1,2,3],[4,5,6]]")

    def test_print_parse_roundtrip_fuzz(self):
        rng = random.Random(501)
        for _ in range(200):
            ds = SHIFT if rng.random() < 0.5 else Q2
            f = rand_ratfun(rng, ds)
            assert parse_ratfun(format_ratfun(f)) == f


def _query(sub: str, case: str = "shift", q: str | None = None, **payload) -> Query:
    return Query(
        subcommand=sub,
        case=case,
        q_value=Rat(*map(int, q.split("/"))) if q and "/" in q else (Rat(int(q)) if q else None),
        payload=payload,
        order_bound=payload.pop("order_bound", 3) if "order_bound" in payload else 3,
    )


class TestParserCaps:
    @pytest.mark.parametrize(
        "text",
        [
            "x^99999999",
            "x^-99999999",
            "x^257",
            "(x^2+1)^200",
            "x^200*x^100",
            "(9^256)^256",
            "9" * 5000,
            "*".join(["9^256"] * 20),
            "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
        ],
    )
    def test_oversized_input_is_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_ratfun(text)

    def test_inputs_at_the_caps_parse(self):
        assert parse_ratfun("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == rf("x")
        assert parse_ratfun("x^256").num.degree == 256
        assert parse_ratfun("x^-256").den.degree == 256
        assert parse_ratfun("x^256 + x^200").num.degree == 256

    def test_huge_exponent_cli_is_fast_parse_error(self, capsys):
        start = time.monotonic()
        code = main(["disp", "--f", "x^99999999"])
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_huge_exponent_batch_line_is_fast_parse_error(self, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text(
            json.dumps({"subcommand": "disp", "f": "x^99999999"})
            + "\n"
            + json.dumps({"subcommand": "da-hypergeom", "b": "x"})
            + "\n"
        )
        start = time.monotonic()
        reports, code = run_batch(str(path))
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert reports[0]["error"]["kind"] == "parse"
        assert reports[1]["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"


class TestInputBoundary:
    """Inputs that once escaped every parser cap as ``internal`` errors."""

    @pytest.mark.parametrize(
        "line, kind, code",
        [
            ({"subcommand": "integrability", "matrix": "[[1,x+$],[0,1]]"}, "parse", EXIT_USAGE),
            ({"subcommand": "solve-scalar", "coeffs": "x+1; x + $"}, "parse", EXIT_USAGE),
            ({"subcommand": "da-hypergeom", "b": "\u00b2"}, "parse", EXIT_USAGE),
            ({"subcommand": "da-hypergeom", "b": "x^\u00b2"}, "parse", EXIT_USAGE),
            ({"subcommand": "da-hypergeom", "b": "(" * 250 + "x" + ")" * 250}, "parse", EXIT_USAGE),
            ('{"subcommand": "disp", "poly": ' + "[" * 50000 + "]" * 50000 + "}", "parse", EXIT_USAGE),
            ({"subcommand": "disp", "poly": f"x*(x+{2 ** 3000})"}, None, EXIT_OK),
            ({"subcommand": "solve-scalar", "coeffs": f"x;-(x+{2 ** 900})"}, "bound-exceeded", EXIT_BOUND),
            ({"subcommand": "solve-scalar", "coeffs": f"x;-(x+{2 ** 3000})"}, "bound-exceeded", EXIT_BOUND),
            ({"subcommand": "standard-form", "f": f"1/x + 1/(x+{2 ** 900})"}, "bound-exceeded", EXIT_BOUND),
            # a q orbit window of about 6.9 million gaps
            ({"subcommand": "disp", "case": "q", "q": "1000001/1000000", "poly": "(x-1)*(x-1000)"},
             "bound-exceeded", EXIT_BOUND),
        ],
        ids=["matrix-entry", "list-item", "superscript", "superscript-exponent", "nesting",
             "deep-json", "huge-root", "sigma-2^900", "sigma-2^3000", "standard-form-2^900", "q-near-1"],
    )
    def test_kind_and_exit_code(self, line, kind, code, tmp_path, capsys):
        path = tmp_path / "line.jsonl"
        path.write_text((line if isinstance(line, str) else json.dumps(line)) + "\n")
        reports, batch_code = run_batch(str(path))
        if isinstance(line, dict):
            argv = [line["subcommand"]] + [f"--{k}={v}" for k, v in line.items() if k != "subcommand"]
        else:
            argv = ["batch", str(path)]
        main_code = main(argv)
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert batch_code == main_code == code
        report = reports[0]
        main_report = json.loads(out.out or out.err)
        if kind is None:
            assert report == {**main_report, "timing_ms": report["timing_ms"]}
            assert report["certificate"] == {"dispersion": 2 ** 3000}
        else:
            assert report["error"]["kind"] == kind
            assert main_report["error"]["kind"] == kind


class TestNegativeDegreeCap:
    def test_cli_rejects_negative_cap(self, capsys):
        code = main(["solve-scalar", "--coeffs", "1;1", "--rhs", "x", "--degree-cap", "-3"])
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_batch_rejects_negative_cap(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        line = {"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x", "degree_cap": -3}
        path.write_text(json.dumps(line) + "\n")
        reports, code = run_batch(str(path))
        assert code == EXIT_USAGE
        assert reports[0]["error"]["kind"] == "parse"

    def test_zero_cap_still_allowed(self):
        report, code = run_query(Query("solve-scalar", payload={"coeffs": "1;1", "rhs": "x^3"}, degree_cap=0))
        assert report.verdict == "BOUND_EXCEEDED"
        assert code == EXIT_BOUND


class TestNegativeOrderBound:
    def test_cli_rejects_negative_order_bound(self, capsys):
        code = main(["telescope", "--funcs", "1/x", "--order-bound", "-1"])
        assert code == EXIT_USAGE
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "parse"
        assert "order bound must be >= 0, got -1" in error["message"]

    def test_batch_rejects_negative_order_bound(self, tmp_path):
        line = {"subcommand": "telescope", "funcs": "1/x", "order_bound": -1}
        path = tmp_path / "order.jsonl"
        path.write_text(json.dumps(line) + "\n")
        reports, code = run_batch(str(path))
        assert code == EXIT_USAGE
        assert reports[0]["error"]["kind"] == "parse"
        assert "order bound must be >= 0, got -1" in reports[0]["error"]["message"]

    def test_zero_order_bound_still_allowed(self):
        assert Query("telescope", payload={"funcs": "1/x"}, order_bound=0).order_bound == 0


class TestOrderBoundCap:
    def test_cli_huge_order_bound_is_fast_parse_error(self, capsys):
        start = time.monotonic()
        code = main(["telescope", "--funcs", "1/x", "--order-bound", "100000"])
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_batch_huge_order_bound_is_fast_parse_error(self, tmp_path):
        line = {"subcommand": "telescope", "funcs": "1/x", "order_bound": 100000}
        with pytest.raises(ParseError):
            query_from_dict(line)
        path = tmp_path / "order.jsonl"
        path.write_text(json.dumps(line) + "\n")
        start = time.monotonic()
        reports, code = run_batch(str(path))
        assert time.monotonic() - start < 1.0
        assert code == EXIT_USAGE
        assert reports[0]["error"]["kind"] == "parse"

    def test_order_bound_at_the_cap_accepted(self):
        line = {"subcommand": "telescope", "funcs": "1/x", "order_bound": cli.MAX_ORDER_BOUND}
        assert query_from_dict(line).order_bound == cli.MAX_ORDER_BOUND

    def test_null_order_bound_is_the_default(self):
        line = {"subcommand": "telescope", "funcs": "1/x", "order_bound": None}
        assert query_from_dict(line).order_bound == 3


# the q = 1/4 family with coefficients (1/4)^k at k = 80: SOLVED, with a
# solution whose coefficients run to about 31000 bits
_HUGE_RESULT = {
    "subcommand": "solve-scalar",
    "case": "q",
    "q": "1/4",
    "coeffs": "5*(1/4)^80*x+1;-((1/4)^80+5)*x+2;x+3",
    "rhs": "x^2+1",
}


class TestResultSizeCap:
    def test_cli_reports_bound_exceeded(self, capsys):
        q = _HUGE_RESULT
        code = main(["solve-scalar", "--case", "q", "--q", q["q"], f"--coeffs={q['coeffs']}", f"--rhs={q['rhs']}"])
        assert code == EXIT_BOUND
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["kind"] == "bound-exceeded"
        assert f"above the cap of {MAX_COEFF_BITS} bits" in error["message"]

    def test_batch_line_reports_bound_exceeded(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps(_HUGE_RESULT) + "\n" + json.dumps({"subcommand": "da-hypergeom", "b": "x"}) + "\n")
        reports, code = run_batch(str(path))
        assert code == EXIT_BOUND
        assert reports[0]["error"]["kind"] == "bound-exceeded"
        assert reports[0]["error"]["line"] == 1
        assert reports[1]["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"

    def test_printing_at_the_cap(self):
        # bits(numerator) + bits(denominator): 8191 + 1 is at the cap
        at_cap = Rat(2**8191 - 1)
        assert format_rat(at_cap) == str(at_cap)
        assert format_ratfun(RatFun.const(at_cap)) == str(at_cap)
        assert format_ratfun(RatFun.x() / at_cap) == f"1/{at_cap}*x"
        for over in (Rat(2**8191), Rat(1, 2**8191), Rat(3, 2**8190)):
            with pytest.raises(BoundExceededError):
                format_rat(over)
            with pytest.raises(BoundExceededError):
                format_ratfun(RatFun.x() + over)


class TestMainErrorPath:
    def test_unexpected_exception_is_internal(self, capsys, monkeypatch):
        def broken(query):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "run_query", broken)
        code = main(["disp", "--f", "x"])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: boom" in err
        assert json.loads(err.strip().splitlines()[-1]) == {"error": {"message": "boom", "kind": "internal"}}


class TestCertificateChecks:
    """The procedure that makes a certificate checks it once; the CLI checks
    nothing itself, so a failed check ends the query as ``internal``."""

    # kind -> (owner and name of its verifier, a query whose verdict carries it)
    CASES = {
        "twisted-ratio": (criteria, "verify_twisted_ratio", ["da-hypergeom", "--b", "3*(x+1)/x"]),
        "first-order-da": (criteria, "verify_first_order_witness", ["da-inhomog", "--a", "2", "--b", "1"]),
        "first-order-rational": (criteria, "verify_first_order_witness", ["da-inhomog", "--a", "x", "--b", "1 - x"]),
        "telescoper": (criteria, "verify_telescoper", ["telescope", "--funcs", "1/x - 1/(x+1)"]),
        "conjugating-matrix": (criteria, "verify_conjugating_matrix", ["integrability", "--matrix", "[[1,x],[0,1]]"]),
        "summation": (criteria, "verify_summation", ["classify-group", "--f", "1"]),
        "additive-decomposition": (StandardDecomp, "reconstruct", ["standard-form", "--f", "1/x + 1/(x+2)"]),
        "multiplicative-form": (MultStandardForm, "reconstruct", ["mult-form", "--f", "(x+1)/x"]),
        "scalar-space": (solver, "_verify_space", ["solve-scalar", "--coeffs", "-1;1", "--rhs", "x"]),
        "first-order-space": (solver, "_verify_space", ["solve-first-order", "--a", "2", "--rhs", "1"]),
        "system-space": (solver, "_verify_system", ["solve-system", "--matrix", "[[1,0],[0,1]]"]),
    }
    # the solution-space verifiers raise rather than return False: break
    # what they substitute through instead
    BREAK = {
        "_verify_space": (ScalarDiffEq, "residual", lambda *args: RatFun.one()),
        "_verify_system": (MatrixRF, "mat_vec", lambda m, vec: [RatFun.one()] * m.n),
    }

    @pytest.mark.parametrize("kind", CASES)
    def test_checked_once(self, kind, monkeypatch, capsys):
        owner, name, argv = self.CASES[kind]
        real, calls = getattr(owner, name), []
        monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["substitution_verified"]
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", CASES)
    def test_failed_check_is_internal(self, kind, monkeypatch, capsys):
        owner, name, argv = self.CASES[kind]
        monkeypatch.setattr(*self.BREAK.get(name, (owner, name, lambda *args: False)))
        assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip().splitlines()[-1])["error"]["kind"] == "internal"


class TestRunQuery:
    def test_gamma_ratio(self):
        report, code = run_query(_query("da-hypergeom", b="x"))
        assert report.verdict == "DIFFERENTIALLY_TRANSCENDENTAL"
        assert code == EXIT_OK

    def test_group_full_ga(self):
        report, code = run_query(_query("classify-group", case="q", q="2", f="1/(x-1)"))
        assert report.verdict == "FULL_GA"
        assert code == EXIT_OK

    def test_integrability_negative(self):
        report, code = run_query(_query("integrability", matrix="[[0,-1],[1,x]]"))
        assert report.verdict == "NOT_CONSTANT_CONJUGATE"
        assert code == EXIT_OK

    def test_positive_verdicts_are_substitution_verified(self):
        cases = [
            _query("da-hypergeom", b="3*(x+1)/x"),
            _query("da-inhomog", a="2", b="1"),
            _query("da-inhomog", case="q", q="2", a="2", b="x"),
            _query("da-inhomog", a="x", b="1 - x"),
            _query("da-hypergeom", case="q", q="2", b="3/x^2"),
            _query("integrability", matrix="[[1,x],[0,1]]"),
            _query("classify-group", f="1"),
            _query("classify-group", case="q", q="2", f="2*x - x + 1"),
            _query("standard-form", f="1/x + 1/(x+2)", a="1"),
            _query("mult-form", f="(x+1)/x"),
            _query("solve-first-order", a="2", rhs="1"),
            _query("integrability", matrix="[[1,0],[0,1]]"),
            _query("telescope", funcs="1/x - 1/(x+1)"),
        ]
        for q in cases:
            report, code = run_query(q)
            assert code == EXIT_OK
            assert report.substitution_verified, (q.subcommand, report.verdict)

    def test_bound_exceeded_exit_code(self):
        # the constant-twist first-order path honours the cap like every ansatz
        cases = [
            (_query("solve-scalar", coeffs="1;1", rhs="x^3"), 0),
            (_query("solve-first-order", a="1", rhs="x^3"), 2),
        ]
        for q, cap in cases:
            report, code = run_query(q._replace(degree_cap=cap))
            assert report.verdict == "BOUND_EXCEEDED", q.subcommand
            assert code == EXIT_BOUND

    def test_reports_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        with open(SCHEMA_PATH) as fh:
            schema = json.load(fh)
        queries = [
            _query("da-hypergeom", b="x"),
            _query("da-hypergeom", case="q", q="2", b="5*x^3"),
            _query("disp", f="1/x + 1/(x+2)"),
            _query("disp", poly="x*(x+3)"),
            _query("standard-form", f="1/x - 1/(x+1)"),
            _query("mult-form", f="x"),
            _query("solve-first-order", a="1", rhs="1/x"),
            _query("solve-scalar", coeffs="-1;1", rhs="1/(x*(x+1))"),
            _query("solve-system", matrix="[[1,0],[0,1]]"),
            _query("telescope", funcs="1/x"),
            _query("da-inhomog", a="x", b="1"),
            _query("integrability", matrix="[[0,-1],[1,x]]"),
            _query("classify-group", f="1/x"),
        ]
        for q in queries:
            report, _ = run_query(q)
            jsonschema.validate(report.to_json_dict(), schema)

    def test_deterministic_output(self):
        a = run_query(_query("da-hypergeom", b="3*(x+1)/x"))[0].to_json_dict()
        b = run_query(_query("da-hypergeom", b="3*(x+1)/x"))[0].to_json_dict()
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a) == json.dumps(b)
        assert list(a.keys()) == [
            "subcommand",
            "case",
            "q",
            "verdict",
            "certificate",
            "substitution_verified",
            "hypothesis_notes",
        ]


class TestBatch:
    def test_three_queries_order_preserved(self, tmp_path):
        lines = [
            {"subcommand": "da-hypergeom", "case": "shift", "b": "x"},
            {"subcommand": "classify-group", "case": "q", "q": "2", "f": "1/(x-1)"},
            {"subcommand": "integrability", "case": "shift", "matrix": "[[0,-1],[1,x]]"},
        ]
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        reports, code = run_batch(str(path))
        assert code == EXIT_OK
        assert [r["verdict"] for r in reports] == [
            "DIFFERENTIALLY_TRANSCENDENTAL",
            "FULL_GA",
            "NOT_CONSTANT_CONJUGATE",
        ]
        assert [r["subcommand"] for r in reports] == [l["subcommand"] for l in lines]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        reports, code = run_batch(str(path))
        assert reports == []
        assert code == EXIT_OK

    def test_malformed_line_isolated(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"subcommand": "da-hypergeom", "b": "x"})
            + "\nthis is not json\n"
            + json.dumps({"subcommand": "classify-group", "f": "1"})
            + "\n"
        )
        reports, code = run_batch(str(path))
        assert code == EXIT_USAGE
        assert reports[0]["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"
        assert "error" in reports[1]
        assert reports[1]["error"]["line"] == 2
        assert reports[2]["verdict"] == "TRIVIAL"

    def test_main_prints_the_reports_of_run_batch(self, tmp_path, capsys):
        # main prints run_batch's reports, and each is its line's report as a
        # single query, timing aside
        lines = [{"subcommand": "da-hypergeom", "case": "shift", "b": f"{k}*(x+1)/x"} for k in range(1, 9)]
        lines += [
            {"subcommand": "classify-group", "case": "q", "q": "2", "f": "1/(x-1)"},
            {"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x^3", "degree_cap": 0},
            {"subcommand": "telescope", "funcs": "1/(x^2+1)", "order_bound": 1},
        ]
        path = tmp_path / "many.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines))
        reports, code = run_batch(str(path))
        assert main(["batch", str(path)]) == code == EXIT_BOUND
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        singles = [run_query(query_from_dict(line))[0].to_json_dict() for line in lines]
        for group in (reports, printed, singles):
            for report in group:
                del report["timing_ms"]
        assert printed == reports == singles

    def test_main_prints_each_report_before_the_next_line_runs(self, tmp_path, capsys, monkeypatch):
        real, printed_before = cli.run_query, []

        def counting(query):
            printed_before.append(len(capsys.readouterr().out.splitlines()))
            return real(query)

        monkeypatch.setattr(cli, "run_query", counting)
        path = self._write(tmp_path, [{"subcommand": "da-hypergeom", "b": f"{k}*x"} for k in range(1, 5)])
        assert main(["batch", path]) == EXIT_OK
        assert printed_before == [0, 1, 1, 1]

    @pytest.mark.parametrize(
        "first",
        [
            '\ufeff{"subcommand": "da-hypergeom", "b": "x"}',
            '{"subcommand": "da-hypergeom", "b": "x\u2028"}',
            '{"subcommand": "da-hypergeom", "b": "x\u2029\x85"}',
        ],
        ids=["byte-order-mark", "u2028", "u2029-nel"],
    )
    def test_one_report_per_physical_line(self, tmp_path, first):
        # a file may open with a BOM, and JSON strings may hold a raw U+2028,
        # U+2029 or NEL; neither adds a report or shifts a line number
        path = tmp_path / "lines.jsonl"
        path.write_text(first + "\n\nnot json\r\n" + json.dumps({"subcommand": "classify-group", "f": "1"}),
                        encoding="utf-8")
        reports, code = run_batch(str(path))
        assert code == EXIT_USAGE
        assert [r.get("verdict") for r in reports] == ["DIFFERENTIALLY_TRANSCENDENTAL", None, "TRIVIAL"]
        assert reports[1]["error"]["line"] == 3

    def test_main_prints_one_report_per_line(self, tmp_path, capsys):
        lines = [
            json.dumps({"subcommand": "da-hypergeom", "b": "x"}),
            "",
            "this is not json",
            json.dumps({"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x^3", "degree_cap": 0}),
            json.dumps({"subcommand": "classify-group", "f": "1"}),
        ]
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(lines) + "\n")
        # the largest line code: the bad line exits 1, the BOUND_EXCEEDED verdict 2
        assert main(["batch", str(path)]) == EXIT_BOUND
        out = capsys.readouterr()
        reports = [json.loads(line) for line in out.out.splitlines()]
        assert [r.get("verdict") for r in reports] == [
            "DIFFERENTIALLY_TRANSCENDENTAL", None, "BOUND_EXCEEDED", "TRIVIAL",
        ]
        assert reports[1]["error"]["line"] == 3
        assert reports[1]["error"]["kind"] == "parse"
        assert out.err == ""

    def _write(self, tmp_path, lines):
        path = tmp_path / "lines.jsonl"
        path.write_text("\n".join(l if isinstance(l, str) else json.dumps(l) for l in lines) + "\n")
        return str(path)

    def test_wrong_field_types_are_parse_errors(self, tmp_path):
        bad = [
            {"subcommand": "disp", "poly": 5},
            {"subcommand": "telescope", "funcs": "1/x", "degree_cap": "abc"},
            {"subcommand": "telescope", "funcs": "1/x", "order_bound": True},
            {"subcommand": "telescope", "funcs": "1/x", "order_bound": 1.5},
            {"subcommand": "da-hypergeom", "case": "z", "b": "x"},
        ]
        for obj in bad:
            with pytest.raises(ParseError):
                query_from_dict(obj)
        reports, code = run_batch(self._write(tmp_path, bad + [{"subcommand": "da-hypergeom", "b": "x"}]))
        assert code == EXIT_USAGE
        assert [r["error"]["kind"] for r in reports[:-1]] == ["parse"] * len(bad)
        assert [r["error"]["line"] for r in reports[:-1]] == list(range(1, len(bad) + 1))
        assert reports[-1]["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"

    def test_unknown_fields_are_parse_errors(self, tmp_path):
        typo = {"subcommand": "solve-scalar", "coeffs": "-1;1", "rhs-basis": "1"}
        foreign = {"subcommand": "da-hypergeom", "b": "x", "a": "1"}
        stray_order_bound = {"subcommand": "da-hypergeom", "b": "x", "order_bound": 2}
        for obj in (typo, foreign, stray_order_bound):
            with pytest.raises(ParseError):
                query_from_dict(obj)
        good = {"subcommand": "classify-group", "f": "1"}
        reports, code = run_batch(self._write(tmp_path, [good, typo, good, foreign, stray_order_bound]))
        assert code == EXIT_USAGE
        assert [r["error"]["line"] for r in reports[1::2]] == [2, 4]
        assert [r["error"]["kind"] for r in reports[1::2]] == ["parse", "parse"]
        assert "'rhs-basis'" in reports[1]["error"]["message"]
        assert "'a'" in reports[3]["error"]["message"]
        assert reports[4]["error"] == {
            "line": 5, "message": "unknown field 'order_bound' for da-hypergeom (at position 0)", "kind": "parse",
        }
        assert reports[0]["verdict"] == reports[2]["verdict"] == "TRIVIAL"

    def test_empty_q_is_parse_error(self, tmp_path, capsys):
        line = {"subcommand": "da-hypergeom", "b": "x", "q": ""}
        reports, code = run_batch(self._write(tmp_path, [line]))
        assert code == EXIT_USAGE
        assert reports[0]["error"]["kind"] == "parse"
        # the command line goes through the same check: an empty --q is not absent
        assert main(["da-hypergeom", "--b", "x", "--q", ""]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"] == {
            "message": reports[0]["error"]["message"], "kind": "parse",
        }

    @pytest.mark.parametrize(
        "line, message",
        [
            ([1, 2], "batch line must be a JSON object"),
            ({"subcommand": "da-hypergeom"}, "missing required argument --b"),
            ({"subcommand": "da-hypergeom", "case": "q", "b": "x"}, "q case requires --q"),
            ({"subcommand": "da-hypergeom", "case": "q", "q": "x", "b": "x"}, "--q must be a rational constant"),
            ({"subcommand": "standard-form", "f": "1/x", "a": "x"}, "--a must be a rational constant"),
            ({"subcommand": "disp"}, "disp needs --poly or --f"),
        ],
    )
    def test_rejected_line_is_parse_error(self, tmp_path, line, message):
        reports, code = run_batch(self._write(tmp_path, [line]))
        assert code == EXIT_USAGE
        assert reports[0]["error"] == {"line": 1, "message": f"{message} (at position 0)", "kind": "parse"}

    def test_bound_exceeded_line_matches_single_query(self, tmp_path, capsys):
        line = {"subcommand": "telescope", "funcs": "1/x + x^3", "order_bound": 2, "degree_cap": 0}
        reports, code = run_batch(self._write(tmp_path, [line, {"subcommand": "classify-group", "f": "1"}]))
        assert code == EXIT_BOUND
        assert reports[0]["error"]["kind"] == "bound-exceeded"
        assert reports[1]["verdict"] == "TRIVIAL"
        single = main(["telescope", "--funcs", "1/x + x^3", "--order-bound", "2", "--degree-cap", "0"])
        assert single == EXIT_BOUND
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "bound-exceeded"

    def test_pole_orbit_line_matches_single_query(self, tmp_path, capsys):
        # the pole orbit of 1/x certifies NO_SOLUTION at any cap; the kernel,
        # whose degree bound 4 is over the cap, is not listed, and the
        # witness says so
        line = {"subcommand": "solve-first-order", "a": "1", "rhs": "1/x", "rhs_basis": "x^3", "degree_cap": 2}
        reports, code = run_batch(self._write(tmp_path, [line]))
        single = main(["solve-first-order", "--a", "1", "--rhs", "1/x", "--rhs-basis", "x^3", "--degree-cap", "2"])
        report = json.loads(capsys.readouterr().out)
        assert code == single == EXIT_OK
        for out in (reports[0], report):
            del out["timing_ms"]
        assert reports[0] == report
        assert report["verdict"] == "NO_SOLUTION"
        assert report["certificate"] == {
            "homogeneous_basis": [],
            "witness": "pole-orbit obstruction: the standard part of the right-hand side keeps a pole "
            "block with denominator x (polar dispersion 0), which sigma(g) - a*g cannot produce; "
            "the homogeneous solutions are not listed: certified degree bound 4 exceeds cap 2",
        }

    def test_unexpected_exception_is_internal(self, tmp_path, monkeypatch):
        real = cli.run_query

        def flaky(query):
            if query.subcommand == "mult-form":
                raise RuntimeError("boom")
            return real(query)

        monkeypatch.setattr(cli, "run_query", flaky)
        reports, code = run_batch(self._write(tmp_path, [
            {"subcommand": "mult-form", "f": "x"},
            "not json",
            {"subcommand": "da-hypergeom", "b": "x"},
        ]))
        assert reports[0]["error"] == {"line": 1, "message": "boom", "kind": "internal"}
        assert reports[1]["error"]["kind"] == "parse"
        assert reports[2]["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"
        assert code == EXIT_INTERNAL

    def test_exit_code_is_largest_line_code(self, tmp_path):
        bound_verdict = {"subcommand": "solve-scalar", "coeffs": "1;1", "rhs": "x^3", "degree_cap": 0}
        reports, code = run_batch(self._write(tmp_path, [bound_verdict, {"subcommand": "da-hypergeom", "b": "x"}]))
        assert reports[0]["verdict"] == "BOUND_EXCEEDED"
        assert code == EXIT_BOUND
        _, code = run_batch(self._write(tmp_path, [bound_verdict, "{}"]))
        assert code == EXIT_BOUND


class TestMainEntry:
    def test_usage_error_exit_code(self):
        assert main(["da-hypergeom", "--b", "x +"]) == EXIT_USAGE

    def test_q_unit_modulus_rejected(self, capsys):
        code = main(["da-hypergeom", "--case", "q", "--q", "1", "--b", "x"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "|q|" in err or "q" in err

    def test_console_script_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diffalg.cli", "da-hypergeom", "--case", "shift", "--b", "x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"

    def test_missing_batch_file_is_usage_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent.jsonl")]) == EXIT_USAGE
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "usage"

    def test_query_from_dict_rejects_unknown(self):
        with pytest.raises(ParseError):
            query_from_dict({"subcommand": "explode"})


def _run_main(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommandLine:
    """A command line is read into the fields of a batch line: every usage
    error is one JSON error on stderr, with the kind, exit code and message
    of the batch line holding the same fields."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["solve-scalar", "--rhs", "x"], {"subcommand": "solve-scalar", "rhs": "x"}),
            (["solve-scalar", "--coeffs", "1;1", "--degree-cap", "2.5"],
             {"subcommand": "solve-scalar", "coeffs": "1;1", "degree_cap": 2.5}),
            (["solve-scalar", "--coeffs", "1;1", "--case", "z"],
             {"subcommand": "solve-scalar", "coeffs": "1;1", "case": "z"}),
            (["da-hypergeom", "--b", "x", "--foo", "1"], {"subcommand": "da-hypergeom", "b": "x", "foo": "1"}),
            (["telescope", "--funcs", "1/x", "--order", "5"],
             {"subcommand": "telescope", "funcs": "1/x", "order": 5}),
            (["da-hypergeom", "--b", "x", "--subcommand", "disp"], None),
            (["solve-scalar", "--coeffs", "1;1", "x"], None),
            (["solve-scalar", "--coeffs", "1;1", "--coeffs", "1;2"], None),
            (["solve-scalar", "--coeffs", "1;1", "--rhs"], None),
            (["explode", "--b", "x"], {"subcommand": "explode", "b": "x"}),
            ([], {}),
        ],
        ids=["missing-required", "non-integer-cap", "unknown-case", "unknown-flag", "abbreviated-flag",
             "repeated-subcommand", "stray-argument", "repeated-flag", "flag-without-value",
             "unknown-subcommand", "no-subcommand"],
    )
    def test_usage_error_matches_batch_line(self, argv, line, tmp_path, capsys):
        code, out, err = _run_main(argv, capsys)
        assert out == ""
        error = json.loads(err)["error"]
        assert (error["kind"], code) == ("parse", EXIT_USAGE)
        if line is not None:
            path = tmp_path / "line.jsonl"
            path.write_text(json.dumps(line) + "\n")
            reports, batch_code = run_batch(str(path))
            assert batch_code == code
            assert reports[0]["error"] == {"line": 1, **error}

    def test_missing_subcommand_is_named(self, capsys):
        # the batch line {} gives the same error (see no-subcommand above)
        _, _, err = _run_main([], capsys)
        assert json.loads(err)["error"]["message"].startswith("missing subcommand")

    def test_value_is_next_argument_whatever_it_starts_with(self, capsys):
        reports = []
        for argv in (["--coeffs", "-1;1", "--rhs", "-1/x"], ["--coeffs=-1;1", "--rhs=-1/x"]):
            code, out, err = _run_main(["solve-scalar", *argv], capsys)
            assert (code, err) == (EXIT_OK, "")
            reports.append(json.loads(out))
            del reports[-1]["timing_ms"]
        assert reports[0] == reports[1]
        assert reports[0]["verdict"] == "NO_SOLUTION"
        # "--help" as a value is text, not a request for help
        code, out, err = _run_main(["da-hypergeom", "--b", "--help"], capsys)
        assert (code, out, json.loads(err)["error"]["kind"]) == (EXIT_USAGE, "", "parse")

    def test_integer_fields_are_read_as_integers(self, capsys):
        argv = ["telescope", "--funcs", "1/x + x^3", "--order-bound=2", "--degree-cap", "0"]
        code, _, err = _run_main(argv, capsys)
        assert (code, json.loads(err)["error"]["kind"]) == (EXIT_BOUND, "bound-exceeded")
        code, _, err = _run_main(["telescope", "--funcs", "1/x", "--order-bound", "9" * 5000], capsys)
        assert (code, json.loads(err)["error"]["kind"]) == (EXIT_USAGE, "parse")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["explode", "--help"], ["batch", "--help"]])
    def test_top_level_help(self, argv, capsys):
        code, out, err = _run_main(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: diffalg SUBCOMMAND")
        assert all(name in out for name in cli.COMMANDS)

    @pytest.mark.parametrize(
        "argv",
        [["batch"], ["batch", "a.jsonl", "b.jsonl"], ["batch", "a.jsonl", "--workers", "two"],
         ["batch", "a.jsonl", "--path", "b.jsonl"], ["batch", "a.jsonl", "--workers"]],
        ids=["no-path", "two-paths", "non-integer-workers", "unknown-flag", "workers-without-value"],
    )
    def test_batch_usage_error(self, argv, capsys):
        code, out, err = _run_main(argv, capsys)
        assert (code, out, json.loads(err)["error"]["kind"]) == (EXIT_USAGE, "", "parse")

    def test_batch_workers(self, tmp_path, capsys):
        # a batch runs serially; --workers is an unknown flag like any other
        path = tmp_path / "lines.jsonl"
        path.write_text(json.dumps({"subcommand": "da-hypergeom", "b": "x"}) + "\n")
        for argv in (["batch", str(path), "--workers", "1"], ["batch", "--workers=2", str(path)]):
            code, out, err = _run_main(argv, capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert json.loads(err)["error"] == {"message": "usage: diffalg batch PATH (at position 0)", "kind": "parse"}
