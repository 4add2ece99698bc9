"""Command-line interface: subcommand dispatch, JSON verdict reports with
certificates that the library procedures have checked before returning, and
a newline-delimited batch mode.  The CLI substitutes nothing itself.

``COMMANDS`` is the one list of subcommands and of the arguments each takes;
the argument parser, the batch reader and ``run_query`` all read it.  A
command line and a batch line go through the same ``query_from_dict``: a
batch field is the long flag name with ``_`` for ``-`` (``rhs_basis`` for
``--rhs-basis``), and a field the subcommand does not take, a negative
``order_bound`` or ``degree_cap``, or an empty ``q`` is a ``parse`` error.

Exit codes: 0 = a verdict was produced (including negative verdicts),
1 = parse/usage error, 2 = a degree cap was exceeded or a result has a
coefficient above ``parsing.MAX_COEFF_BITS`` bits, 3 = internal invariant
violation, such as a certificate that failed its check.  A failed query
reports ``{"error": {"message", "kind"}}`` with kind ``parse``, ``usage``,
``bound-exceeded`` or ``internal``; a batch reports it in place of the
line's report, adds the line number, and exits with the largest per-line
code.  ``--degree-cap`` (batch ``degree_cap``) bounds the numerator degree
of every ansatz; it defaults to 200.

One process answers one query, so start-up is part of every query's
latency.  The package's records are named tuples, so a cold query imports
no data-class machinery, ``inspect`` or ``typing``; it loads the thread pool
only in ``run_batch`` and ``traceback`` only for an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple

from . import criteria, solver
from .dispersion import (
    additive_standard_decomp,
    dispersion as dispersion_of,
    is_standard,
    multiplicative_standard_form,
    polar_dispersion,
)
from .errors import BoundExceededError, DiffAlgError, InternalVerificationError, ParseError
from .numcore import Rat, RatFun
from .parsing import (
    MAX_ORDER_BOUND,
    format_rat,
    format_ratfun,
    parse_matrix,
    parse_poly,
    parse_poly_list,
    parse_ratfun,
    parse_ratfun_list,
    parse_vector,
)
from .solver import ScalarDiffEq
from .structures import DiffStructure, q_structure, shift_structure

REQUIRED = object()  # the default of an argument that has none

# subcommand -> (help, arguments); each argument is (payload key, help,
# default or REQUIRED), and its flag is the key with "-" for "_".  Every
# subcommand also takes --case, --q and --degree-cap, and telescope takes
# --order-bound; these are Query fields, not payload.
COMMANDS = {
    "disp": ("dispersion / polar dispersion / standardness", (("poly", None, None), ("f", None, None))),
    "standard-form": ("additive standard decomposition", (
        ("f", None, REQUIRED),
        ("a", "constant twist (default 1)", "1"),
    )),
    "mult-form": ("multiplicative standard form", (("f", None, REQUIRED),)),
    "solve-first-order": ("sigma(g) - a*g = rhs", (
        ("a", None, REQUIRED),
        ("rhs", "fixed right-hand side", None),
        ("rhs_basis", "semicolon-separated free basis", None),
    )),
    "solve-scalar": ("sum p_i sigma^i(y) = rhs", (
        ("coeffs", "semicolon-separated p_0;...;p_m", REQUIRED),
        ("rhs", None, None),
        ("rhs_basis", None, None),
    )),
    "solve-system": ("sigma(v) = M v + c", (
        ("matrix", None, REQUIRED),
        ("rhs_vector", "[e1, ..., en]", None),
    )),
    "telescope": ("constant-operator telescoper search", (
        ("funcs", "semicolon-separated inputs a_1;...;a_n", REQUIRED),
    )),
    "da-hypergeom": ("sigma(u) = b*u differential algebraicity", (("b", None, REQUIRED),)),
    "da-inhomog": ("sigma(z) = a*z + b classification", (("a", None, REQUIRED), ("b", None, REQUIRED))),
    "integrability": ("sigma(B) = A B A^-1 + d(A) A^-1 test", (("matrix", None, REQUIRED),)),
    "classify-group": ("group of sigma(y) - y = f", (("f", None, REQUIRED),)),
}

# the batch fields every subcommand takes besides its payload keys
_COMMON_FIELDS = ("subcommand", "case", "q", "degree_cap")

# the verdicts whose reports are ``substitution_verified``: each carries a
# certificate that the procedure making it checked exactly
POSITIVE_VERDICTS = frozenset({
    "DISPERSION", "STANDARD_DECOMP", "MULT_STANDARD_FORM", "SOLVED", "TELESCOPER_FOUND",
    "DIFFERENTIALLY_ALGEBRAIC", "RATIONAL_SOLUTION_EXISTS", "CONSTANT_CONJUGATE",
    "TRIVIAL", "CONSTANTS_GA",
})

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND = 2
EXIT_INTERNAL = 3


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class Query(namedtuple("Query", "subcommand case q_value payload order_bound degree_cap")):
    """One query: the subcommand, its case and q, the subcommand's
    arguments in ``payload`` (an empty dict when None) and the order bound
    and degree cap, checked against their caps."""

    __slots__ = ()

    def __new__(
        cls,
        subcommand: str,
        case: str = "shift",
        q_value: Rat | None = None,
        payload: dict | None = None,
        order_bound: int = 3,
        degree_cap: int | None = None,
    ):
        if order_bound < 0:
            raise ParseError(f"order bound must be >= 0, got {order_bound}", 0)
        if order_bound > MAX_ORDER_BOUND:
            raise ParseError(f"order bound above the cap {MAX_ORDER_BOUND}", 0)
        if degree_cap is not None and degree_cap < 0:
            raise ParseError(f"degree cap must be >= 0, got {degree_cap}", 0)
        payload = {} if payload is None else payload
        return tuple.__new__(cls, (subcommand, case, q_value, payload, order_bound, degree_cap))

    @classmethod
    def _make(cls, fields):  # so that _replace validates like the constructor
        return cls(*fields)

    def structure(self) -> DiffStructure:
        if self.case == "shift":
            return shift_structure()
        if self.case == "q":
            if self.q_value is None:
                raise ParseError("q case requires --q", 0)
            return q_structure(self.q_value)
        raise ParseError(f"unknown case {self.case!r}", 0)


class VerdictReport(namedtuple(
    "VerdictReport",
    "subcommand case q verdict certificate substitution_verified hypothesis_notes timing_ms",
)):
    """One query's report; the fields are in the JSON key order."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return self._asdict()


def _parse_constant(text: str, flag: str) -> Rat:
    f = parse_ratfun(text)
    if not f.is_constant():
        raise ParseError(f"{flag} must be a rational constant", 0)
    return f.const_value()


def _solution_space_payload(space: solver.SolutionSpace) -> tuple[str, dict]:
    cert: dict = {}
    if space.particular is not None:
        g, lam = space.particular
        cert["particular"] = {
            "g": format_ratfun(g),
            "lambda": [format_rat(v) for v in lam],
        }
    cert["homogeneous_basis"] = [
        {"g": format_ratfun(g), "lambda": [format_rat(v) for v in lam]}
        for g, lam in space.homogeneous_basis
    ]
    if space.witness:
        cert["witness"] = space.witness
    if space.universal_den is not None:
        cert["universal_denominator"] = format_ratfun(RatFun.from_poly(space.universal_den))
    if space.degree_bound is not None:
        cert["degree_bound"] = space.degree_bound
    return space.status.name, cert


def run_query(query: Query) -> tuple[VerdictReport, int]:
    """Dispatch one query; returns (report, exit_code)."""
    start = time.monotonic()
    ds = query.structure()
    payload = query.payload
    cap = query.degree_cap
    sub = query.subcommand
    if sub not in COMMANDS:
        raise ParseError(f"unknown subcommand {sub!r}", 0)
    for key, _, default in COMMANDS[sub][1]:
        if default is REQUIRED and payload.get(key) is None:
            raise ParseError(f"missing required argument {_flag(key)}", 0)
    verdict = "ERROR"
    cert: dict | None = None
    notes = ""

    if sub == "disp":
        verdict = "DISPERSION"
        cert = {}
        if payload.get("poly"):
            p = parse_poly(payload["poly"])
            cert["dispersion"] = dispersion_of(ds, p)
        if payload.get("f"):
            f = parse_ratfun(payload["f"])
            cert["polar_dispersion"] = polar_dispersion(ds, f)
            if not f.is_zero():
                cert["is_standard"] = is_standard(ds, f)
        if not cert:
            raise ParseError("disp needs --poly or --f", 0)
    elif sub == "standard-form":
        f = parse_ratfun(payload["f"])
        a = _parse_constant(payload.get("a") or "1", "--a")
        decomp = additive_standard_decomp(ds, f, a)
        verdict = "STANDARD_DECOMP"
        cert = {
            "standard_part": format_ratfun(decomp.standard_part),
            "certificate_g": format_ratfun(decomp.certificate_g),
            "twist_a": format_rat(decomp.twist_a),
        }
    elif sub == "mult-form":
        f = parse_ratfun(payload["f"])
        mform = multiplicative_standard_form(ds, f)
        verdict = "MULT_STANDARD_FORM"
        cert = {
            "standard_part": format_ratfun(mform.standard_part),
            "certificate_g": format_ratfun(mform.certificate_g),
        }
    elif sub == "solve-first-order":
        a = parse_ratfun(payload["a"])
        basis, fixed = _rhs_arguments(payload)
        space = solver.solve_first_order(ds, a, rhs_basis=basis, lambda_fixed=fixed, degree_cap=cap)
        verdict, cert = _solution_space_payload(space)
    elif sub == "solve-scalar":
        coeffs = parse_poly_list(payload["coeffs"])
        basis, fixed = _rhs_arguments(payload)
        eq = ScalarDiffEq(ds, tuple(coeffs), tuple(basis), fixed)
        space = solver.solve_scalar(eq, degree_cap=cap)
        verdict, cert = _solution_space_payload(space)
    elif sub == "solve-system":
        m = parse_matrix(payload["matrix"])
        rhs_vec = (
            parse_vector(payload["rhs_vector"])
            if payload.get("rhs_vector")
            else [RatFun.zero()] * m.n
        )
        space = solver.solve_system(ds, m, rhs_vec, degree_cap=cap)
        verdict = space.status.name
        cert = {}
        if space.particular is not None:
            cert["particular"] = [format_ratfun(v) for v in space.particular]
        cert["homogeneous_basis"] = [
            [format_ratfun(v) for v in vec] for vec in space.homogeneous_basis
        ]
        if space.witness:
            cert["witness"] = space.witness
    elif sub == "telescope":
        funcs = parse_ratfun_list(payload["funcs"])
        tele = criteria.find_telescoper(ds, funcs, query.order_bound, degree_cap=cap)
        if tele is None:
            verdict = "NO_TELESCOPER"
            notes = f"no telescoper of order <= {query.order_bound}; not a transcendence proof"
        else:
            verdict = "TELESCOPER_FOUND"
            cert = {
                "operators": [[format_rat(c) for c in op.coeffs] for op in tele.operators],
                "certificate_g": format_ratfun(tele.certificate_g),
            }
    elif sub == "da-hypergeom":
        b = parse_ratfun(payload["b"])
        v = criteria.hypergeom_da_test(ds, b)
        verdict = v.status.name
        notes = v.hypothesis_notes
        if v.certificate is not None:
            cert = _da_certificate_dict(v.certificate)
    elif sub == "da-inhomog":
        a = parse_ratfun(payload["a"])
        b = parse_ratfun(payload["b"])
        v = criteria.inhomog_da_classify(ds, a, b, degree_cap=cap)
        verdict = v.status.name
        notes = v.hypothesis_notes
        if v.certificate is not None:
            cert = _da_certificate_dict(v.certificate)
    elif sub == "integrability":
        m = parse_matrix(payload["matrix"])
        result = criteria.integrability_test(ds, m, degree_cap=cap)
        verdict = result.status.name
        if result.b_matrix is not None:
            cert = {"B": [[format_ratfun(v) for v in row] for row in result.b_matrix.entries]}
        else:
            cert = {}
            if result.scalar_trace is not None:
                cert["scalar_trace"] = {
                    "coeffs": [format_ratfun(RatFun.from_poly(p)) for p in result.scalar_trace.coeffs],
                    "rhs": [format_ratfun(r) for r in result.scalar_trace.rhs_basis],
                }
    elif sub == "classify-group":
        f = parse_ratfun(payload["f"])
        g = criteria.group_classify_inhomog_sum(ds, f, degree_cap=cap)
        verdict = g.kind.name
        if g.certificate_h is not None:
            cert = {"h": format_ratfun(g.certificate_h)}
            if g.certificate_c is not None:
                cert["c"] = format_rat(g.certificate_c)

    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = VerdictReport(
        verdict=verdict,
        certificate=cert,
        substitution_verified=verdict in POSITIVE_VERDICTS,
        hypothesis_notes=notes,
        timing_ms=elapsed_ms,
        subcommand=sub,
        case=query.case,
        q=str(query.q_value) if query.q_value is not None else None,
    )
    return report, EXIT_BOUND if verdict == "BOUND_EXCEEDED" else EXIT_OK


def _rhs_arguments(payload) -> tuple[list[RatFun], tuple]:
    """--rhs is a fixed right-hand side (lambda pinned to 1); --rhs-basis
    adds free-lambda basis functions."""
    fixed = [parse_ratfun(payload["rhs"])] if payload.get("rhs") else []
    free = parse_ratfun_list(payload.get("rhs_basis") or "")
    return fixed + free, (Rat(1),) * len(fixed) + (None,) * len(free)


def _da_certificate_dict(c: criteria.DACertificate) -> dict:
    cert = {}
    if c.f is not None:
        cert["f"] = format_ratfun(c.f)
    if c.c is not None:
        cert["c"] = format_rat(c.c)
    if c.n_or_r is not None:
        cert["n_or_r"] = c.n_or_r
    if c.d is not None:
        cert["d"] = format_rat(c.d)
    return cert


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Differential-transcendence decision procedures for linear "
        "(q-)difference equations over Q(x), with machine-checkable certificates.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, arguments) in COMMANDS.items():
        sp = subparsers.add_parser(name, help=help_text)
        sp.add_argument("--case", choices=["shift", "q"], default="shift")
        sp.add_argument("--q", default=None, help="rational q for the q case, e.g. 1/4")
        sp.add_argument("--degree-cap", type=int, default=None)
        for key, arg_help, default in arguments:
            if default is REQUIRED:
                sp.add_argument(_flag(key), required=True, help=arg_help)
            else:
                sp.add_argument(_flag(key), default=default, help=arg_help)
        if name == "telescope":
            sp.add_argument("--order-bound", type=int, default=3, help=f"at most {MAX_ORDER_BOUND}")

    sp = subparsers.add_parser("batch", help="run newline-delimited JSON queries")
    sp.add_argument("path")
    sp.add_argument("--workers", type=int, default=4)
    return parser


def _join_option_values(argv: list[str]) -> list[str]:
    """``--flag -1;1`` as ``--flag=-1;1``.  Every long option but ``--help``
    takes one value, and argparse would read a value that starts with ``-``
    as an option of its own."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and prev != "--help"
        if takes_value and arg.startswith("-") and not arg.startswith("--") and arg != "-h":
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def query_from_dict(obj: dict) -> Query:
    """Build a query from one batch line or parsed command line, rejecting
    unknown fields and fields of the wrong type."""
    if not isinstance(obj, dict):
        raise ParseError("batch line must be a JSON object", 0)
    sub = obj.get("subcommand")
    if sub not in COMMANDS:
        raise ParseError(f"unknown subcommand {sub!r}", 0)
    keys = [key for key, _, _ in COMMANDS[sub][1]]
    fields = (*_COMMON_FIELDS, *keys, *(("order_bound",) if sub == "telescope" else ()))
    for key in obj:
        if key not in fields:
            raise ParseError(f"unknown field {key!r} for {sub}", 0)
    payload = {k: obj[k] for k in keys if k in obj}
    for key, value in payload.items():
        if value is not None and not isinstance(value, str):
            raise ParseError(f"field {key!r} must be a string", 0)
    case = obj.get("case", "shift")
    if case not in ("shift", "q"):
        raise ParseError(f"unknown case {case!r}", 0)
    for key in ("order_bound", "degree_cap"):
        value = obj.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f"field {key!r} must be an integer", 0)
    q_raw = obj.get("q")
    return Query(
        subcommand=sub,
        case=case,
        q_value=_parse_constant(str(q_raw), "--q") if q_raw is not None else None,
        payload=payload,
        order_bound=3 if obj.get("order_bound") is None else obj["order_bound"],
        degree_cap=obj.get("degree_cap"),
    )


# exception -> (error kind, exit code), first match wins
_ERROR_KINDS = (
    (ParseError, "parse", EXIT_USAGE),
    (json.JSONDecodeError, "parse", EXIT_USAGE),
    (BoundExceededError, "bound-exceeded", EXIT_BOUND),
    (InternalVerificationError, "internal", EXIT_INTERNAL),
    (DiffAlgError, "usage", EXIT_USAGE),
    (OSError, "usage", EXIT_USAGE),  # an unreadable batch file
)


def _error_kind(exc: BaseException) -> tuple[str, int]:
    """The report ``kind`` and exit code of a failed query; anything not
    listed is an internal fault."""
    for cls, kind, code in _ERROR_KINDS:
        if isinstance(exc, cls):
            return kind, code
    return "internal", EXIT_INTERNAL


def _error_report(exc: BaseException, **where) -> tuple[dict, int]:
    """``{"error": {**where, "message", "kind"}}`` and the exit code of a
    failed query; an internal fault also prints its traceback on stderr."""
    kind, code = _error_kind(exc)
    if kind == "internal":
        import traceback

        traceback.print_exc()
    return {"error": {**where, "message": str(exc), "kind": kind}}, code


def run_batch(path: str, workers: int = 4) -> tuple[list[dict], int]:
    """Run newline-delimited JSON queries; one report per input line, order
    preserved, independent queries executed concurrently.  A failed line
    yields ``{"error": {"line", "message", "kind"}}``; the exit code is the
    largest per-line code."""
    from concurrent.futures import ThreadPoolExecutor

    with open(path, "r", encoding="utf-8") as fh:
        jobs = [(n, line) for n, line in enumerate(fh.read().splitlines(), start=1) if line.strip()]

    def work(job) -> tuple[dict, int]:
        lineno, line = job
        try:
            try:
                obj = json.loads(line)
            except RecursionError:  # nested deeper than the interpreter's limit
                raise ParseError("batch line nested too deeply", 0) from None
            report, code = run_query(query_from_dict(obj))
            return report.to_json_dict(), code
        except Exception as exc:  # one bad line must not lose the other reports
            return _error_report(exc, line=lineno)

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        results = list(pool.map(work, jobs))
    return [report for report, _ in results], max((code for _, code in results), default=EXIT_OK)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(_join_option_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if ns.subcommand == "batch":
            reports, code = run_batch(ns.path, ns.workers)
            for report in reports:
                print(json.dumps(report))
            return code
        query = query_from_dict({k: v for k, v in vars(ns).items() if v is not None})
        report, code = run_query(query)
        print(json.dumps(report.to_json_dict()))
        return code
    except Exception as exc:
        error, code = _error_report(exc)
        print(json.dumps(error), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
