"""Command-line interface: subcommand dispatch, JSON verdict reports and a
newline-delimited batch mode.  The CLI substitutes nothing itself.  A public
solver substitutes the space it returns; a criteria procedure solves through
the cores and substitutes only the certificate it publishes.

``COMMANDS`` is the one list of subcommands and of the arguments each takes;
``--help``, the batch reader and ``Query`` all read it.  A command line is
read into the fields of a batch line (the long flag name with ``_`` for
``-``) and goes through the same ``query_from_dict``, which rejects fields
the subcommand does not take and reads ``case`` and ``q`` into one
``DiffStructure``.  ``Query`` checks its other fields when it is made, so a
query that exists is valid and ``run_query`` checks none of them again.  A
stray, repeated, valueless or unknown argument, a non-string subcommand or
expression, a non-integer or negative ``order_bound`` or ``degree_cap``, one
above its cap, an empty ``q``, or a ``q`` without case ``q`` is a ``parse``
error on either route.

Exit codes: 0 = a verdict was produced (including negative verdicts),
1 = parse/usage error, 2 = a cap was exceeded: the degree cap, a result
coefficient above ``parsing.MAX_COEFF_BITS`` bits, a q orbit window of
``numcore.Q_WINDOW_CAP`` steps or more, or a sigma power above
``structures.MAX_SIGMA_POWER``, 3 = internal invariant violation, such as a
certificate that failed its check.  A failed query reports
``{"error": {"message", "kind"}}`` on stderr, with kind ``parse``,
``usage``, ``bound-exceeded`` or ``internal``.  A batch runs its lines one
at a time, prints each report, or a failed line's error with its line
number, as soon as it is made, and exits with the largest per-line code.

One process answers one query, so start-up is part of every query's
latency.  The records are named tuples and the command line is read here,
so a cold query imports no ``dataclasses``, ``inspect``, ``typing`` or
``argparse``; it loads ``traceback`` only for an internal error.
"""

from __future__ import annotations

import json
import sys
import time
from collections import namedtuple
from types import MappingProxyType

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
    DEFAULT_ORDER_BOUND,
    MAX_DEGREE_CAP,
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

# subcommand -> (help, arguments); each argument is (payload key, help,
# required), its flag the key with "-" for "_"; all also take _QUERY_FLAGS.
COMMANDS = {
    "disp": ("dispersion / polar dispersion / standardness", (("poly", None, False), ("f", None, False))),
    "standard-form": ("additive standard decomposition", (
        ("f", None, True),
        ("a", "constant twist (default 1)", False),
    )),
    "mult-form": ("multiplicative standard form", (("f", None, True),)),
    "solve-first-order": ("sigma(g) - a*g = rhs", (
        ("a", None, True),
        ("rhs", "fixed right-hand side", False),
        ("rhs_basis", "semicolon-separated free basis", False),
    )),
    "solve-scalar": ("sum p_i sigma^i(y) = rhs", (
        ("coeffs", "semicolon-separated p_0;...;p_m", True),
        ("rhs", None, False),
        ("rhs_basis", None, False),
    )),
    "solve-system": ("sigma(v) = M v + c", (
        ("matrix", None, True),
        ("rhs_vector", "[e1, ..., en]", False),
    )),
    "telescope": ("constant-operator telescoper search", (
        ("funcs", "semicolon-separated inputs a_1;...;a_n", True),
    )),
    "da-hypergeom": ("sigma(u) = b*u differential algebraicity", (("b", None, True),)),
    "da-inhomog": ("sigma(z) = a*z + b classification", (("a", None, True), ("b", None, True))),
    "integrability": ("sigma(B) = A B A^-1 + d(A) A^-1 test", (("matrix", None, True),)),
    "classify-group": ("group of sigma(y) - y = f", (("f", None, True),)),
}

# the Query fields that subcommands take besides payload; only telescope takes order_bound
_QUERY_FLAGS = (
    ("case", "shift (the default) or q"),
    ("q", "rational q for the q case, e.g. 1/4"),
    ("degree_cap", f"numerator degree cap of every ansatz, at most {MAX_DEGREE_CAP} "
                   f"(default {solver.DEFAULT_DEGREE_CAP})"),
    ("order_bound", f"largest telescoper order, at most {MAX_ORDER_BOUND} (default {DEFAULT_ORDER_BOUND})"),
)

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


def _arguments(sub) -> tuple:
    """The arguments of a subcommand, each ``(payload key, help, required)``."""
    if not isinstance(sub, str):
        raise ParseError("field 'subcommand' must be a string", 0)
    if sub not in COMMANDS:
        raise ParseError(f"unknown subcommand {sub!r}", 0)
    return COMMANDS[sub][1]


def _check_integer(key: str, value, cap: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"field {key!r} must be an integer", 0)
    name = key.replace("_", " ")
    if value < 0:
        raise ParseError(f"{name} must be >= 0, got {value}", 0)
    if value > cap:
        raise ParseError(f"{name} above the cap {cap}", 0)


class Query(namedtuple("Query", "subcommand structure payload order_bound degree_cap")):
    """One query: the subcommand, its structure (the shift by default), the
    subcommand's arguments in ``payload`` (a read-only copy of the mapping
    given, empty when None), and the order bound and degree cap.  The constructor checks every field, so a
    query that exists names a known subcommand with its required arguments
    as strings, and integer bounds within their caps."""

    __slots__ = ()

    def __new__(
        cls,
        subcommand: str,
        structure: DiffStructure = shift_structure(),
        payload: dict | None = None,
        order_bound: int = DEFAULT_ORDER_BOUND,
        degree_cap: int | None = None,
    ):
        arguments = _arguments(subcommand)
        if not isinstance(structure, DiffStructure):
            raise ParseError("structure must be a DiffStructure", 0)
        payload = MappingProxyType({} if payload is None else dict(payload))
        for key, value in payload.items():
            if value is not None and not isinstance(value, str):
                raise ParseError(f"field {key!r} must be a string", 0)
        _check_integer("order_bound", order_bound, MAX_ORDER_BOUND)
        if degree_cap is not None:
            _check_integer("degree_cap", degree_cap, MAX_DEGREE_CAP)
        for key, _, required in arguments:
            if required and payload.get(key) is None:
                raise ParseError(f"missing required argument {_flag(key)}", 0)
        return tuple.__new__(cls, (subcommand, structure, payload, order_bound, degree_cap))

    @classmethod
    def _make(cls, fields):  # so that _replace validates like the constructor
        return cls(*fields)


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
    def solution(g: RatFun, lam: tuple) -> dict:
        return {"g": format_ratfun(g), "lambda": [format_rat(v) for v in lam]}

    cert = {} if space.particular is None else {"particular": solution(*space.particular)}
    cert["homogeneous_basis"] = [solution(g, lam) for g, lam in space.homogeneous_basis]
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
    ds = query.structure
    payload = query.payload
    cap = query.degree_cap
    sub = query.subcommand
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
        case="shift" if ds.is_shift else "q",
        q=None if ds.is_shift else str(ds.q),
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

_INTEGER_FIELDS = ("order_bound", "degree_cap")  # read as integers


def _read_command_line(argv: list[str]) -> tuple[dict, list[str]]:
    """``SUBCOMMAND --flag value ...`` as batch-line fields and the other
    positional arguments.  A value is the next argument whatever it starts
    with; a non-integer value of an integer field stays text, for
    ``query_from_dict`` to reject."""
    fields, positional = {"subcommand": argv[0] if argv else None}, []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--help" or not arg.startswith("--"):
            positional.append(arg)
            continue
        key, has_value, value = arg[2:].partition("=")
        key, value = key.replace("-", "_"), value if has_value else next(args, None)
        if value is None:
            raise ParseError(f"{arg} needs a value", 0)
        if key in fields:
            raise ParseError(f"repeated argument {_flag(key)}", 0)
        if key in _INTEGER_FIELDS:
            try:
                value = int(value)
            except ValueError:
                pass
        fields[key] = value
    return fields, positional


def _help(sub: str | None) -> str:
    """The ``--help`` text of a subcommand, or the list of subcommands."""
    if sub in COMMANDS:
        summary, arguments = COMMANDS[sub]
        head = f"usage: diffalg {sub} [--flag value ...]\n\n{summary}"
        rows = [(_flag(key), (text or "") + " (required)" * required) for key, text, required in arguments]
        rows += [(_flag(k), text) for k, text in _QUERY_FLAGS if k != "order_bound" or sub == "telescope"]
    else:
        head = "usage: diffalg SUBCOMMAND [--flag value ...]\n       diffalg batch PATH"
        rows = [(name, summary) for name, (summary, _) in COMMANDS.items()]
    return head + "\n\n" + "\n".join(f"  {left:<18} {right}".rstrip() for left, right in rows)


def query_from_dict(obj: dict) -> Query:
    """Build a query from one batch line or parsed command line, rejecting
    unknown fields and reading ``case`` and ``q`` into its structure;
    ``Query`` checks the other fields."""
    if not isinstance(obj, dict):
        raise ParseError("batch line must be a JSON object", 0)
    sub = obj.get("subcommand")
    if sub is None:
        raise ParseError("missing subcommand", 0)
    keys = [key for key, _, _ in _arguments(sub)]
    flags = (key for key, _ in _QUERY_FLAGS if key != "order_bound" or sub == "telescope")
    fields = ("subcommand", *keys, *flags)
    for key in obj:
        if key not in fields:
            raise ParseError(f"unknown field {key!r} for {sub}", 0)
    case, q_raw = obj.get("case", "shift"), obj.get("q")
    if case == "q":
        if not isinstance(q_raw, str):
            raise ParseError("q case requires --q" if q_raw is None else "field 'q' must be a string", 0)
        structure = q_structure(_parse_constant(q_raw, "--q"))
    elif case == "shift":
        if q_raw is not None:
            raise ParseError("q given without case q", 0)
        structure = shift_structure()
    else:
        raise ParseError(f"unknown case {case!r}", 0)
    order_bound = obj.get("order_bound")
    return Query(
        subcommand=sub,
        structure=structure,
        payload={k: obj[k] for k in keys if k in obj},
        order_bound=DEFAULT_ORDER_BOUND if order_bound is None else order_bound,
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


def _batch_reports(path: str):
    """Yield ``(report, exit_code)`` for each non-blank line of a batch file.
    A BOM may open the file, and a line ends only at LF, CR LF or CR: a JSON
    string may hold a raw U+2028, U+2029 or NEL, where ``splitlines`` splits.
    A byte that is not UTF-8 is decoded to a lone surrogate, which no UTF-8
    text holds, so only its own line fails, as a ``parse`` error."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(f"batch line is not UTF-8: byte 0x{byte:02x}", exc.start) from None
                try:
                    obj = json.loads(line.rstrip("\n"))
                except RecursionError:  # nested deeper than the interpreter's limit
                    raise ParseError("batch line nested too deeply", 0) from None
                report, code = run_query(query_from_dict(obj))
            except Exception as exc:  # one bad line must not lose the other reports
                yield _error_report(exc, line=lineno)
            else:
                yield report.to_json_dict(), code


def run_batch(path: str, workers=None) -> tuple[list[dict], int]:
    """A batch file's reports in line order and the largest per-line exit
    code.  ``workers`` is ignored: ``perfbench/run.py`` passes it positionally
    until the benchmark times ``main(["batch", path])`` instead."""
    results = list(_batch_reports(path))
    return [report for report, _ in results], max((code for _, code in results), default=EXIT_OK)


def main(argv=None) -> int:
    try:
        fields, positional = _read_command_line(sys.argv[1:] if argv is None else list(argv))
        sub = fields["subcommand"]
        if {sub, *positional} & {"--help", "-h"}:
            print(_help(sub))
            return EXIT_OK
        if sub == "batch":
            if fields.keys() != {"subcommand"} or len(positional) != 1:
                raise ParseError("usage: diffalg batch PATH", 0)
            code = EXIT_OK
            for report, line_code in _batch_reports(positional[0]):
                print(json.dumps(report), flush=True)
                code = max(code, line_code)
            return code
        if positional:
            raise ParseError(f"unexpected argument {positional[0]!r}", 0)
        report, code = run_query(query_from_dict(fields))
        print(json.dumps(report.to_json_dict()))
        return code
    except Exception as exc:
        error, code = _error_report(exc)
        print(json.dumps(error), file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
