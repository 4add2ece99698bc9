"""Command-line interface: subcommand dispatch, JSON verdict reports and a
newline-delimited batch mode.  The CLI substitutes nothing itself.  A public
solver substitutes the space it returns; a criteria procedure solves through
the cores and substitutes only the certificate it publishes.

A ``COMMANDS`` row is the whole definition of one subcommand: its summary,
its arguments, the ``INTEGER_FIELDS`` it reads (``degree_cap`` for the
seven that run an ansatz, ``order_bound`` for ``telescope`` alone) and its
handler.  ``run_query`` calls the handler and builds the report; ``--help``,
the batch reader and ``Query`` read the same row.  A command line is read
into the fields of a batch line (the long flag name with ``_`` for ``-``)
and goes through the same ``query_from_dict``, which rejects fields the
subcommand does not take and reads ``case`` and ``q`` into one
``DiffStructure``.  ``Query`` checks its other fields when it is made, an
integer field the row does not list included, so a query that exists is
valid and ``run_query`` checks none of them again.  A stray, repeated,
valueless or unknown argument, a non-string subcommand or expression, a
non-integer or negative integer field, one above its cap, an empty ``q``,
or a ``q`` without case ``q`` is a ``parse`` error on either route.

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
``argparse``; it loads ``traceback`` only for an internal error.  The
process (``python -m diffalg.cli`` or the ``diffalg`` script, both through
``run_and_exit``) flushes stdout and stderr after ``main`` returns and ends
without interpreter teardown, which has nothing to save: the reports are
flushed, a batch file is closed by ``with`` and no import registers an
``atexit`` callback.  A stdout that cannot take a report, such as a pipe
whose reader has gone, is a ``usage`` error with exit 1, reported once on
stderr.
"""

from __future__ import annotations

import json
import os
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

# each integer field of a Query: name -> (cap, default, help); a COMMANDS row
# lists those its subcommand reads, and the others must keep their default
INTEGER_FIELDS = {
    "order_bound": (MAX_ORDER_BOUND, DEFAULT_ORDER_BOUND,
                    "largest telescoper order, at most {cap} (default {default})"),
    # None leaves the cap to each procedure
    "degree_cap": (MAX_DEGREE_CAP, None,
                   f"numerator degree cap of every ansatz, at most {{cap}} (default {solver.DEFAULT_DEGREE_CAP})"),
}

# the fields every subcommand takes besides its arguments and integer fields
_STRUCTURE_FIELDS = (("case", "shift (the default) or q"), ("q", "rational q for the q case, e.g. 1/4"))

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


def _command(sub) -> Command:
    """The ``COMMANDS`` row of a subcommand."""
    if not isinstance(sub, str):
        raise ParseError("field 'subcommand' must be a string", 0)
    if sub not in COMMANDS:
        raise ParseError(f"unknown subcommand {sub!r}", 0)
    return COMMANDS[sub]


class Query(namedtuple(
    "Query",
    ("subcommand", "structure", "payload", *INTEGER_FIELDS),
    defaults=(shift_structure(), None, *(default for _, default, _ in INTEGER_FIELDS.values())),
)):
    """One query: the subcommand, its structure (the shift by default), the
    subcommand's arguments in ``payload`` (a read-only copy of the mapping
    given, empty when None), and one field per ``INTEGER_FIELDS`` entry.
    The constructor checks every field against the subcommand's row: only
    listed fields, string arguments, required ones present, capped integers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        query = super().__new__(cls, *args, **kwargs)
        command = _command(query.subcommand)
        if not isinstance(query.structure, DiffStructure):
            raise ParseError("structure must be a DiffStructure", 0)
        payload = MappingProxyType({} if query.payload is None else dict(query.payload))
        keys = [key for key, _, _ in command.arguments]
        for key, value in payload.items():
            if key not in keys:
                raise ParseError(f"unknown field {key!r} for {query.subcommand}", 0)
            if value is not None and not isinstance(value, str):
                raise ParseError(f"field {key!r} must be a string", 0)
        for key, (cap, default, _) in INTEGER_FIELDS.items():
            value = getattr(query, key)
            if type(value) is type(default) and value == default:
                continue
            if key not in command.fields:
                raise ParseError(f"unknown field {key!r} for {query.subcommand}", 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"field {key!r} must be an integer", 0)
            if value < 0:
                raise ParseError(f"{key.replace('_', ' ')} must be >= 0, got {value}", 0)
            if value > cap:
                raise ParseError(f"{key.replace('_', ' ')} above the cap {cap}", 0)
        for key, _, required in command.arguments:
            if required and payload.get(key) is None:
                raise ParseError(f"missing required argument {_flag(key)}", 0)
        return tuple.__new__(cls, (query.subcommand, query.structure, payload, *query[3:]))

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


def run_query(query: Query) -> tuple[VerdictReport, int]:
    """Run one query through its row's handler; returns (report, exit_code)."""
    start = time.monotonic()
    verdict, cert, notes = COMMANDS[query.subcommand].handler(query)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    case, q = ("shift", None) if query.structure.is_shift else ("q", str(query.structure.q))
    report = VerdictReport(query.subcommand, case, q, verdict, cert, verdict in POSITIVE_VERDICTS, notes, elapsed_ms)
    return report, EXIT_BOUND if verdict == "BOUND_EXCEEDED" else EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers: query -> (verdict, certificate or None, notes)
# ---------------------------------------------------------------------------

def _parse_constant(text: str, flag: str) -> Rat:
    f = parse_ratfun(text)
    if not f.is_constant():
        raise ParseError(f"{flag} must be a rational constant", 0)
    return f.const_value()


def _rhs_arguments(payload) -> tuple[list[RatFun], tuple]:
    """--rhs is a fixed right-hand side (lambda pinned to 1); --rhs-basis
    adds free-lambda basis functions."""
    fixed = [parse_ratfun(payload["rhs"])] if payload.get("rhs") else []
    free = parse_ratfun_list(payload.get("rhs_basis") or "")
    return fixed + free, (Rat(1),) * len(fixed) + (None,) * len(free)


def _space_report(space: solver.SolutionSpace) -> tuple[str, dict, str]:
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
    return space.status.name, cert, ""


def _da_report(v: criteria.DAVerdict) -> tuple[str, dict | None, str]:
    c, cert = v.certificate, None
    if c is not None:
        cert = {}
        if c.f is not None:
            cert["f"] = format_ratfun(c.f)
        if c.c is not None:
            cert["c"] = format_rat(c.c)
        if c.n_or_r is not None:
            cert["n_or_r"] = c.n_or_r
        if c.d is not None:
            cert["d"] = format_rat(c.d)
    return v.status.name, cert, v.hypothesis_notes


def _disp(query):
    ds, payload, cert = query.structure, query.payload, {}
    if payload.get("poly"):
        cert["dispersion"] = dispersion_of(ds, parse_poly(payload["poly"]))
    if payload.get("f"):
        f = parse_ratfun(payload["f"])
        cert["polar_dispersion"] = polar_dispersion(ds, f)
        if not f.is_zero():
            cert["is_standard"] = is_standard(ds, f)
    if not cert:
        raise ParseError("disp needs --poly or --f", 0)
    return "DISPERSION", cert, ""


def _standard_form(query):
    f = parse_ratfun(query.payload["f"])
    a = _parse_constant(query.payload.get("a") or "1", "--a")
    decomp = additive_standard_decomp(query.structure, f, a)
    return "STANDARD_DECOMP", {
        "standard_part": format_ratfun(decomp.standard_part),
        "certificate_g": format_ratfun(decomp.certificate_g),
        "twist_a": format_rat(decomp.twist_a),
    }, ""


def _mult_form(query):
    mform = multiplicative_standard_form(query.structure, parse_ratfun(query.payload["f"]))
    return "MULT_STANDARD_FORM", {
        "standard_part": format_ratfun(mform.standard_part),
        "certificate_g": format_ratfun(mform.certificate_g),
    }, ""


def _solve_first_order(query):
    a = parse_ratfun(query.payload["a"])
    basis, fixed = _rhs_arguments(query.payload)
    space = solver.solve_first_order(
        query.structure, a, rhs_basis=basis, lambda_fixed=fixed, degree_cap=query.degree_cap
    )
    return _space_report(space)


def _solve_scalar(query):
    coeffs = parse_poly_list(query.payload["coeffs"])
    basis, fixed = _rhs_arguments(query.payload)
    eq = ScalarDiffEq(query.structure, tuple(coeffs), tuple(basis), fixed)
    return _space_report(solver.solve_scalar(eq, degree_cap=query.degree_cap))


def _solve_system(query):
    m = parse_matrix(query.payload["matrix"])
    rhs = query.payload.get("rhs_vector")
    rhs_vec = parse_vector(rhs) if rhs else [RatFun.zero()] * m.n
    space = solver.solve_system(query.structure, m, rhs_vec, degree_cap=query.degree_cap)
    cert = {} if space.particular is None else {"particular": [format_ratfun(v) for v in space.particular]}
    cert["homogeneous_basis"] = [[format_ratfun(v) for v in vec] for vec in space.homogeneous_basis]
    if space.witness:
        cert["witness"] = space.witness
    return space.status.name, cert, ""


def _telescope(query):
    funcs = parse_ratfun_list(query.payload["funcs"])
    tele = criteria.find_telescoper(query.structure, funcs, query.order_bound, degree_cap=query.degree_cap)
    if tele is None:
        return "NO_TELESCOPER", None, f"no telescoper of order <= {query.order_bound}; not a transcendence proof"
    return "TELESCOPER_FOUND", {
        "operators": [[format_rat(c) for c in op.coeffs] for op in tele.operators],
        "certificate_g": format_ratfun(tele.certificate_g),
    }, ""


def _da_hypergeom(query):
    return _da_report(criteria.hypergeom_da_test(query.structure, parse_ratfun(query.payload["b"])))


def _da_inhomog(query):
    a = parse_ratfun(query.payload["a"])
    b = parse_ratfun(query.payload["b"])
    return _da_report(criteria.inhomog_da_classify(query.structure, a, b, degree_cap=query.degree_cap))


def _integrability(query):
    m = parse_matrix(query.payload["matrix"])
    result = criteria.integrability_test(query.structure, m, degree_cap=query.degree_cap)
    cert = {}
    if result.b_matrix is not None:
        cert["B"] = [[format_ratfun(v) for v in row] for row in result.b_matrix.entries]
    elif result.scalar_trace is not None:
        cert["scalar_trace"] = {
            "coeffs": [format_ratfun(RatFun.from_poly(p)) for p in result.scalar_trace.coeffs],
            "rhs": [format_ratfun(r) for r in result.scalar_trace.rhs_basis],
        }
    return result.status.name, cert, ""


def _classify_group(query):
    f = parse_ratfun(query.payload["f"])
    g = criteria.group_classify_inhomog_sum(query.structure, f, degree_cap=query.degree_cap)
    cert = None
    if g.certificate_h is not None:
        cert = {"h": format_ratfun(g.certificate_h)}
        if g.certificate_c is not None:
            cert["c"] = format_rat(g.certificate_c)
    return g.kind.name, cert, ""


# A row is the whole definition of its subcommand: its summary; its
# arguments, each (payload key, help, required) with the flag the key with
# "-" for "_"; the INTEGER_FIELDS it reads; and its handler.
Command = namedtuple("Command", "summary arguments fields handler")

COMMANDS = {
    "disp": Command("dispersion / polar dispersion / standardness",
                    (("poly", None, False), ("f", None, False)), (), _disp),
    "standard-form": Command("additive standard decomposition",
                             (("f", None, True), ("a", "constant twist (default 1)", False)), (), _standard_form),
    "mult-form": Command("multiplicative standard form", (("f", None, True),), (), _mult_form),
    "solve-first-order": Command("sigma(g) - a*g = rhs", (
        ("a", None, True),
        ("rhs", "fixed right-hand side", False),
        ("rhs_basis", "semicolon-separated free basis", False),
    ), ("degree_cap",), _solve_first_order),
    "solve-scalar": Command("sum p_i sigma^i(y) = rhs", (
        ("coeffs", "semicolon-separated p_0;...;p_m", True),
        ("rhs", None, False),
        ("rhs_basis", None, False),
    ), ("degree_cap",), _solve_scalar),
    "solve-system": Command("sigma(v) = M v + c",
                            (("matrix", None, True), ("rhs_vector", "[e1, ..., en]", False)),
                            ("degree_cap",), _solve_system),
    "telescope": Command("constant-operator telescoper search",
                         (("funcs", "semicolon-separated inputs a_1;...;a_n", True),),
                         ("degree_cap", "order_bound"), _telescope),
    "da-hypergeom": Command("sigma(u) = b*u differential algebraicity", (("b", None, True),), (), _da_hypergeom),
    "da-inhomog": Command("sigma(z) = a*z + b classification",
                          (("a", None, True), ("b", None, True)), ("degree_cap",), _da_inhomog),
    "integrability": Command("sigma(B) = A B A^-1 + d(A) A^-1 test",
                             (("matrix", None, True),), ("degree_cap",), _integrability),
    "classify-group": Command("group of sigma(y) - y = f", (("f", None, True),), ("degree_cap",), _classify_group),
}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

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
        if key in INTEGER_FIELDS:
            try:
                value = int(value)
            except ValueError:
                pass
        fields[key] = value
    return fields, positional


def _help(sub: str | None) -> str:
    """The ``--help`` text of a subcommand, or the list of subcommands."""
    if sub in COMMANDS:
        command = COMMANDS[sub]
        head = f"usage: diffalg {sub} [--flag value ...]\n\n{command.summary}"
        rows = [(_flag(key), (text or "") + " (required)" * required) for key, text, required in command.arguments]
        rows += [(_flag(key), text) for key, text in _STRUCTURE_FIELDS]
        for key in command.fields:
            cap, default, text = INTEGER_FIELDS[key]
            rows.append((_flag(key), text.format(cap=cap, default=default)))
    else:
        head = "usage: diffalg SUBCOMMAND [--flag value ...]\n       diffalg batch PATH"
        rows = [(name, command.summary) for name, command in COMMANDS.items()]
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
    command = _command(sub)
    keys = [key for key, _, _ in command.arguments]
    fields = ("subcommand", *keys, *(key for key, _ in _STRUCTURE_FIELDS), *command.fields)
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
    # a null integer field is its default
    integers = {key: obj[key] for key in command.fields if obj.get(key) is not None}
    return Query(sub, structure, {k: obj[k] for k in keys if k in obj}, **integers)


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


def run_and_exit():
    """The process entry point: run ``main`` on ``sys.argv``, flush stdout
    and stderr, and end the process with ``os._exit``, skipping interpreter
    teardown.  A failed stdout flush is a ``usage`` error, exit 1.  A write
    that fails inside ``main`` (each batch report is flushed there) is
    already reported and returned as ``EXIT_USAGE``, and its text stays
    buffered, so the flush here fails again and reports nothing more."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_USAGE:
            error, code = _error_report(exc)
            try:
                print(json.dumps(error), file=sys.stderr)
            except OSError:
                pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
