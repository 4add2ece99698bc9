"""The three workloads: program inputs built from the corpus data, the op
each input is timed through, and the output check run after it.

Ops call the program through module attributes (``solver.solve_scalar``,
``cli.run_query``, ...) at call time, so the tracer's wrappers see them.
Checks use the benchmark's own exact linear algebra over ``Fraction``.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from diffalg import cli, criteria, parsing, solver
from diffalg.numcore import Poly, RatFun, poly_lcm
from diffalg.solver import MatrixRF, ScalarDiffEq, Status
from diffalg.structures import apply_sigma, q_structure, shift_structure

import corpus

SCHEMA_PATH = os.path.join(os.path.dirname(cli.__file__), "verdict_report.schema.json")

# verdicts whose certificate the CLI re-verifies by substitution
POSITIVE_VERDICTS = frozenset({
    "DISPERSION", "STANDARD_DECOMP", "MULT_STANDARD_FORM", "SOLVED", "TELESCOPER_FOUND",
    "DIFFERENTIALLY_ALGEBRAIC", "RATIONAL_SOLUTION_EXISTS", "CONSTANT_CONJUGATE",
    "TRIVIAL", "CONSTANTS_GA",
})


def structure(case: str, q: str | None):
    return shift_structure() if case == "shift" else q_structure(Fraction(q))


def to_ratfun(rf: dict) -> RatFun:
    den = Poly.one()
    for f in rf["den"]:
        den = den * Poly(f)
    return RatFun(Poly(rf["num"]), den)


# ---------------------------------------------------------------------------
# exact span membership, independent of the program's linear algebra
# ---------------------------------------------------------------------------


def rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def in_span(basis: list[tuple[RatFun, ...]], target: tuple[RatFun, ...]) -> bool:
    """Is the vector of rational functions ``target`` a Q-linear combination
    of the ``basis`` vectors?"""
    if all(t.is_zero() for t in target):
        return True
    den = Poly.one()
    for vec in list(basis) + [target]:
        for f in vec:
            den = poly_lcm(den, f.den)
    den_rf = RatFun.from_poly(den)
    nums = [[(f * den_rf).num.coeffs for f in vec] for vec in list(basis) + [target]]
    width = max(len(cs) for vec in nums for cs in vec)
    rows = [[c for cs in vec for c in list(cs) + [0] * (width - len(cs))] for vec in nums]
    basis_rows, target_row = rows[:-1], rows[-1]
    return bool(basis_rows) and rank(basis_rows + [target_row]) == rank(basis_rows)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """Inputs of one run.  ``items`` are timed through ``op`` and checked by
    ``check`` (True when the output is right); ``trace_items`` is the prefix
    the traced run times again under the tracer."""

    name: str
    specs: list
    composition: dict
    items: list
    warmup: list
    trace_items: list
    extra: dict = field(default_factory=dict)
    # timed work between reference timings: ops of hundreds of ms get one each
    ref_gap_s: float = 0.1
    # kernel runs per reference timing (their median)
    ref_repeats: int = 1
    # timed passes over the items; an op's latency is the median of its passes
    rounds: int = 1

    @property
    def digest(self) -> str:
        return corpus.digest(self.specs)

    def op(self, item):
        raise NotImplementedError

    def check(self, item, result) -> bool:
        raise NotImplementedError

    def fingerprint(self, result):
        """A comparable digest of an op's result (traced vs untraced)."""
        raise NotImplementedError


def cli_argv(line: dict) -> list[str]:
    """A query line as ``python -m diffalg.cli`` arguments."""
    out = [line["subcommand"]]
    for key, value in line.items():
        if key != "subcommand":
            out += ["--" + key.replace("_", "-"), str(value)]
    return out


# ----- scalar-solve ---------------------------------------------------------

COLD_QUERIES = 16

SCALAR_OPS_PER_S = 15.0


class ScalarSolve(Workload):
    def op(self, item):
        return solver.solve_scalar(item[1])

    def check(self, item, space) -> bool:
        _, eq, planted = item
        if planted is not None:
            if space.status is not Status.SOLVED:
                return False
            delta = planted - space.particular[0]
            return in_span([(g,) for g, _ in space.homogeneous_basis], (delta,))
        if space.status is Status.SOLVED:
            pairs = [space.particular] + list(space.homogeneous_basis)
            return all(eq.residual(g, lam).is_zero() for g, lam in pairs)
        return bool(space.witness)

    def fingerprint(self, space):
        return (space.status.name, space.homogeneous_dimension())


def scalar_solve(seed: int, seconds: float) -> ScalarSolve:
    count = max(60, 2 * round(seconds * SCALAR_OPS_PER_S / 2))
    specs = corpus.scalar_specs(seed, count)
    items = []
    for spec in specs:
        ds = structure(spec["case"], spec["q"])
        coeffs = tuple(Poly(c) for c in spec["coeffs"])
        lam = RatFun.const(spec["scale"])
        if spec["kind"] == "planted":
            planted = to_ratfun(spec["planted"]) * lam
            rhs = ScalarDiffEq(ds, coeffs).apply_operator(planted)
            eq = ScalarDiffEq(ds, coeffs, (rhs,), (Fraction(1),))
            items.append((spec, eq, planted))
        elif spec["rhs"] is None:
            items.append((spec, ScalarDiffEq(ds, coeffs), None))
        else:
            eq = ScalarDiffEq(ds, coeffs, (to_ratfun(spec["rhs"]) * lam,), (Fraction(1),))
            items.append((spec, eq, None))
    # the same pool entries in every run: set-up and cold costs do not depend on the seed
    by_pool = sorted(items, key=lambda it: it[0]["pool_index"])
    first_order = next(s for s, _, _ in by_pool if s["kind"] == "planted" and len(s["coeffs"]) == 2)
    cold = [(cli_argv(corpus.scalar_query(first_order)), "SOLVED")] * COLD_QUERIES
    return ScalarSolve(
        "scalar-solve", specs, corpus.scalar_composition(specs), items,
        warmup=by_pool[:6], trace_items=items[: len(items) // 3], extra={"cold": cold},
    )


# ----- systems --------------------------------------------------------------

SYSTEMS_PASS_S = 5.5
SYSTEMS_PER_PASS = 14


def _fixture(name: str):
    rf = parsing.parse_ratfun
    if name == "shift-scalar":
        ds = shift_structure()
        pp = [parsing.parse_poly(t) for t in ("-(x+1)", "x*(x^2+x-1)", "-(x^3+2*x^2-1)", "x")]
        return ("scalar", ScalarDiffEq(ds, tuple(pp), (rf("2*x+1"),), (Fraction(1),)))
    if name == "shift-integrability":
        return ("integrability", shift_structure(), MatrixRF([[0, -1], [1, rf("x")]]))
    ds = q_structure(Fraction(1, 4))
    if name == "q14-scalar":
        coeffs = [
            rf("(1/4)*(x-64)*(x-2)*(4*x-1)/((x-1)^2*(x-32))"),
            rf("(20*x^2-353*x+1032)*(x-64)/((x-16)*(4*x-1)*(x-32))"),
            rf("-(1/4)*(x-64)*(x-4)*(20*x^2-353*x+1032)/((x-32)*(x-1)^2*(x-16))"),
            RatFun.one(),
        ]
        rhs = rf("-x*(x-64)*(47*x^2-496*x+1952)/((4*x-1)*(x-8)*(x-16)*(x-1)*(x-32))")
        return ("scalar", solver.scalar_eq_from_ratfun_coeffs(ds, coeffs, [rhs], [Fraction(1)]))
    matrix = criteria.companion_matrix(ds, [rf("16*(x-1)/(4*x-1)"), rf("-4*(x-2)/(x-4)"), RatFun.one()])
    return ("integrability", ds, matrix)


class Systems(Workload):
    def op(self, item):
        kind = item[1]
        if kind == "system":
            _, _, ds, m, c, _ = item
            return solver.solve_system(ds, m, c)
        if kind == "scalar":
            return solver.solve_scalar(item[2])
        return criteria.integrability_test(item[2], item[3])

    def check(self, item, result) -> bool:
        kind = item[1]
        if kind == "system":
            planted = item[5]
            if result.status is not Status.SOLVED:
                return False
            delta = tuple(v - p for v, p in zip(planted, result.particular))
            return in_span(list(result.homogeneous_basis), delta)
        if kind == "scalar":
            return result.status is Status.NO_SOLUTION
        return result.status is criteria.IntegrabilityStatus.NOT_CONSTANT_CONJUGATE

    def fingerprint(self, result):
        status = result.status
        return (status.name, len(getattr(result, "homogeneous_basis", ())))


def systems(seed: int, seconds: float) -> Systems:
    passes = max(2, round(seconds / SYSTEMS_PASS_S))
    specs = corpus.systems_specs(seed, passes, SYSTEMS_PER_PASS)
    fixtures = {name: _fixture(name) for name in corpus.FIXTURES}
    items = []
    for spec in specs:
        if spec["kind"] == "fixture":
            items.append((spec, *fixtures[spec["fixture"]]))
            continue
        ds = structure(spec["case"], spec["q"])
        m = MatrixRF([[to_ratfun(e) for e in row] for row in spec["m"]])
        lam = RatFun.const(spec["scale"])
        v = [to_ratfun(e) * lam for e in spec["v"]]
        c = [apply_sigma(ds, v[i]) - (m.entries[i][0] * v[0] + m.entries[i][1] * v[1]) for i in range(2)]
        items.append((spec, "system", ds, m, c, tuple(v)))
    warm = [it for it in items if it[0].get("fixture") == "shift-integrability"][:1]
    cold = [(["integrability", "--matrix", "[[0,-1],[1,x]]"], "NOT_CONSTANT_CONJUGATE")] * COLD_QUERIES
    return Systems(
        "systems", specs, corpus.systems_composition(specs), items,
        warmup=warm, trace_items=items[: SYSTEMS_PER_PASS + len(corpus.FIXTURES)],
        extra={"cold": cold}, ref_gap_s=0.0, ref_repeats=3,
    )


# ----- cli-mixed ------------------------------------------------------------

CLI_QUERIES_PER_S = 10.0
# queries of a few ms vary by +-15% from run to run even after calibration:
# each query's latency is the median of three passes
CLI_ROUNDS = 3
CLI_CHUNK = 16  # queries per run_batch call, about 0.3 s of work
_COLD_SUBCOMMANDS = ("disp", "mult-form", "da-hypergeom", "classify-group", "standard-form")


class CliMixed(Workload):
    """Closed loop, one client: decode-free ``query_from_dict`` ->
    ``run_query`` -> JSON encode per query."""

    @functools.cached_property
    def _validator(self):
        import jsonschema

        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            return jsonschema.Draft7Validator(json.load(fh))

    def op(self, spec):
        report, _ = cli.run_query(cli.query_from_dict(spec["line"]))
        return json.dumps(report.to_json_dict())

    def check_report(self, spec, report: dict) -> bool:
        if "error" in report or not self._validator.is_valid(report):
            return False
        if report["verdict"] != spec["expected"]:
            return False
        return report["substitution_verified"] or report["verdict"] not in POSITIVE_VERDICTS

    def check(self, spec, encoded) -> bool:
        return self.check_report(spec, json.loads(encoded))

    def fingerprint(self, encoded):
        return json.loads(encoded)["verdict"]


def cli_mixed(seed: int, seconds: float) -> CliMixed:
    count = max(CLI_CHUNK, CLI_CHUNK * round(seconds * CLI_QUERIES_PER_S / CLI_CHUNK))
    specs = corpus.cli_specs(seed, count)
    cheap = sorted((s for s in specs if s["line"]["subcommand"] in _COLD_SUBCOMMANDS),
                   key=lambda s: s["pool_index"])
    cold = [(cli_argv(s["line"]), s["expected"]) for s in cheap[:COLD_QUERIES]]
    chunks = [specs[i:i + CLI_CHUNK] for i in range(0, len(specs), CLI_CHUNK)]
    return CliMixed(
        "cli-mixed", specs, corpus.cli_composition(specs), specs,
        warmup=sorted(specs, key=lambda s: s["pool_index"])[:11], trace_items=specs[: len(specs) // 3],
        extra={"chunks": chunks, "cold": cold}, ref_gap_s=0.05, rounds=CLI_ROUNDS,
    )


FACTORIES = {"scalar-solve": scalar_solve, "systems": systems, "cli-mixed": cli_mixed}


def build(name: str, seed: int, seconds: float) -> Workload:
    """Build a workload's inputs and warm up on its first few ops."""
    wl = FACTORIES[name](seed, seconds)
    for item in wl.warmup:
        wl.op(item)
    return wl
