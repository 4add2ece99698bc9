"""What the traced run wraps, and the per-layer metrics it reports.

Each target is ``(module, function, extra)``: the run reports
``<module>.<function>.calls`` and ``.self_ms`` and, where ``extra`` is given,
the counters it returns.  README.md maps each layer to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations


def _deg_in(args, kwargs, result):
    return {"deg_in": max(args[0].degree, 0) + max(args[1].degree, 0)}


def _cells(args, kwargs, result):
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    # the caller passes the field's zero: a RatFun over Q(x), a rational over Q
    return {"cells_qx" if hasattr(args[2], "den") else "cells_q": cells}


def _status(args, kwargs, result):
    return {result.status.name.lower(): 1}


def _bound_sum(args, kwargs, result):
    return {"sum": result or 0}


def _candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _found(args, kwargs, result):
    return {"found": int(result is not None)}


TARGETS = (
    ("numcore", "poly_gcd", _deg_in),
    ("numcore", "poly_lcm", None),
    ("numcore", "poly_xgcd", None),
    ("numcore", "poly_resultant", None),
    ("numcore", "squarefree_decomposition", None),
    ("numcore", "integer_roots", None),
    ("linalg", "solve_affine", _cells),
    ("linalg", "invert_matrix", None),
    ("solver", "solve_scalar", _status),
    ("solver", "solve_system", None),
    ("solver", "eliminate_coordinate", None),
    ("solver", "solve_first_order", None),
    ("solver", "_universal_denominator_prepared", None),
    ("solver", "_degree_bound", _bound_sum),
    ("solver", "_solve_with_ansatz", None),
    ("solver", "_verify_space", None),
    ("solver", "_verify_system", None),
    ("dispersion", "dispersion", None),
    ("dispersion", "polar_dispersion", None),
    ("dispersion", "is_standard", None),
    ("dispersion", "additive_standard_decomp", None),
    ("dispersion", "multiplicative_standard_form", None),
    ("dispersion", "_shift_gap_candidates", _candidates),
    ("dispersion", "_q_gap_candidates", _candidates),
    ("structures", "apply_sigma", None),
    ("structures", "apply_derivation", None),
    ("structures", "apply_op", None),
    ("criteria", "find_telescoper", _found),
    ("criteria", "hypergeom_da_test", None),
    ("criteria", "inhomog_da_classify", None),
    ("criteria", "integrability_test", None),
    ("criteria", "group_classify_inhomog_sum", None),
    ("criteria", "verify_telescoper", None),
    ("parsing", "parse_ratfun", None),
    ("parsing", "parse_poly", None),
    ("parsing", "parse_matrix", None),
    ("parsing", "parse_vector", None),
    ("parsing", "format_ratfun", None),
    ("cli", "run_query", None),
    ("cli", "query_from_dict", None),
    ("cli", "run_batch", None),
)

# counters from the extras: (name, unit, better)
COUNTERS = (
    ("numcore.poly_gcd.deg_in", "count", "lower"),
    ("linalg.solve_affine.cells_q", "count", "lower"),
    ("linalg.solve_affine.cells_qx", "count", "lower"),
    ("solver.solve_scalar.solved", "count", "higher"),
    ("solver.solve_scalar.no_solution", "count", "higher"),
    ("solver.solve_scalar.bound_exceeded", "count", "lower"),
    ("solver._degree_bound.sum", "count", "lower"),
    ("dispersion._shift_gap_candidates.candidates", "count", "lower"),
    ("dispersion._q_gap_candidates.candidates", "count", "lower"),
    ("criteria.find_telescoper.found", "count", "higher"),
)

# measured by the run itself rather than by a wrapper
HOST = (
    ("cli.run_batch.overhead_ms", "ms", "lower"),
    ("host.ref_ms_p50", "ms", "lower"),
    ("host.ref_ms_iqr", "ms", "lower"),
    ("host.raw_setup_s", "s", "lower"),
    ("host.raw_throughput_ops", "1/s", "higher"),
    ("host.raw_latency_ms_p50", "ms", "lower"),
    ("host.raw_latency_ms_tail", "ms", "lower"),
    ("host.raw_cold_query_ms_p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.unwrapped_ms", "ms", "lower"),
    ("trace.missing", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, func, _ in TARGETS:
        out.append((f"{layer}.{func}.calls", "count", "lower"))
        out.append((f"{layer}.{func}.self_ms", "ms", "lower"))
    return out + list(COUNTERS) + list(HOST)


def span_metrics(totals: dict, factor: float) -> dict[str, tuple[float, str]]:
    """Calls, calibrated self time and counters from a tracer snapshot
    difference; a target that never ran reports zeros."""
    out = {}
    for layer, func, _ in TARGETS:
        calls, _, self_s = totals["stats"].get(f"{layer}.{func}", (0, 0.0, 0.0))
        out[f"{layer}.{func}.calls"] = (calls, "count")
        out[f"{layer}.{func}.self_ms"] = (self_s * 1000 * factor, "ms")
    for name, unit, _ in COUNTERS:
        out[name] = (totals["counters"].get(name, 0), unit)
    return out
