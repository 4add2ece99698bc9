#!/usr/bin/env python3
"""diffalg benchmark: calibrated end-to-end timings, or per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scalar-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (it also runs the untraced measurement, for the raw host figures and
the tracing overhead).  The last stdout line is the JSON result; the line
before it holds the run's environment, corpus make-up and raw figures.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scalar-solve", "systems", "cli-mixed")
SETUP_PROBES = 5
PROBE_REFS = 9
# Process start-up is calibrated by a stdlib-only process start timed next to
# it (the imports diffalg needs from the standard library): the Fraction
# kernel tracked fresh-process times about half as well.
SPAWN_REF_ARGS = ["-c", "import argparse, concurrent.futures, dataclasses, enum, fractions, json"]
NOMINAL_SPAWN_REF_S = 0.085
CHILD_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def work_dir() -> Path:
    """Benchmark-owned scratch space inside the checkout."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    base = (ROOT / base).resolve()
    if ROOT.resolve() not in base.parents:
        base = ROOT / ".bench_build"
    out = base / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    return out


def child_env() -> dict:
    """The program runs on the stdlib Fraction backend, from this checkout,
    with a benchmark-owned bytecode cache that it may write."""
    env = dict(os.environ)
    env["DIFFALG_RAT_BACKEND"] = "fraction"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(work_dir() / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def prepare_process() -> None:
    os.environ["DIFFALG_RAT_BACKEND"] = "fraction"
    sys.pycache_prefix = str(work_dir() / "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("diffalg")
    if spec is None or spec.origin is None or Path(spec.origin).resolve().parent != (SRC / "diffalg").resolve():
        raise BenchError(f"diffalg sources not found under {SRC}")


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# set-up time: import diffalg, build the corpus, warm up, in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, seconds: float) -> None:
    """Set up once in this fresh process, then time the reference kernel
    here, on the same core and heap, to calibrate it."""
    t0 = time.perf_counter()
    import workloads

    workloads.build(workload, seed, seconds)
    setup_s = time.perf_counter() - t0
    ref_s = calib.median([calib.timed_reference() for _ in range(PROBE_REFS)])
    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))


def measure_setup(workload: str, seed: int, seconds: float):
    probe = [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)]
    run_child(probe)  # untimed: fills the bytecode cache
    raws, cals = [], []
    for _ in range(SETUP_PROBES):
        proc = run_child(probe)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raws.append(out["setup_s"])
        cals.append(calib.calibrate(out["setup_s"], out["ref_s"]))
    return raws, cals


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(str(what)[:300])


class OpError:
    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def guarded(op):
    def call(item):
        try:
            return op(item)
        except Exception as exc:  # counted as a failed op, the run goes on
            return OpError(exc)

    return call


def checker(wl, tally: Tally):
    def after_each(item, result):
        if isinstance(result, OpError):
            tally.record(False, result)
            return
        try:
            ok = wl.check(item, result)
        except Exception as exc:
            ok, result = False, OpError(exc)
        tally.record(ok, result if not ok else None)

    return after_each


def measure_batch(cal, chunks, workers: int):
    """Time cli.run_batch over NDJSON files of about half a second of work
    each; returns (outputs, raw_s, calibrated_s) per chunk."""
    from diffalg import cli

    paths = []
    for i, chunk in enumerate(chunks):
        path = work_dir() / f"batch-{os.getpid()}-{i}.ndjson"
        path.write_text("".join(json.dumps(s["line"]) + "\n" for s in chunk), encoding="utf-8")
        paths.append(path)
    try:
        return cal.measure(paths, guarded(lambda p: cli.run_batch(str(p), workers)), gap_s=0)
    finally:
        for p in paths:
            p.unlink()


def check_batch(wl, chunks, outs, tally) -> None:
    for chunk, out in zip(chunks, outs):
        if isinstance(out, OpError) or len(out[0]) != len(chunk):
            for _ in chunk:
                tally.record(False, out if isinstance(out, OpError) else "report count mismatch")
            continue
        for spec, report in zip(chunk, out[0]):
            tally.record(wl.check_report(spec, report), report)


def measure_cold(cal, wl, tally):
    """Fresh ``python -m diffalg.cli`` processes, one query each, alternating
    with reference process starts."""
    queries = wl.extra["cold"]
    run_child(["-m", "diffalg.cli", *queries[0][0]])  # untimed: fills the bytecode cache
    raws, spawn_refs = [], []
    for argv, expected in queries:
        t0 = time.perf_counter()
        run_child(SPAWN_REF_ARGS)
        t1 = time.perf_counter()
        proc = run_child(["-m", "diffalg.cli", *argv])
        raws.append(time.perf_counter() - t1)
        spawn_refs.append(t1 - t0)
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["verdict"] == expected
        except (ValueError, KeyError):
            ok = False
        tally.record(ok, proc.stderr[-300:] or proc.stdout[-300:])
    local = calib.median(spawn_refs)
    return raws, [calib.calibrate(raw, local, NOMINAL_SPAWN_REF_S) for raw in raws]


def summarize(lat_s, thr_ops, thr_s, setup_s, cold_s) -> dict:
    pct, tail_s = calib.tail(lat_s)
    return {
        "setup_s": calib.median(setup_s),
        "throughput_ops": thr_ops / sum(thr_s),
        "latency_ms_p50": 1000 * calib.median(lat_s),
        "latency_ms_tail": 1000 * tail_s,
        "cold_query_ms_p50": 1000 * calib.median(cold_s),
        "tail_percentile": pct,
    }


def traced_pass(cal, wl, tally, workers: int, untraced: list, untraced_cal: list[float]):
    """Time the trace prefix again with every layer target wrapped; returns
    (per-layer metrics, missing targets, whether self times account for the
    traced op time within 5%)."""
    import layers
    import spans

    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name == "diffalg" or name.startswith("diffalg.")}
    tracer = spans.Tracer()
    items = wl.trace_items
    ref_start = len(cal.refs)
    with tracer:
        missing = tracer.install(modules, layers.TARGETS)
        start = tracer.snapshot()
        with calib.pinned():
            results, raws, cals = cal.measure(
                items, guarded(wl.op), gap_s=wl.ref_gap_s, repeats=wl.ref_repeats
            )
        serial = spans.diff(tracer.snapshot(), start)
        totals = serial
        if wl.name == "cli-mixed":
            before = tracer.snapshot()
            measure_batch(cal, wl.extra["chunks"][:1], workers)
            batch = spans.diff(tracer.snapshot(), before)
            totals = spans.merge(serial, batch)
    # tracing must not change any result
    for traced, plain in zip(results, untraced):
        same = not isinstance(traced, OpError) and not isinstance(plain, OpError) \
            and wl.fingerprint(traced) == wl.fingerprint(plain)
        tally.record(same, f"traced result differs: {traced!r}")

    factor = cal.nominal_ref_s / calib.median(cal.refs[ref_start:])
    metrics = layers.span_metrics(totals, factor)
    op_s = sum(raws)
    self_s = sum(rec[2] for rec in serial["stats"].values())
    unwrapped_s = op_s - serial["top_s"]
    accounted = (self_s + unwrapped_s) / op_s
    metrics["trace.accounted_ratio"] = (accounted, "ratio")
    metrics["trace.unwrapped_ms"] = (unwrapped_s * 1000 * factor, "ms")
    metrics["trace.overhead_ratio"] = (sum(cals) / sum(untraced_cal[: len(items)]), "ratio")
    overhead_ms = 0.0
    if wl.name == "cli-mixed":
        in_batch = batch["stats"].get("cli.run_batch", (0, 0.0, 0.0))[1]
        in_queries = batch["stats"].get("cli.run_query", (0, 0.0, 0.0))[1]
        overhead_ms = (in_batch - in_queries) * 1000 * factor
    metrics["cli.run_batch.overhead_ms"] = (overhead_ms, "ms")
    return metrics, missing, abs(accounted - 1.0) <= 0.05


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from diffalg import numcore

    cal = calib.Calibrator()
    with calib.pinned():
        setup_raw, setup_cal = measure_setup(workload, seed, seconds)
    wl = workloads.build(workload, seed, seconds)
    tally = Tally()
    workers = min(4, os.cpu_count() or 1)

    rounds_raw, rounds_cal = [], []
    with calib.pinned():
        for _ in range(wl.rounds):
            results, raws, cals = cal.measure(
                wl.items, guarded(wl.op), gap_s=wl.ref_gap_s, repeats=wl.ref_repeats,
                after_each=checker(wl, tally),
            )
            rounds_raw.append(raws)
            rounds_cal.append(cals)
    # an op's latency is the median of its rounds
    lat_raw = [calib.median(x) for x in zip(*rounds_raw)]
    lat_cal = [calib.median(x) for x in zip(*rounds_cal)]
    if workload == "cli-mixed":
        chunks = wl.extra["chunks"]
        outs, thr_raw, thr_cal = measure_batch(cal, chunks, workers)
        check_batch(wl, chunks, outs, tally)
        n_thr = len(wl.items)
    else:
        thr_raw, thr_cal = sum(rounds_raw, []), sum(rounds_cal, [])
        n_thr = len(thr_cal)
    with calib.pinned():
        cold_raw, cold_cal = measure_cold(cal, wl, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    cal_m = summarize(lat_cal, n_thr, thr_cal, setup_cal, cold_cal)
    raw_m = summarize(lat_raw, n_thr, thr_raw, setup_raw, cold_raw)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "rat_type": f"{numcore.Rat.__module__}.{numcore.Rat.__name__}",
        "nproc": os.cpu_count(), "batch_workers": workers if workload == "cli-mixed" else None,
        "corpus_digest": wl.digest, "composition": wl.composition, "ops": len(wl.items),
        "tail_percentile": cal_m["tail_percentile"], "latency_samples": len(lat_cal),
        "ref_ms_p50": 1000 * calib.median(cal.refs), "ref_ms_iqr": 1000 * calib.iqr(cal.refs),
        "ref_timings": len(cal.refs), "nominal_ref_ms": 1000 * cal.nominal_ref_s,
        "raw": {k: v for k, v in raw_m.items() if k != "tail_percentile"},
        "errors": tally.errors,
    }
    if not trace:
        metrics = {
            "setup_s": (cal_m["setup_s"], "s"),
            "throughput_ops": (cal_m["throughput_ops"], "1/s"),
            "latency_ms_p50": (cal_m["latency_ms_p50"], "ms"),
            "latency_ms_tail": (cal_m["latency_ms_tail"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "cold_query_ms_p50": (cal_m["cold_query_ms_p50"], "ms"),
        }
        accounted_ok = True
    else:
        metrics, missing, accounted_ok = traced_pass(cal, wl, tally, workers, results, lat_cal)
        info["missing_spans"] = missing
        metrics["trace.missing"] = (len(missing), "count")
        metrics["host.ref_ms_p50"] = (info["ref_ms_p50"], "ms")
        metrics["host.ref_ms_iqr"] = (info["ref_ms_iqr"], "ms")
        for key, unit in (("setup_s", "s"), ("throughput_ops", "1/s"), ("latency_ms_p50", "ms"),
                          ("latency_ms_tail", "ms"), ("cold_query_ms_p50", "ms")):
            metrics[f"host.raw_{key}"] = (raw_m[key], unit)
    print(json.dumps({"info": info}, sort_keys=True))
    return {
        "correct": tally.failed == 0 and accounted_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        prepare_process()
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.seconds)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, calib.CalibrationError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
