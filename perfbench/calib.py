"""Host-speed calibration and the statistics the benchmark reports.

Every end-to-end time is rescaled by a fixed stdlib reference kernel timed
next to the work: ``calibrated = raw * NOMINAL_REF_S / local_ref_s``.  The
kernel is a ``fractions.Fraction`` loop, so it tracks the interpreter and
big-integer speed that dominate the program, but it shares no code with it.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import math
import os
import statistics
import threading
import time
from fractions import Fraction

# Median reference-kernel time on the 2-core host the benchmark was tuned on.
# Any fixed value works: it only sets the scale of the calibrated times.
NOMINAL_REF_S = 0.0035

_REF_ROUNDS = 60
# reference timings within this long of a call calibrate it
WINDOW_S = 0.5
_REF_COEFFS = tuple(Fraction(k + 1, 2 * k + 3) for k in range(12))

# A reference timing is retried while the process got less than this share
# of the wall time (the host descheduled it), for up to _REF_RETRY_S; more CPU
# than wall time means another thread of this process ran, which is an error.
_MIN_CPU_SHARE = 0.9
_MAX_CPU_SHARE = 1.05
_REF_RETRY_S = 5.0
_THREAD_WAIT_S = 2.0


class CalibrationError(RuntimeError):
    """The reference timing could not be trusted."""


def reference_kernel(rounds: int = _REF_ROUNDS) -> int:
    """Horner evaluation of a fixed rational polynomial at rational points."""
    check = 0
    for r in range(rounds):
        x = Fraction(r % 7 - 3, r % 5 + 2)
        acc = Fraction(0)
        for c in _REF_COEFFS:
            acc = acc * x + c
        check = (check + acc.numerator) % 1000003
    return check


def thread_count() -> int:
    """Operating-system threads of this process."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _wait_single_thread() -> None:
    # a joined worker thread can take a moment to leave the task list
    deadline = time.monotonic() + _THREAD_WAIT_S
    while (n := thread_count()) != 1:
        if time.monotonic() > deadline:
            raise CalibrationError(f"{n} threads alive before a reference timing")
        time.sleep(0.001)


def timed_reference(kernel=reference_kernel) -> float:
    """Wall time of one reference-kernel run, with gc off and the process
    single-threaded; raises CalibrationError when either guard trips."""
    _wait_single_thread()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        deadline = time.monotonic() + _REF_RETRY_S
        while True:
            c0 = time.process_time()
            t0 = time.perf_counter()
            kernel()
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if cpu > wall * _MAX_CPU_SHARE + 0.0005:
                raise CalibrationError(
                    f"process CPU time {cpu:.4f}s exceeds wall time {wall:.4f}s "
                    "during the reference kernel: another thread was running"
                )
            if cpu >= wall * _MIN_CPU_SHARE:
                return wall
            if time.monotonic() > deadline:
                raise CalibrationError(
                    f"reference kernel got under {_MIN_CPU_SHARE:.0%} of the CPU for "
                    f"{_REF_RETRY_S:.0f}s; the host is too busy to calibrate"
                )
            time.sleep(0.001)  # let whatever displaced us run
    finally:
        if gc_was_enabled:
            gc.enable()


def calibrate(raw_s: float, local_ref_s: float, nominal_ref_s: float = NOMINAL_REF_S) -> float:
    """Rescale a raw time to the nominal host speed."""
    return raw_s * nominal_ref_s / local_ref_s


class Calibrator:
    """Times program work between reference timings.

    ``measure`` runs a function over items and times each call.  The kernel
    runs before the first item and again once ``gap_s`` of timed work has
    accrued, so no more than about ``gap_s`` plus one item of program work
    lies between two reference timings.  Each call is calibrated by the
    median of the reference times taken within ``window_s`` of it, always
    including the two that bracket it: this tracks drift in host speed
    without passing on the noise of a single timing.
    """

    def __init__(self, kernel=reference_kernel, nominal_ref_s: float = NOMINAL_REF_S):
        self.kernel = kernel
        self.nominal_ref_s = nominal_ref_s
        self.refs: list[float] = []
        self.ref_times: list[float] = []

    def reference(self, repeats: int = 1) -> float:
        ref = statistics.median(timed_reference(self.kernel) for _ in range(repeats))
        self.refs.append(ref)
        self.ref_times.append(time.perf_counter())
        return ref

    def measure(self, items, fn, gap_s: float, window_s: float | None = WINDOW_S,
                repeats: int = 1, after_each=None):
        """Time ``fn(item)`` per item; returns (results, raw_s list,
        calibrated_s list).  ``after_each(item, result)`` runs untimed.
        ``window_s=None`` calibrates every call by all of this call's
        reference timings; each timing is the median of ``repeats`` kernel
        runs."""
        first = len(self.refs)
        self.reference(repeats)
        results, raws, spans = [], [], []
        accrued = 0.0
        for item in items:
            t0 = time.perf_counter()
            result = fn(item)
            t1 = time.perf_counter()
            results.append(result)
            raws.append(t1 - t0)
            spans.append((t0, t1, len(self.refs) - first))  # index of the timing after it
            accrued += t1 - t0
            if after_each is not None:
                after_each(item, result)
            if accrued >= gap_s:
                self.reference(repeats)
                accrued = 0.0
        if not raws or accrued > 0:
            self.reference(repeats)
        refs, times = self.refs[first:], self.ref_times[first:]
        cals = [
            calibrate(dt, local_reference(refs, times, span, window_s), self.nominal_ref_s)
            for dt, span in zip(raws, spans)
        ]
        return results, raws, cals


def local_reference(refs: list[float], times: list[float], span, window_s: float | None) -> float:
    """Median of the reference times taken within ``window_s`` of the call
    ``span = (start, end, after)``, whose bracketing timings are
    ``refs[after - 1]`` and ``refs[after]``."""
    if window_s is None:
        return statistics.median(refs)
    t0, t1, after = span
    lo = min(bisect.bisect_left(times, t0 - window_s), after - 1)
    hi = max(bisect.bisect_right(times, t1 + window_s), after + 1)
    return statistics.median(refs[lo:hi])


@contextlib.contextmanager
def pinned():
    """Run on one CPU, so reference timings and the work they calibrate (in
    this process or its children) see the same core."""
    try:
        saved = os.sched_getaffinity(0)
    except (AttributeError, OSError):
        yield
        return
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int, beyond: int = 10) -> int:
    """The highest integer percentile (50..99) with at least ``beyond`` of
    ``n`` samples above its nearest-rank position."""
    if n < 2 * beyond:
        raise ValueError(f"{n} samples cannot give a tail with {beyond} samples beyond it")
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= beyond:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def tail(values, beyond: int = 10) -> tuple[int, float]:
    """(percentile, value) of the tail rule."""
    p = tail_percentile(len(values), beyond)
    return p, nearest_rank(values, p)


def median(values) -> float:
    return statistics.median(values)


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1
