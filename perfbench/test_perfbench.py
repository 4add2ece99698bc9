"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import threading
import types

import pytest

import calib
import layers
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# tail-percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(20, 50), (21, 52), (40, 75), (100, 90), (250, 96), (1000, 99), (5000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = calib.tail_percentile(n)
    assert p == expected
    rank = -(-p * n // 100)  # ceil
    assert n - rank >= 10
    if p < 99:
        assert n - -(-(p + 1) * n // 100) < 10


def test_tail_value_and_small_samples():
    values = list(range(100, 0, -1))
    assert calib.tail(values) == (90, 90)
    assert calib.nearest_rank([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        calib.tail_percentile(19)


# ---------------------------------------------------------------------------
# self time from nested spans
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        w_leaf()
        w_leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        w_middle()

    w_leaf = tracer.wrap("m.leaf", leaf)
    w_middle = tracer.wrap("m.middle", middle)
    w_outer = tracer.wrap("m.outer", outer)
    w_outer()
    clock.advance(7.0)  # outside any span
    w_leaf()

    stats = tracer.snapshot()["stats"]
    assert stats["m.leaf"] == [3, 6.0, 6.0]
    assert stats["m.middle"] == [1, 5.5, 1.5]
    assert stats["m.outer"] == [1, 8.5, 3.0]
    # self times partition the time covered by outermost spans
    assert sum(s[2] for s in stats.values()) == tracer.snapshot()["top_s"] == 10.5


def test_recursive_span_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def rec(n):
        clock.advance(1.0)
        if n:
            w_rec(n - 1)

    w_rec = tracer.wrap("m.rec", rec)
    w_rec(3)
    assert tracer.snapshot()["stats"]["m.rec"] == [4, 10.0, 4.0]


def test_span_closed_when_the_function_raises():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    def outer():
        with pytest.raises(KeyError):
            w_boom()
        clock.advance(2.0)

    w_boom = tracer.wrap("m.boom", boom)
    tracer.wrap("m.outer", outer)()
    stats = tracer.snapshot()["stats"]
    assert stats["m.boom"] == [1, 1.0, 1.0]
    assert stats["m.outer"] == [1, 3.0, 2.0]


def test_extra_counters_and_snapshot_difference():
    tracer = spans.Tracer()
    w = tracer.wrap("m.f", lambda x: x, extra=lambda args, kwargs, result: {"sum": result})
    w(3)
    before = tracer.snapshot()
    w(4)
    delta = spans.diff(tracer.snapshot(), before)
    assert delta["counters"] == {"m.f.sum": 4}
    assert delta["stats"]["m.f"][0] == 1


def test_threads_keep_their_own_stacks():
    tracer = spans.Tracer()
    w = tracer.wrap("m.f", lambda: None)
    workers = [threading.Thread(target=lambda: [w() for _ in range(100)]) for _ in range(4)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
        assert not t.is_alive()
    assert tracer.snapshot()["stats"]["m.f"][0] == 400


# ---------------------------------------------------------------------------
# wrapper install and restore at every binding site
# ---------------------------------------------------------------------------


def _fake_package():
    home = types.ModuleType("pkg.home")

    def target(x):
        return x + 1

    def _private(x):
        return 2 * x

    home.target = target
    home._private = _private
    user = types.ModuleType("pkg.user")
    user.target = target  # from .home import target
    user.alias = target  # from .home import target as alias
    user.call = lambda x: user.alias(x)
    pkg = types.ModuleType("pkg")
    pkg.target = target  # re-exported by the package
    return {"home": home, "user": user, "pkg": pkg}, target, _private


def test_install_wraps_every_binding_site_and_restores_them():
    modules, target, private = _fake_package()
    tracer = spans.Tracer()
    missing = tracer.install(modules, [("home", "target", None), ("home", "_private", None),
                                       ("home", "renamed_stage", None), ("nowhere", "f", None)])
    assert missing == ["home.renamed_stage", "nowhere.f"]
    sites = [(modules["home"], "target"), (modules["user"], "target"),
             (modules["user"], "alias"), (modules["pkg"], "target")]
    for mod, attr in sites:
        assert getattr(mod, attr) is not target
        assert getattr(mod, attr).__wrapped__ is target
    assert modules["user"].call(1) == 2
    assert modules["home"]._private(2) == 4
    stats = tracer.snapshot()["stats"]
    assert stats["home.target"][0] == 1 and stats["home._private"][0] == 1

    tracer.restore()
    for mod, attr in sites:
        assert getattr(mod, attr) is target
    assert modules["home"]._private is private


def test_context_manager_restores_after_an_error():
    modules, target, _ = _fake_package()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            tracer.install(modules, [("home", "target", None)])
            raise RuntimeError
    assert modules["user"].alias is target


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibrate_scales_by_nominal_over_local():
    assert calib.calibrate(2.0, 0.02, 0.01) == pytest.approx(1.0)
    assert calib.calibrate(0.5, 0.01, 0.01) == pytest.approx(0.5)


class FakeTime:
    """A clock that only the test moves."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    process_time = monotonic = perf_counter


def _scripted_calibrator(monkeypatch, refs):
    """Reference timings return ``refs`` in turn and take 1 ms each; an op
    ``item`` takes ``item`` seconds."""
    fake = FakeTime()
    monkeypatch.setattr(calib, "time", fake)
    scripted = iter(refs)

    def timed_reference(kernel):
        fake.now += 0.001
        return next(scripted)

    monkeypatch.setattr(calib, "timed_reference", timed_reference)

    def op(dt):
        fake.now += dt
        return dt * 10

    return calib.Calibrator(nominal_ref_s=0.010), op


def test_measure_calibrates_each_call_by_its_bracketing_references(monkeypatch):
    cal, op = _scripted_calibrator(monkeypatch, [0.010, 0.030, 0.020])
    results, raws, cals = cal.measure([0.4, 0.2, 0.6], op, gap_s=0.5, window_s=0)
    assert results == pytest.approx([4, 2, 6])
    assert raws == pytest.approx([0.4, 0.2, 0.6])
    # ops 1-2 lie between refs of 10 and 30 ms (median 20), op 3 between 30 and 20
    assert cals == pytest.approx([0.2, 0.1, 0.24])
    assert cal.refs == [0.010, 0.030, 0.020]


def test_measure_windowed_and_whole_phase_references(monkeypatch):
    refs = [0.010, 0.010, 0.040, 0.010, 0.010]
    cal, op = _scripted_calibrator(monkeypatch, refs)
    _, _, cals = cal.measure([0.1] * 4, op, gap_s=0, window_s=0.15)
    # one slow reference timing moves no op's calibration: each op sees the
    # median of the timings within 0.15 s of it
    assert cals == pytest.approx([0.1, 0.1, 0.1, 0.1])
    cal, op = _scripted_calibrator(monkeypatch, refs)
    _, _, cals = cal.measure([0.1] * 4, op, gap_s=0, window_s=0)
    assert cals == pytest.approx([0.1, 0.04, 0.04, 0.1])
    cal, op = _scripted_calibrator(monkeypatch, [0.020] * 5)
    _, _, cals = cal.measure([0.1] * 4, op, gap_s=0, window_s=None)
    assert cals == pytest.approx([0.05] * 4)


def test_local_reference_window():
    refs, times = [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0]
    span = (0.5, 0.9, 1)  # between the timings at 0.0 and 1.0
    assert calib.local_reference(refs, times, span, 0) == 1.5
    assert calib.local_reference(refs, times, span, 1.5) == 2.0
    assert calib.local_reference(refs, times, span, None) == 3.0


def test_pinned_restores_the_affinity():
    before = os.sched_getaffinity(0)
    with calib.pinned():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == before


def test_reference_guard_rejects_a_second_thread(monkeypatch):
    monkeypatch.setattr(calib, "_THREAD_WAIT_S", 0.05)
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    try:
        with pytest.raises(calib.CalibrationError, match="threads alive"):
            calib.timed_reference()
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()
    assert calib.timed_reference() > 0


def test_reference_guard_rejects_cpu_beyond_wall(monkeypatch):
    class TwoThreadsOfCpu(FakeTime):
        def process_time(self):
            return 2 * self.now

    fake = TwoThreadsOfCpu()
    monkeypatch.setattr(calib, "time", fake)

    def kernel():
        fake.now += 0.01

    with pytest.raises(calib.CalibrationError, match="another thread"):
        calib.timed_reference(kernel=kernel)


def test_reference_retries_while_descheduled(monkeypatch):
    class Descheduled(FakeTime):
        cpu = 0.0

        def process_time(self):
            return self.cpu

        def sleep(self, s):
            self.now += s

    fake = Descheduled()
    monkeypatch.setattr(calib, "time", fake)
    runs = []

    def kernel():
        runs.append(1)
        fake.now += 0.01
        fake.cpu += 0.01 if len(runs) >= 3 else 0.002  # the third run gets the CPU

    assert calib.timed_reference(kernel=kernel) == pytest.approx(0.01)
    assert len(runs) == 3

    def starved():
        fake.now += 0.01

    with pytest.raises(calib.CalibrationError, match="too busy"):
        calib.timed_reference(kernel=starved)


def test_reference_runs_with_gc_disabled():
    import gc

    seen = []
    assert gc.isenabled()
    calib.timed_reference(kernel=lambda: seen.append(gc.isenabled()) or calib.reference_kernel())
    assert seen and not any(seen)
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# the declared metrics match what the run reports
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == layers.metric_specs()
    assert len({name for name, _, _ in declared}) == len(declared)
