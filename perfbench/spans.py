"""Per-layer spans recorded from outside the program.

The package binds functions across modules with ``from .x import f``, so a
function is wrapped at every module namespace that holds it, and restored at
each of those sites afterwards.  A span's self time is its duration minus the
durations of the wrapped spans nested directly inside it, per thread.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._threads: list = []
        self._lock = threading.Lock()
        self._sites: list[tuple[object, str, object]] = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = {
                "stack": [],
                "stats": defaultdict(lambda: [0, 0.0, 0.0]),  # calls, total_s, self_s
                "counters": defaultdict(float),
                "top_s": 0.0,  # time inside outermost spans
            }
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn, extra=None):
        """``extra(args, kwargs, result)`` returns {counter_suffix: increment}."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st["stack"]
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec = st["stats"][name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    st["top_s"] += dt
            if extra is not None:
                counters = st["counters"]
                for key, inc in extra(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += inc
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, modules: dict, targets) -> list[str]:
        """Wrap each ``(layer, function, extra)`` of ``targets`` at every
        module in ``modules`` (name -> module) that binds it.  Returns the
        names of targets the layer module does not define."""
        missing = []
        for layer, func, extra in targets:
            home = modules.get(layer)
            original = getattr(home, func, None) if home is not None else None
            if original is None or not callable(original):
                missing.append(f"{layer}.{func}")
                continue
            wrapper = self.wrap(f"{layer}.{func}", original, extra)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._sites.append((mod, attr, original))
        return missing

    def restore(self) -> None:
        for mod, attr, original in reversed(self._sites):
            setattr(mod, attr, original)
        self._sites.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def snapshot(self) -> dict:
        """Merged totals over all threads: {"stats": {name: [calls, total_s,
        self_s]}, "counters": {...}, "top_s": float}."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counters = defaultdict(float)
        top = 0.0
        with self._lock:
            states = list(self._threads)
        for st in states:
            for name, rec in list(st["stats"].items()):
                agg = stats[name]
                for i in range(3):
                    agg[i] += rec[i]
            for key, val in list(st["counters"].items()):
                counters[key] += val
            top += st["top_s"]
        return {"stats": dict(stats), "counters": dict(counters), "top_s": top}


def diff(after: dict, before: dict) -> dict:
    """Totals accrued between two snapshots."""
    stats = {}
    for name, rec in after["stats"].items():
        old = before["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [rec[i] - old[i] for i in range(3)]
    counters = {k: v - before["counters"].get(k, 0.0) for k, v in after["counters"].items()}
    return {"stats": stats, "counters": counters, "top_s": after["top_s"] - before["top_s"]}


def merge(a: dict, b: dict) -> dict:
    """Totals of two disjoint stretches."""
    stats = {k: list(v) for k, v in a["stats"].items()}
    for k, v in b["stats"].items():
        cur = stats.setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            cur[i] += v[i]
    counters = dict(a["counters"])
    for k, v in b["counters"].items():
        counters[k] = counters.get(k, 0) + v
    return {"stats": stats, "counters": counters, "top_s": a["top_s"] + b["top_s"]}
