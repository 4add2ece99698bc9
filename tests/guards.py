"""Run every guard of ``tests/data/guards.jsonl`` and check its report.

A guard is one batch line that once ran without bound, or ended in an
internal error, together with the seconds it may take and the exit code
and report it must give.  Each guard runs alone in its own

    python -m diffalg.cli batch /dev/stdin

process, with the line on stdin and this checkout's ``src`` as its
``PYTHONPATH``; a process still running after the guard's ``seconds`` is
killed and the guard fails.  The expected report is matched as a recursive
dict subset of the one report the line prints: every key it names must be
present with the same value, and a dict value is matched the same way.

Run it from anywhere as ``python tests/guards.py``; it takes no options.
It prints one line per guard, followed by the process's stderr when the
guard fails, and exits 1 if any guard fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
TABLE = os.path.join(TESTS_DIR, "data", "guards.jsonl")
COMMAND = (sys.executable, "-m", "diffalg.cli", "batch", "/dev/stdin")


def load_guards() -> list[dict]:
    """The guards of the table, one JSON object per non-blank line."""
    with open(TABLE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def matches(expected, actual) -> bool:
    """Whether ``actual`` holds every key of a dict ``expected`` with a
    matching value, recursively; any other value must be equal and of the
    same type (so 0 does not match false)."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches(value, actual[key]) for key, value in expected.items()
        )
    return type(expected) is type(actual) and expected == actual


def check_output(expect: dict, code: int, stdout: str) -> str | None:
    """Why an exit code and stdout fail ``expect``, or None if they pass."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} reports, expected 1"
    try:
        report = json.loads(lines[0])
    except ValueError:
        return f"not a JSON report: {lines[0][:300]}"
    if not matches(expect["report"], report):
        return f"report {lines[0][:300]}"
    return None


def run_guard(guard: dict) -> tuple[float, str | None]:
    """Run one guard: its wall time in seconds, and why it failed or None."""
    query = guard["query"]  # a string is a line that must fail to parse
    line = query if isinstance(query, str) else json.dumps(query)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            COMMAND,
            input=line + "\n",
            capture_output=True,
            encoding="utf-8",
            errors="replace",
            timeout=guard["seconds"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "timed out"
    elapsed = time.perf_counter() - start
    reason = check_output(guard["expect"], proc.returncode, proc.stdout)
    if reason and proc.stderr.strip():
        reason += "\n" + proc.stderr.rstrip()
    return elapsed, reason


def main() -> int:
    guards = load_guards()
    width = max(len(guard["id"]) for guard in guards)
    failed, start = 0, time.perf_counter()
    for guard in guards:
        elapsed, reason = run_guard(guard)
        failed += reason is not None
        verdict = "PASS" if reason is None else "FAIL"
        print(f"{verdict}  {guard['id']:<{width}}  {elapsed:6.2f} s of {guard['seconds']:g} s"
              + (f"  {reason}" if reason else ""), flush=True)
    print(f"{len(guards) - failed} of {len(guards)} guards passed in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
