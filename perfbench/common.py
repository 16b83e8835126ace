"""Shared plumbing for the benchmark: paths, child processes, checks.

The benchmark runs from the root of a source checkout.  Every program
call goes through a child interpreter with ``PYTHONPATH=<root>/src``,
and every file the benchmark or the program writes lands under the
run's work directory inside the checkout (``TMPDIR`` points there too).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: Client connections and pool workers: the box this was tuned on has 2 cores.
WORKERS = 2


def child_env(work: Path) -> dict[str, str]:
    """Environment for every child: the checkout's ``src`` first, temp in ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(work)
    return env


class ChildFailed(RuntimeError):
    """A child exited non-zero; ``stdout`` holds what it printed."""

    def __init__(self, message: str, stdout: str = "") -> None:
        super().__init__(message)
        self.stdout = stdout


def run_child(argv: list[str], work: Path, *, timeout: float = 150.0) -> tuple[float, str]:
    """Run one child to completion; return (wall seconds, stdout).

    Wall time runs from spawn to exit, so interpreter start and imports
    count: a user pays them on every CLI call.
    """
    started = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=work,
        env=child_env(work),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise ChildFailed(f"{' '.join(argv[:6])} exited {proc.returncode}: {tail}", proc.stdout)
    return wall, proc.stdout


def repro_cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def bench_script(name: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / name), *args]


def last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed("child printed nothing")
    return json.loads(lines[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(fraction * len(sorted_values))))
    return sorted_values[rank - 1]


class Checks:
    """Named output checks; every failure also counts as a failed operation."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
