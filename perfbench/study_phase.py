"""The study path: the 144-node study graph, cold at 2 and 1 workers, then warm.

Each pass is a fresh ``repro study run`` process, timed from spawn to
exit.  The cold passes start from empty memo directories; the warm
passes rerun over a ``workers=2`` memo, so their time is import, corpus
construction and memo reads.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from statistics import mean

from common import ChildFailed, Checks, repro_cli, run_child

NODE_COUNT = 144
#: Unique bugs the paper reports for Apache, GNOME and MySQL (Tables 1-3).
PAPER_UNIQUE_BUGS = {"T1": 50, "T2": 45, "T3": 44}

_SUMMARY = re.compile(r"Study run: (\d+) executed, (\d+) cached")


def study_pass(work: Path, cache_dir: Path, workers: int, *extra: str) -> tuple[float, int, int]:
    """One ``repro study run``; returns (wall seconds, executed, cached).

    Raises ``ChildFailed`` when the run exits non-zero, as it does when
    a node fails.
    """
    wall, out = run_child(
        repro_cli(
            "study", "run", "--workers", str(workers),
            "--cache-dir", str(cache_dir), "--quiet", *extra,
        ),
        work,
    )
    return (wall, *_summary(out))


def _summary(out: str) -> tuple[int, int]:
    """(executed, cached) from a run's summary line; (0, 0) without one."""
    match = _SUMMARY.search(out)
    if match is None:
        return 0, 0
    return int(match.group(1)), int(match.group(2))


def memo_digests(cache_dir: Path) -> tuple[dict[str, str], dict[str, dict]]:
    """Every node's digest from a complete memo, plus the T1-T3 payloads.

    A warm in-process ``run_study`` over the memo executes nothing; it
    only resolves digests through the cache.
    """
    from repro.corpus.loader import full_study
    from repro.harness.telemetry import Telemetry
    from repro.pipeline.cache import ParseMineCache
    from repro.studygraph.context import StudyContext
    from repro.studygraph.scheduler import run_study

    context = StudyContext(
        study=full_study(), workers=1, cache=ParseMineCache(cache_dir),
        telemetry=Telemetry(),
    )
    result = run_study(context, outputs=list(PAPER_UNIQUE_BUGS))
    return {name: run.digest for name, run in result.runs.items()}, result.outputs


class StudyPasses:
    """The study path's passes, run one at a time so a caller can spread
    them across a run: samples taken far apart see different moments of
    a noisy machine, and their mean is steadier than back-to-back ones.
    """

    def __init__(self, work: Path, checks: Checks) -> None:
        self.work = work
        self.checks = checks
        self.memos: list[tuple[Path, int]] = []
        self.cold: dict[int, list[float]] = {1: [], 2: []}
        self.warm: list[float] = []
        self.warm_counts: list[tuple[int, int]] = []

    @property
    def memo(self) -> Path:
        """The first cold memo; warm passes and the serve daemon read it."""
        return self.memos[0][0]

    def _run(self, cache_dir: Path, workers: int) -> tuple[float | None, int, int]:
        """One pass; a pass that exits non-zero is a failed check and no sample."""
        try:
            return study_pass(self.work, cache_dir, workers)
        except ChildFailed as exc:
            self.checks.expect(False, f"study pass failed: {exc}")
            return (None, *_summary(exc.stdout))

    def cold_pass(self, workers: int) -> None:
        memo = self.work / f"memo-{len(self.memos)}-w{workers}"
        os.sync()  # write back earlier passes' files before the clock starts
        wall, executed, _ = self._run(memo, workers)
        self.memos.append((memo, executed))
        if wall is not None:
            self.cold[workers].append(wall)

    def warm_pass(self) -> None:
        wall, executed, cached = self._run(self.memo, 2)
        self.warm_counts.append((executed, cached))
        if wall is not None:
            self.warm.append(wall)

    def digests(self) -> dict[str, str]:
        return memo_digests(self.memo)[0]

    def finish(self) -> dict:
        """Check every pass's outputs; return the metrics and op counts.

        A metric whose every pass failed is left out.
        """
        checks = self.checks
        for memo, executed in self.memos:
            checks.expect(executed == NODE_COUNT, f"cold pass into {memo.name} executed {executed} nodes")
        for executed, cached in self.warm_counts:
            checks.expect(
                executed == 0 and cached == NODE_COUNT,
                f"warm pass: {executed} executed, {cached} cached",
            )
        digests, outputs = memo_digests(self.memo)
        checks.expect(len(digests) == NODE_COUNT, f"memo resolves {len(digests)} nodes")
        for memo, _ in self.memos[1:]:
            other, _ = memo_digests(memo)
            drift = sorted(name for name in digests if other.get(name) != digests[name])
            checks.expect(not drift, f"node digests of {memo.name} differ: {drift[:5]}")
        for table, expected in PAPER_UNIQUE_BUGS.items():
            found = sum(outputs[table]["counts"].values())
            checks.expect(found == expected, f"{table} has {found} unique bugs, not {expected}")

        resolved = [executed for _, executed in self.memos] + [c for _, c in self.warm_counts]
        samples = {"study_cold_s": self.cold[2], "study_cold_serial_s": self.cold[1],
                   "study_warm_s": self.warm}
        return {
            "metrics": {name: mean(values) for name, values in samples.items() if values},
            "attempted": NODE_COUNT * len(resolved),
            "failed": sum(NODE_COUNT - count for count in resolved),
            "samples": samples,
        }
