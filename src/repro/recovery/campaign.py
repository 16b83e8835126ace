"""Parameter-sweep campaigns over the replay experiment.

Two sweeps the replay makes natural:

* **retry budget** -- how transient-fault survival grows with the number
  of recovery attempts (races re-fire with probability ``race_window``
  per retry, so survival approaches 1 geometrically);
* **race window** -- how survival degrades as the racy interleaving
  window widens.

Both isolate the timing-triggered faults, the only place where retry
count matters; deterministic environmental repairs either work on the
first perturbed retry or never.

Both sweeps run on the :mod:`repro.harness` campaign engine: pass
``workers=N`` to shard the replays across processes, ``journal=`` to
make an interrupted sweep resumable.  Seeds are derived per
``(parameter, fault, replication)`` unit, so verdicts are identical for
any worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.bugdb.enums import TriggerKind
from repro.corpus.loader import StudyData
from repro.corpus.studyspec import StudyFault
from repro.recovery.base import RecoveryTechnique
from repro.rng import DEFAULT_SEED

TIMING_TRIGGERS = frozenset(
    {
        TriggerKind.RACE_CONDITION,
        TriggerKind.SIGNAL_TIMING,
        TriggerKind.WORKLOAD_TIMING,
        TriggerKind.UNKNOWN_TRANSIENT,
    }
)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One point of a campaign sweep.

    Attributes:
        parameter: the swept value (attempts or window).
        survived: timing faults survived at this point.
        total: timing-fault replays at this point.
    """

    parameter: float
    survived: int
    total: int

    @property
    def survival_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.survived / self.total


def timing_faults(study: StudyData) -> list[StudyFault]:
    """The study faults whose defects are timing-triggered."""
    return [fault for fault in study.all_faults() if fault.trigger in TIMING_TRIGGERS]


def sweep_retry_budget(
    study: StudyData,
    technique_factory: Callable[[int], RecoveryTechnique],
    *,
    budgets: Sequence[int] = (1, 2, 3, 4, 6, 8),
    race_window: float = 0.25,
    replications: int = 5,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    journal: str | None = None,
) -> list[SweepPoint]:
    """Sweep the recovery-attempt budget over the timing faults.

    Args:
        study: the curated study.
        technique_factory: builds a technique given ``max_attempts``.
        budgets: attempt budgets to sweep.
        race_window: racy-window width for every defect.
        replications: independent seeds per (fault, budget) pair.
        seed: base seed.
        workers: worker processes (default: in-process serial execution).
        journal: optional JSONL run-log path for resumable sweeps.
    """
    from repro.harness.campaigns import run_sweep_retry_budget

    return run_sweep_retry_budget(
        study,
        technique_factory,
        budgets=budgets,
        race_window=race_window,
        replications=replications,
        seed=seed,
        workers=1 if workers is None else workers,
        journal_path=journal,
    )


def sweep_race_window(
    study: StudyData,
    technique_factory: Callable[[], RecoveryTechnique],
    *,
    windows: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 0.75, 0.95),
    replications: int = 5,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
    journal: str | None = None,
) -> list[SweepPoint]:
    """Sweep the racy-window width over the timing faults."""
    from repro.harness.campaigns import run_sweep_race_window

    return run_sweep_race_window(
        study,
        technique_factory,
        windows=windows,
        replications=replications,
        seed=seed,
        workers=1 if workers is None else workers,
        journal_path=journal,
    )
