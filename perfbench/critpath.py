"""Why a traced study run took as long as it did, from its spans alone.

Input is the span records ``repro study run --trace`` writes (dicts with
``name``, ``start``, ``end``, ``span_id``, ``parent_id``, ``pid``) and
the node dependency map from the study registry.  Nothing here imports
the program, so the analysis is testable on hand-built traces.

* **critical path**: the longest dependency chain, weighting each node
  by the wall time of its ``node:<name>`` span;
* **ideal makespan** at N workers: ``max(critical path, total node wall / N)``,
  the lower bound no scheduler can beat;
* **parallel efficiency**: ideal makespan / achieved makespan (the
  ``study.run`` span), 1.0 when the scheduler met the bound;
* **worker idle**: per worker slot, the time inside each pool campaign
  (one per wave with cache misses) that the slot spent running no unit.
  Campaigns fork fresh workers, so slots are the distinct worker pids of
  one campaign, padded to N with fully idle slots.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

NODE_PREFIX = "node:"
UNIT_PREFIX = "unit:"


@dataclasses.dataclass(frozen=True)
class RunAnalysis:
    workers: int
    node_walls: dict[str, float]
    critical_path: list[str]
    critical_path_s: float
    total_node_s: float
    ideal_makespan_s: float
    achieved_makespan_s: float
    waves: int
    worker_idle_s: list[float]

    @property
    def parallel_efficiency(self) -> float:
        if self.achieved_makespan_s <= 0:
            return 0.0
        return self.ideal_makespan_s / self.achieved_makespan_s


def _duration(record: Mapping) -> float:
    return max(0.0, float(record["end"]) - float(record["start"]))


def node_walls(records: Iterable[Mapping]) -> dict[str, float]:
    """Wall seconds per node, summed if a node span repeats."""
    walls: dict[str, float] = {}
    for record in records:
        name = record.get("name", "")
        if name.startswith(NODE_PREFIX):
            node = name[len(NODE_PREFIX):]
            walls[node] = walls.get(node, 0.0) + _duration(record)
    return walls


def critical_path(
    walls: Mapping[str, float], deps: Mapping[str, Sequence[str]]
) -> tuple[float, list[str]]:
    """Longest wall-weighted chain through the DAG; nodes absent from
    ``walls`` (e.g. memo hits) weigh zero."""
    finish: dict[str, float] = {}
    via: dict[str, str | None] = {}

    def visit(node: str, stack: tuple[str, ...] = ()) -> float:
        if node in finish:
            return finish[node]
        if node in stack:
            raise ValueError(f"dependency cycle through {node!r}")
        best, best_dep = 0.0, None
        for dep in deps.get(node, ()):
            value = visit(dep, stack + (node,))
            if value > best or best_dep is None:
                best, best_dep = value, dep
        finish[node] = best + walls.get(node, 0.0)
        via[node] = best_dep
        return finish[node]

    for node in set(deps) | set(walls):
        visit(node)
    if not finish:
        return 0.0, []
    end = max(sorted(finish), key=finish.__getitem__)
    path = [end]
    while via.get(path[-1]) is not None:
        path.append(via[path[-1]])
    return finish[end], path[::-1]


def worker_idle(records: Sequence[Mapping], workers: int) -> list[float]:
    """Idle seconds per worker slot, summed over every pool campaign."""
    campaigns = {r["span_id"]: r for r in records if r.get("name") == "campaign"}
    busy: dict[str, dict[int, float]] = {span_id: {} for span_id in campaigns}
    for record in records:
        parent = record.get("parent_id")
        if parent in busy and record.get("name", "").startswith(UNIT_PREFIX):
            per_pid = busy[parent]
            per_pid[record["pid"]] = per_pid.get(record["pid"], 0.0) + _duration(record)
    idle = [0.0] * workers
    for span_id, campaign in campaigns.items():
        wall = _duration(campaign)
        slots = sorted(busy[span_id].values(), reverse=True)
        slots += [0.0] * (workers - len(slots))
        for slot, used in enumerate(slots[:workers]):
            idle[slot] += max(0.0, wall - used)
    return idle


def analyse(
    records: Sequence[Mapping], deps: Mapping[str, Sequence[str]], workers: int
) -> RunAnalysis:
    walls = node_walls(records)
    path_s, path = critical_path(walls, deps)
    total = sum(walls.values())
    roots = [r for r in records if r.get("name") == "study.run"]
    if roots:
        achieved = _duration(roots[0])
    elif records:
        achieved = max(float(r["end"]) for r in records) - min(float(r["start"]) for r in records)
    else:
        achieved = 0.0
    return RunAnalysis(
        workers=workers,
        node_walls=walls,
        critical_path=path,
        critical_path_s=path_s,
        total_node_s=total,
        ideal_makespan_s=max(path_s, total / workers),
        achieved_makespan_s=achieved,
        waves=sum(1 for r in records if r.get("name") == "wave"),
        worker_idle_s=worker_idle(records, workers),
    )
