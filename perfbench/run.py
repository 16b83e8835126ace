"""Benchmark entry point: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload study --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout.  Every run measures the three
paths of the system in turn -- the cold and warm study graph, a serve
daemon under ``--seconds`` of closed-loop load, and the streamed mine of
a seeded MySQL archive -- and prints every end-to-end metric.  The
workload picks the request keys of the serve traffic (see README.md).  ``--trace 1``
makes the separate traced run that prints the per-layer metrics instead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the run context (seed, archive size, nproc,
Python version, ``src/`` line count).  A failed output check makes the
run exit 1 with ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, SRC, WORK_ROOT, WORKERS, ChildFailed, Checks, bench_script, last_json_line, median,
    metric, run_child,
)

#: Workload names; each picks the serve path's request kinds.
WORKLOADS = ("study", "serve")
#: MySQL archive size for the mine-stream path, about 2.3x the paper's 44k.
ARCHIVE_MESSAGES = 100_000
SETUP_REPEATS = 3
#: End-to-end metric names, in the order the result line lists them.
END_TO_END = (
    "study_cold_s", "study_cold_serial_s", "study_warm_s", "serve_rps", "serve_p50_ms",
    "serve_p99_ms", "mine_mb_per_s", "mine_peak_rss_mb", "setup_s",
)


def src_line_count() -> int:
    return sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))


def set_up(work: Path, seed: int, repeats: int) -> tuple[float, dict]:
    """Prepare the seeded inputs ``repeats`` times in fresh interpreters.

    Each repeat imports the program, builds the corpora and writes the
    seeded MySQL archive; set-up time is the median.  The last repeat's
    archive is the one measured.
    """
    walls = []
    for attempt in range(repeats):
        target = work / f"setup-{attempt}"
        wall, out = run_child(
            bench_script("mine_child.py", "setup", str(seed), str(target), str(ARCHIVE_MESSAGES)),
            work,
        )
        walls.append(wall)
        info = last_json_line(out)
        if attempt < repeats - 1:
            shutil.rmtree(target)
    info["archive"] = str(target / "archive.mbox")
    return median(walls), info


def mine_oracle(work: Path, archive: str) -> dict:
    return last_json_line(run_child(bench_script("mine_child.py", "oracle", archive), work)[1])


def mine_pass(work: Path, archive: str, checks: Checks, oracle: dict,
              layers: bool = False) -> dict | None:
    """One measured streamed mine into a fresh index, checked against the oracle.

    Returns None, after recording a failed check, when the mine fails.
    """
    index_dir = work / "index"
    with open(archive, "rb") as handle:  # start every pass from a hot page cache
        while handle.read(1 << 22):
            pass
    os.sync()
    args = ["pass", archive, str(index_dir)] + (["--layers"] if layers else [])
    try:
        result = last_json_line(run_child(bench_script("mine_child.py", *args), work)[1])
    except ChildFailed as exc:
        checks.expect(False, f"streamed mine failed: {exc}")
        return None
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)
    checks.expect(result["trace"] == oracle["trace"],
                  f"streamed narrowing {result['trace']} != oracle {oracle['trace']}")
    checks.expect(result["unique_bugs"] == 44, f"mined {result['unique_bugs']} bugs, not 44")
    return result


def end_to_end(args, work: Path, checks: Checks) -> tuple[dict, int, int, dict]:
    from serve_phase import ServeLoad
    from study_phase import StudyPasses

    setup_s, inputs = set_up(work, args.seed, SETUP_REPEATS)
    oracle = mine_oracle(work, inputs["archive"])

    # The box drifts between fast and slow spells lasting seconds, so each
    # path's samples are spread over the whole run: serve windows and warm
    # passes sit between the cold passes and the mine (see README.md).
    study = StudyPasses(work, checks)
    study.cold_pass(2)
    study.warm_pass()
    load = ServeLoad(work, study.memo, study.digests(), args.seed, args.workload)
    try:
        steps = (
            lambda: mine_pass(work, inputs["archive"], checks, oracle),
            lambda: study.cold_pass(1),
            lambda: study.cold_pass(2),
            lambda: study.cold_pass(1),
        )
        results = []
        for step in steps:
            load.window(args.seconds / len(steps))
            study.warm_pass()
            results.append(step())
        mine = results[0]
        study.warm_pass()
        serve = load.finish(checks)
    finally:
        load.close()
    paths = study.finish()

    values = {name: (value, "s") for name, value in paths["metrics"].items()}
    values.update({
        "serve_rps": (serve["serve_rps"], "1/s"),
        "serve_p50_ms": (serve["serve_p50_ms"], "ms"),
        "serve_p99_ms": (serve["serve_p99_ms"], "ms"),
        "setup_s": (setup_s, "s"),
    })
    if mine is not None:
        values["mine_mb_per_s"] = (inputs["bytes"] / 1e6 / mine["wall_s"], "MB/s")
        values["mine_peak_rss_mb"] = (mine["peak_rss_mb"], "MB")
    metrics = {name: metric(*values[name]) for name in END_TO_END if name in values}
    inputs["samples"] = paths["samples"]
    inputs["serve_client_cpu_share"] = serve["client_cpu_share"]
    # A failed mine reports no byte ranges; it counts as one failed operation.
    attempted = paths["attempted"] + serve["attempted"] + (mine["ranges"] if mine else 1)
    failed = paths["failed"] + serve["failed"] + (0 if mine else 1)
    return metrics, attempted, failed, inputs


def traced(args, work: Path, checks: Checks) -> tuple[dict, int, int, dict]:
    from critpath import analyse
    from repro import obs
    from repro.studygraph.registry import default_registry
    from serve_phase import ServeLoad
    from study_phase import NODE_COUNT, memo_digests, study_pass

    _, inputs = set_up(work, args.seed, 1)
    oracle = mine_oracle(work, inputs["archive"])

    # Untraced, traced, untraced: the traced pass is compared with the
    # mean of the two that bracket it, which cancels slow drift.
    trace_path = work / "w2.trace"
    passes = [
        study_pass(work, work / "memo-plain-a", WORKERS),
        study_pass(work, work / "memo-w2", WORKERS, "--trace", str(trace_path)),
        study_pass(work, work / "memo-plain-b", WORKERS),
    ]
    checks.expect(all(executed == NODE_COUNT for _, executed, _ in passes),
                  "a cold workers=2 pass did not execute every node")
    plain_s = (passes[0][0] + passes[2][0]) / 2
    traced_s = passes[1][0]
    registry = default_registry()
    deps = {name: list(registry.node(name).deps)
            for name in registry.topo_order([n.name for n in registry.experiments()])}
    run = analyse(obs.read_trace(trace_path), deps, WORKERS)

    serial = last_json_line(run_child(bench_script("layers_child.py", str(work / "layers")), work)[1])
    checks.expect(serial["executed"] == NODE_COUNT, "wrapped workers=1 pass missed nodes")

    imports = [run_child([sys.executable, "-c", "import repro.cli"], work)[0] for _ in range(3)]
    bare = [run_child([sys.executable, "-c", "pass"], work)[0] for _ in range(3)]

    load = ServeLoad(work, work / "memo-w2", memo_digests(work / "memo-w2")[0], args.seed,
                     args.workload)
    try:
        load.window(args.seconds)
        serve = load.finish(checks, layers=True)
    finally:
        load.close()
    mine = mine_pass(work, inputs["archive"], checks, oracle, layers=True) or {
        "layers": {}, "ranges": 0,
    }

    values = dict(serial["layers"])
    values.update({
        "cli.import_s": max(0.0, median(imports) - median(bare)),
        "harness.worker_idle_s": sum(run.worker_idle_s),
        "harness.parallel_efficiency": run.parallel_efficiency,
        "studygraph.critical_path_s": run.critical_path_s,
        "studygraph.ideal_makespan_s": run.ideal_makespan_s,
        "studygraph.waves": run.waves,
        "obs.trace_overhead_ratio": traced_s / plain_s,
    })
    values.update(serve["layers"])
    values.update(mine["layers"])
    print(json.dumps({"critical_path": run.critical_path,
                      "worker_idle_s": run.worker_idle_s,
                      "achieved_makespan_s": run.achieved_makespan_s}), file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = sorted({layer["name"] for layer in declared} - set(values))
    checks.expect(not missing, f"per-layer metrics not measured: {missing}")
    metrics = {
        layer["name"]: metric(values[layer["name"]], layer["unit"])
        for layer in declared if layer["name"] in values
    }
    # Node executions: three cold workers=2 passes, the wrapped cold pass and its warm rerun.
    attempted = (len(passes) + 2) * NODE_COUNT + serve["attempted"] + mine["ranges"]
    return metrics, attempted, serve["failed"], inputs


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    checks = Checks()
    metrics, attempted, failed, inputs = {}, 0, 0, {}
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, inputs = measure(args, work, checks)
    except Exception as exc:  # a run that cannot finish still reports its result
        checks.expect(False, f"run aborted: {type(exc).__name__}: {exc}")
        traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "archive_bytes": inputs.get("bytes"), "archive_messages": inputs.get("messages"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "src_lines": src_line_count(), "checks_passed": checks.passed,
        "check_failures": checks.failures,
        "serve_client_cpu_share": inputs.get("serve_client_cpu_share"),
        "samples": inputs.get("samples"),
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value['value']:14.6f} {value['unit']}", file=sys.stderr)
    print(json.dumps(context))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": max(1, attempted),
        "failed": failed + len(checks.failures),
        "metrics": metrics,
    }))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
