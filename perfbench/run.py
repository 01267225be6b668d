"""Benchmark of cuspred: one workload per run, driven from outside the package.

    python3 perfbench/run.py --workload {sweep,queries,census} --seed N \
        --seconds S --trace {0,1}

Every workload is measured in whole rounds for about S seconds (see
workloads.py), and every output is checked against references recorded
on the seed commit.  Times are scaled by a calibration loop run between
blocks of operations, which takes out most of the drift in the speed of
a shared host; the run and the processes it starts stay on one core.
The report lists each metric by name, unit and sample count, together
with unscaled figures and the machine, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the run measures S/2 seconds untraced, then replays its
first rounds (two sweeps, or one round of the other workloads) with the
layer functions traced (tracing.py).  It reports calls, total and self
time per function, the work counters, and the tracing overhead: traced
minus untraced time of the replayed operations.  The spans are written
to .perfbench_out/ in the checkout, as is a record of every run.

All three workloads in turn:

    for w in sweep queries census; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

Exit codes: 0 after a run, also one with failed operations; 2 when the
checkout holds no cuspred sources; 1 when the benchmark itself breaks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import BLOCK_S, calibration_loop, calibration_scale  # noqa: E402


def environment() -> dict:
    """Machine and code the run measured: nproc, CPU, Python, commit."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit_hash(),
    }


def commit_hash() -> str:
    """HEAD of the checkout's git directory, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rounds(workload, seconds: float | None = None, rounds: int | None = None,
               tracer=None) -> dict:
    """Run whole rounds: a given number, or while the next one fits in seconds.

    The calibration loop runs between blocks of operations, and every
    result gets the scale of its block (see workloads.py).
    """
    results, problems, walls, calibrations = [], [], [], [calibration_loop()]
    block: list = []

    def close_block() -> None:
        calibrations.append(calibration_loop())
        for result in block:
            result.scale = calibration_scale(calibrations[-2], calibrations[-1])
        block.clear()

    started = time.perf_counter()
    index, last = 0, 0.0
    while (index < rounds if rounds is not None
           else index == 0 or time.perf_counter() - started + last <= seconds):
        round_started = time.perf_counter()
        round_results = []
        for op in workload.round(index):
            if tracer is not None:
                tracer.op = len(results) + len(round_results)
            result = workload.run(op, tracer)
            if not result.ok:
                problems.append(f"{op.kind}: {result.detail}")
            round_results.append(result)
            block.append(result)
            if sum(r.seconds for r in block) >= BLOCK_S:
                close_block()
        if block:
            close_block()
        problems += workload.finish_round(round_results)
        results += round_results
        last = time.perf_counter() - round_started
        walls.append(last)
        index += 1
    return {"results": results, "problems": problems, "round_walls": walls,
            "calibrations": calibrations}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, metric_specs
    from workloads import END_TO_END, WORKLOADS

    workload = WORKLOADS[name](seed)
    if not trace:
        setup = workload.setup()
        workload.warm_up()
        run = run_rounds(workload, seconds)
        metrics = workload.metrics(run["results"], setup)
        metrics["calibration_s.median"] = (statistics.median(run["calibrations"]), "s",
                                           len(run["calibrations"]))
        contract = END_TO_END
    else:
        workload.warm_up()
        run = run_rounds(workload, seconds / 2)
        rounds = min(len(run["round_walls"]), workload.traced_rounds)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            traced = run_rounds(workload, rounds=rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        untraced = run["results"][:len(traced["results"])]
        layer["trace.overhead_s"] = (sum(r.norm_s for r in traced["results"])
                                     - sum(r.norm_s for r in untraced))
        units = dict(metric_specs())
        metrics = {key: (value, units[key], None) for key, value in layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.tsv")
        run = {"results": run["results"] + traced["results"],
               "problems": run["problems"] + traced["problems"]}
        contract = metric_specs()
    return {"metrics": metrics, "contract": contract,
            "attempted": len(run["results"]), "problems": run["problems"],
            "failed": len(run["problems"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "queries", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cuspred" / "__init__.py").is_file():
        print(f"error: no cuspred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Calibration corrects for the speed of the core it ran on, so the run
    # and every process it starts stay on one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed = outcome["attempted"], outcome["failed"]

    print(f"# perfbench {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"- machine: {env['nproc']} cpus, {env['cpu_model']}, Python {env['python']}, "
          f"commit {env['commit']}")
    print(f"- operations: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.6g}")
    for problem in outcome["problems"][:20]:
        print(f"- FAILED {problem}")
    for key, (value, unit, samples) in outcome["metrics"].items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g} {unit}"
        count = "" if samples is None else f"  (n={samples})"
        print(f"- {key}: {shown}{count}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": {key: {"value": value, "unit": unit, "samples": samples}
                    for key, (value, unit, samples) in outcome["metrics"].items()},
        "problems": outcome["problems"],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    metrics = {key: {"value": outcome["metrics"][key][0], "unit": unit}
               for key, unit in outcome["contract"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
