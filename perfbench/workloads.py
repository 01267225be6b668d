"""The three workloads: sweep, queries and census.

Each workload is a closed loop with one client: an operation is sent
only after the previous one has returned.  Operations come in rounds,
and a round is a fixed list of operations derived from the seed and the
round number, so a traced replay can repeat exactly the work of an
untraced run.

- sweep: `cuspred selfcheck` run in-process, all four checks, residue
  sizes 3 and 5, class degree <= 4, dual dimension <= SWEEP_BOUND.  One
  round is one sweep.  The bound keeps a sweep near one second, so a run
  holds enough sweeps for a median with ten samples beyond it.
- queries: single-datum commands (validate, describe, packet, crossform)
  run in-process on a seeded sample of stored data, plus one `examples`
  call per run.  One round sends every sampled datum through every
  command, in a seeded order and a seeded JSON spelling.
- census: `cuspred enumerate` on a fixed list of groups, each call in a
  fresh process started from perfbench/child.py, so every call pays the
  cold import and the cold ffpoly caches as a command line user does.
  One round runs every call once, in a seeded order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DATA = HERE / "data"

SWEEP_BOUND = 6
SWEEP_Q0 = (3, 5)
SWEEP_DEGREE = 4
SWEEP_CHECKS = ("identity", "recovery", "epsilon", "census-law")
QUERY_COMMANDS = ("validate", "describe", "packet", "crossform")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170

# The speed of a shared host drifts by up to half within a minute (seen on a
# two-vCPU Intel Xeon virtual machine), and the drift moves every wall time
# alike.  So each timing is scaled by
# NOMINAL_CALIBRATION_S over the time of a fixed pure-Python loop run just
# before and just after it: it reads as on a machine where that loop takes
# NOMINAL_CALIBRATION_S.  Operations are calibrated in blocks of at least
# BLOCK_S seconds.  Unscaled figures are reported next to the scaled ones.
NOMINAL_CALIBRATION_S = 0.05
BLOCK_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms.p50", "ms"),
)


@dataclass
class Op:
    kind: str  # subcommand, used to group latencies
    args: list  # argv for cuspred.cli.main
    expect: dict  # reference values the output must match


@dataclass(slots=True)
class OpResult:
    kind: str
    expect: dict  # the operation's own reference values; its args are not kept
    seconds: float
    ok: bool
    work: int = 0  # signatures, queries or concrete data done
    import_s: float | None = None
    maxrss_kb: int | None = None
    count: int | None = None
    listed: int | None = None
    detail: str = ""
    scale: float = 1.0  # calibration factor of the block the operation ran in

    @property
    def norm_s(self) -> float:
        return self.seconds * self.scale


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python computation independent of cuspred."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(60000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + 1
        acc += len(str(k)) + sum((k, i & 7, 3))
        if i % 5 == 0:
            acc ^= hash((k, i))
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - started


def calibration_scale(before: float, after: float) -> float:
    return NOMINAL_CALIBRATION_S / ((before + after) / 2)


def load_reference() -> dict:
    with open(DATA / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_pool() -> list[dict]:
    with open(DATA / "queries.json", encoding="utf-8") as handle:
        return json.load(handle)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def spell(obj, rng: random.Random) -> str:
    """JSON text for obj with shuffled keys and seeded separators."""
    def shuffle(value):
        if isinstance(value, dict):
            items = list(value.items())
            rng.shuffle(items)
            return {key: shuffle(item) for key, item in items}
        if isinstance(value, list):
            return [shuffle(item) for item in value]
        return value

    separators = rng.choice(((",", ":"), (", ", ": ")))
    return json.dumps(shuffle(obj), separators=separators)


def run_cli(argv: list) -> tuple[int | None, str, float, str]:
    """Call cuspred.cli.main in-process; returns (rc, stdout, seconds, error)."""
    from cuspred import cli

    out = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out):
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as err:  # a failed operation, not a crash
            rc, error = None, f"{type(err).__name__}: {err}"
        seconds = time.perf_counter() - started
    return rc, out.getvalue(), seconds, error


def run_child(argv: list) -> tuple[dict | None, float, str]:
    """Run perfbench/child.py in a fresh process; returns (report, wall, error)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, "timed out"
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(proc.stdout.splitlines()[-1]), wall, ""


def percentile(values: list[float], p: int) -> float | None:
    """The p-th percentile, or None unless ten samples lie beyond it."""
    if len(values) * (100 - p) / 100 < 10:
        return None
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[p - 1]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_samples(warm: list[str]) -> list[float]:
    """Cold-start times of fresh processes, import plus the given warm-up."""
    samples = []
    before = calibration_loop()
    for _ in range(SETUP_SAMPLES):
        report, _, error = run_child(["setup", *warm])
        if report is None:
            raise RuntimeError(f"setup probe failed: {error}")
        after = calibration_loop()
        samples.append(report["setup_s"] * calibration_scale(before, after))
        before = after
    return samples


class Metrics(dict):
    """name -> (value, unit, samples); a value is None for a percentile
    with fewer than ten samples beyond it."""

    def put(self, name: str, value, unit: str, samples: int) -> None:
        self[name] = (value, unit, samples)


class Workload:
    """Rounds of operations, how to run one, and the metrics of a run."""

    in_process = True  # operations call cuspred in the benchmark's process
    traced_rounds = 1  # rounds replayed by a traced run

    def setup(self) -> list[float]:
        """Set-up time samples, each of a fresh process."""
        return setup_samples([])

    def warm_up(self) -> None:
        """Work done in-process before the first timed operation."""

    def finish_round(self, results: list[OpResult]) -> list[str]:
        """Problems found across the operations of a round."""
        return []


# ---------------------------------------------------------------- sweep

class Sweep(Workload):
    traced_rounds = 2

    def __init__(self, seed: int, bound: int = SWEEP_BOUND) -> None:
        ref = load_reference()["sweep"][str(bound)]
        rng = random.Random(seed)
        q0 = list(SWEEP_Q0)
        checks = list(SWEEP_CHECKS)
        rng.shuffle(q0)
        rng.shuffle(checks)
        args = ["selfcheck", "--format", "json", "--dualdim", str(bound),
                "--degree", str(SWEEP_DEGREE), "--checks", ",".join(checks)]
        for q in q0:
            args += ["--q", str(q)]
        self.op = Op("selfcheck", args, dict(ref, q0_values=q0, checks=checks))

    def round(self, index: int) -> list[Op]:
        return [self.op]

    def run(self, op: Op, tracer) -> OpResult:
        rc, text, seconds, error = run_cli(op.args)
        if rc != 0:
            return OpResult(op.kind, op.expect, seconds, False, detail=error or f"exit {rc}")
        out = json.loads(text)
        expect = op.expect
        ok = (out["ok"] and not any(out["failure_counts"].values())
              and all(out[key] == expect[key] for key in
                      ("groups", "signatures", "data_weight", "q0_values", "checks")))
        return OpResult(op.kind, op.expect, seconds, ok, work=out["signatures"],
                        detail="" if ok else "sweep report differs from the reference")

    def metrics(self, results: list[OpResult], setup: list[float]) -> Metrics:
        m = Metrics()
        seconds = [r.norm_s for r in results]
        m.put("setup_s", statistics.median(setup), "s", len(setup))
        m.put("peak_rss_mb", own_peak_rss_mb(), "MB", 1)
        m.put("work_per_s", sum(r.work for r in results) / sum(seconds), "1/s", len(results))
        m.put("op_ms.p50", 1000 * statistics.median(seconds), "ms", len(seconds))
        m.put("sweep.sigs_per_s", m["work_per_s"][0], "1/s", len(results))
        m.put("raw.sweep.sigs_per_s", sum(r.work for r in results)
              / sum(r.seconds for r in results), "1/s", len(results))
        return m


# ---------------------------------------------------------------- queries

class Queries(Workload):
    def __init__(self, seed: int, pool: list[dict] | None = None) -> None:
        pool = load_pool() if pool is None else pool
        self.examples_sha256 = load_reference()["examples_sha256"]
        self.seed = seed
        rng = random.Random(seed)
        strata: dict[int, list[dict]] = {}
        for record in pool:
            strata.setdefault(record["stratum"], []).append(record)
        self.sample = [rng.choice(strata[key]) for key in sorted(strata)]
        self.warm = json.dumps(pool[0]["datum"])

    def setup(self) -> list[float]:
        return setup_samples([self.warm])

    def warm_up(self) -> None:
        """One call of each command, as in setup()."""
        for command in QUERY_COMMANDS:
            run_cli([command, "--format", "json", self.warm])

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        pairs = [(command, record) for record in self.sample
                 for command in QUERY_COMMANDS]
        rng.shuffle(pairs)
        ops = [Op(command, [command, "--format", "json", spell(record["datum"], rng)],
                  {"sha256": record["sha256"][command]})
               for command, record in pairs]
        if index == 0:
            ops.insert(0, Op("examples", ["examples", "--format", "json"],
                             {"sha256": self.examples_sha256}))
        return ops

    def run(self, op: Op, tracer) -> OpResult:
        rc, text, seconds, error = run_cli(op.args)
        digest = sha(text)
        ok = rc == 0 and digest.startswith(op.expect["sha256"])
        if ok and op.kind == "examples":
            ok = json.loads(text)["all_match"] is True
        detail = "" if ok else (error or f"exit {rc}, output sha256 {digest[:20]}")
        return OpResult(op.kind, op.expect, seconds, ok, work=1, detail=detail)

    def metrics(self, results: list[OpResult], setup: list[float]) -> Metrics:
        m = Metrics()
        ms = [1000 * r.norm_s for r in results]
        m.put("setup_s", statistics.median(setup), "s", len(setup))
        m.put("peak_rss_mb", own_peak_rss_mb(), "MB", 1)
        m.put("work_per_s", 1000 * len(ms) / sum(ms), "1/s", len(ms))
        m.put("op_ms.p50", statistics.median(ms), "ms", len(ms))
        m.put("queries_per_s", m["work_per_s"][0], "1/s", len(ms))
        m.put("query_ms.p50", percentile(ms, 50), "ms", len(ms))
        m.put("query_ms.p95", percentile(ms, 95), "ms", len(ms))
        for kind in ("packet", "crossform"):
            kind_ms = [1000 * r.norm_s for r in results if r.kind == kind]
            m.put(f"query.{kind}_ms.p50", percentile(kind_ms, 50), "ms", len(kind_ms))
        m.put("raw.queries_per_s", len(ms) / sum(r.seconds for r in results), "1/s", len(ms))
        return m


# ---------------------------------------------------------------- census

class Census(Workload):
    in_process = False

    def __init__(self, seed: int, calls: list[dict] | None = None) -> None:
        self.calls = load_reference()["census"] if calls is None else calls
        self.seed = seed

    def setup(self) -> list[float]:
        return []  # every call is a cold start; its import time is a sample

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{index}")
        calls = list(self.calls)
        rng.shuffle(calls)
        ops = []
        for call in calls:
            args = ["enumerate", "--format", "json", "--degree", str(call["degree"])]
            if call["count"]:
                args.append("--count")
            ops.append(Op("enumerate", args + [spell(call["group"], rng)], call))
        return ops

    def run(self, op: Op, tracer) -> OpResult:
        report, wall, error = run_child(["cli", "1" if tracer else "0", *op.args])
        if report is None:
            return OpResult(op.kind, op.expect, wall, False, detail=error)
        if tracer is not None:
            tracer.merge(report["trace"])
        expect = op.expect
        ok = (report["rc"] == 0 and report["sha256"].startswith(expect["sha256"])
              and report.get("count") == expect["size"])
        return OpResult(op.kind, expect, wall, ok, work=report.get("count") or 0,
                        import_s=report["import_s"], maxrss_kb=report["maxrss_kb"],
                        count=report.get("count"), listed=report.get("listed"),
                        detail="" if ok else f"exit {report['rc']}, output differs")

    def finish_round(self, results: list[OpResult]) -> list[str]:
        """A --count total must equal the listing length for the same call."""
        listed = {}
        for r in results:
            if r.listed is not None:
                listed[(json.dumps(r.expect["group"], sort_keys=True),
                        r.expect["degree"])] = r.listed
        problems = []
        for r in results:
            key = (json.dumps(r.expect["group"], sort_keys=True), r.expect["degree"])
            if r.ok and r.expect["count"] and key in listed and r.count != listed[key]:
                problems.append(f"count {r.count} but listing of {listed[key]} for {key}")
        return problems

    def metrics(self, results: list[OpResult], setup: list[float]) -> Metrics:
        m = Metrics()
        walls = [r.norm_s for r in results]
        imports = [r.import_s * r.scale for r in results if r.import_s is not None]
        rss = [r.maxrss_kb for r in results if r.maxrss_kb is not None]
        m.put("setup_s", statistics.median(imports), "s", len(imports))
        m.put("peak_rss_mb", max(rss) / 1024, "MB", len(rss))
        m.put("work_per_s", sum(r.work for r in results) / sum(walls), "1/s", len(walls))
        m.put("op_ms.p50", 1000 * statistics.median(walls), "ms", len(walls))
        m.put("census.data_per_s", m["work_per_s"][0], "1/s", len(walls))
        m.put("census.invocation_s.p50", percentile(walls, 50), "s", len(walls))
        m.put("raw.census.data_per_s", sum(r.work for r in results)
              / sum(r.seconds for r in results), "1/s", len(walls))
        return m


WORKLOADS = {"sweep": Sweep, "queries": Queries, "census": Census}
