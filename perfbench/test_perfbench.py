"""Tests of the benchmark itself, on tiny configurations of each workload.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer, metric_specs  # noqa: E402
from workloads import END_TO_END, Census, Queries, Sweep, load_pool, load_reference  # noqa: E402

TINY_SWEEP_BOUND = 5


def tiny_queries(seed: int = 1, corrupt: bool = False) -> Queries:
    pool = [dict(record) for record in load_pool()[:8]]
    if corrupt:
        digests = dict(pool[0]["sha256"])
        digests["describe"] = "0" * len(digests["describe"])
        pool[0]["sha256"] = digests
    return Queries(seed, pool=pool)


def tiny_census(corrupt: bool = False) -> Census:
    # The smallest count and listing pair of the reference list.
    calls = sorted(load_reference()["census"], key=lambda c: c["size"])[:2]
    calls = [dict(c) for c in calls]
    if corrupt:
        calls[1]["sha256"] = "0" * len(calls[1]["sha256"])
    return Census(1, calls=calls)


def measure(workload, rounds: int = 1):
    outcome = run.run_rounds(workload, rounds=rounds)
    return outcome, workload.metrics(outcome["results"], workload.setup() or [0.0])


class EndToEndMetrics(unittest.TestCase):
    def check_contract(self, metrics) -> None:
        for name, unit in END_TO_END:
            value, got_unit, samples = metrics[name]
            self.assertEqual(got_unit, unit, name)
            self.assertGreater(value, 0, name)
            self.assertGreaterEqual(samples, 1, name)

    def test_sweep(self) -> None:
        outcome, metrics = measure(Sweep(1, bound=TINY_SWEEP_BOUND))
        self.assertEqual(outcome["problems"], [])
        self.check_contract(metrics)

    def test_queries(self) -> None:
        queries = tiny_queries()
        outcome, metrics = measure(queries)
        self.assertEqual(outcome["problems"], [])
        # one datum per stratum through each command, and examples once
        self.assertEqual(len(outcome["results"]), 4 * len(queries.sample) + 1)
        self.check_contract(metrics)

    def test_census(self) -> None:
        outcome, metrics = measure(tiny_census())
        self.assertEqual(outcome["problems"], [])
        self.check_contract(metrics)

    def test_same_seed_same_inputs(self) -> None:
        first = [op.args for op in tiny_queries(7).round(0)]
        self.assertEqual(first, [op.args for op in tiny_queries(7).round(0)])
        self.assertNotEqual(first, [op.args for op in tiny_queries(8).round(0)])


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_query_digest_fails(self) -> None:
        outcome = run.run_rounds(tiny_queries(corrupt=True), rounds=1)
        self.assertEqual(len(outcome["problems"]), 1)
        self.assertIn("describe", outcome["problems"][0])

    def test_corrupted_census_digest_fails(self) -> None:
        outcome = run.run_rounds(tiny_census(corrupt=True), rounds=1)
        self.assertEqual(len(outcome["problems"]), 1)

    def test_wrong_sweep_count_fails(self) -> None:
        sweep = Sweep(1, bound=TINY_SWEEP_BOUND)
        sweep.op.expect["signatures"] += 1
        outcome = run.run_rounds(sweep, rounds=1)
        self.assertEqual(len(outcome["problems"]), 1)

    def test_count_must_match_listing(self) -> None:
        census = tiny_census()
        outcome = run.run_rounds(census, rounds=1)
        listing = next(r for r in outcome["results"] if r.listed is not None)
        listing.listed += 1
        self.assertEqual(len(census.finish_round(outcome["results"])), 1)


class Tracing(unittest.TestCase):
    def test_traced_sweep_reports_every_layer_metric(self) -> None:
        import cuspred.packets

        original = cuspred.packets.companions
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cuspred.packets.companions, original)
            outcome = run.run_rounds(Sweep(1, bound=TINY_SWEEP_BOUND), rounds=1,
                                     tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertIs(cuspred.packets.companions, original)
        self.assertEqual(outcome["problems"], [])
        layer = tracer.layer_metrics()
        names = [name for name, _ in metric_specs()]
        self.assertEqual(sorted(layer), sorted(set(names) - {"trace.overhead_s"}))
        reference = load_reference()["sweep"][str(TINY_SWEEP_BOUND)]
        self.assertEqual(layer["cuspdata.enumerate_signatures.signatures"],
                         reference["signatures"])
        self.assertEqual(layer["cli.main.selfcheck.calls"], 1)
        self.assertGreater(layer["packets.companions.subsets_tried"], 0)
        for check in ("identity", "recovery", "epsilon", "census-law"):
            self.assertGreater(layer[f"selfcheck.check.{check}.total_s"], 0)
        for name in ("selfcheck.run_selfcheck", "packets.companions", "hecke.ired"):
            self.assertGreater(layer[f"{name}.total_s"], layer[f"{name}.self_s"])

    def test_traced_census_child_returns_spans(self) -> None:
        tracer = Tracer()
        outcome = run.run_rounds(tiny_census(), rounds=1, tracer=tracer)
        self.assertEqual(outcome["problems"], [])
        layer = tracer.layer_metrics()
        self.assertEqual(layer["cli.main.enumerate.calls"], 2)
        self.assertEqual(layer["cuspdata.enumerate_data.data"],
                         sum(r.count for r in outcome["results"]))


class CommandLine(unittest.TestCase):
    def run_main(self, *args: str) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(list(args)), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_result_line(self) -> None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = self.run_main("--workload", "sweep", "--seed", "3",
                                   "--seconds", "0.1", "--trace", trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in bench[key]})

    def test_benchmark_json_lists_the_emitted_metrics(self) -> None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         metric_specs())

    def test_fails_without_sources(self) -> None:
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
