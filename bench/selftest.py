"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs each workload at a tiny size through the benchmark command and checks
that every metric BENCHMARK.json names is printed with its unit, that the
output checks fail a run whose expected evaluation count is wrong, that a
traced job gives the same archives and counts as its untraced twin, and that
the command refuses to run without the pfops sources. About a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TINY_SECONDS = "0.5"


def bench(*args: str, root: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


class BenchmarkSelfTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}, END_TO_END
        )
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, PER_LAYER)

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, result, out = bench(
                        "--workload", workload, "--seed", "3",
                        "--seconds", TINY_SECONDS, "--trace", str(trace),
                    )
                    self.assertEqual(code, 0, out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {name: unit for name, (unit, _) in table.items()})
                    printed = out.rsplit("\n{", 1)[0]
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        self.assertIn(f"  {name} ", printed)

    def test_wrong_expected_eval_count_fails_every_job(self):
        code, result, out = bench(
            "--workload", "convex-short", "--seconds", TINY_SECONDS, "--trace", "0",
            "--expect-evals-skew", "1",
        )
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("20000 evaluations, expected 20001", out)

    def test_traced_job_equals_untraced_job(self):
        from worker import import_pfops

        import_pfops()
        import workloads
        from layers import Tracer

        from pfops import experiments

        self.assertEqual(list(workloads.WORKLOADS), list(WORKLOADS))
        original = experiments.run_preset
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = workloads.setup(name)
                tracer = Tracer()
                untraced, traced = workloads.run_paired(workload, workloads.job_seeds(5), 0.0, tracer)
                self.assertEqual(traced[0].errors, [])
                self.assertEqual(traced[0].digest, untraced[0].digest)
                self.assertEqual(traced[0].evals, untraced[0].evals)
                self.assertEqual(tracer.counts["evals"], untraced[0].evals)
                self.assertEqual(
                    tracer.calls["experiments.run_preset"],
                    len(workload.presets) * workload.seeds_per_job,
                )
                self.assertIs(experiments.run_preset, original)

    def test_speed_kernel_is_fixed_work(self):
        import speed

        self.assertEqual(speed.kernel(), speed.kernel())
        self.assertEqual(speed.normalised(0.25, speed.REFERENCE_S), 0.25)
        self.assertAlmostEqual(speed.normalised(0.25, 2 * speed.REFERENCE_S), 0.125)

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            code, result, out = bench("--workload", "convex-short", "--seed", "0",
                                      "--seconds", "1", "--trace", "0", root=root)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result, out)


if __name__ == "__main__":
    unittest.main()
