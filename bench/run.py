"""Benchmark of pfops: preset workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload pfops-kursawe --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced

Each workload runs in its own fresh, single-threaded process (bench/worker.py)
that builds pfops from this checkout's ``src`` and checks every output. With
``--trace 0`` the end-to-end metrics are printed, with ``--trace 1`` the
per-layer ones and the layer table; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only if every job passed its checks. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pfops-kursawe", "nsga2-kursawe", "convex-short")
# set-up is sampled in this many extra fresh processes besides the workload's
SETUP_PROBES = 4
TAIL_PERCENTILES = (99, 95, 90, 75)
READY_TIMEOUT_S = 60
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker; return it, its set-up time and its READY record."""
    env = dict(os.environ, **BLAS_THREADS)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if not line.startswith("READY "):
            raise BenchError(f"worker {argv} did not get ready (exit {proc.poll()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s, json.loads(line[len("READY "):])


def finish_worker(proc: subprocess.Popen, timeout: float) -> list[str]:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out.splitlines()


def tail(times: list[float]) -> tuple[int, float]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond its
    nearest-rank value, and that value; the median if none has."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(math.ceil(p / 100 * n), 1)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, str]:
    times = res["times"]
    if not times:
        return {name: 0.0 for name in END_TO_END}, "no job passed"
    pct, tail_s = tail(times)
    values = {
        "run_s_p50": statistics.median(times),
        "run_s_tail": tail_s,
        "evals_per_s": sum(res["evals"]) / sum(times),
        "igd_mean": statistics.fmean(res["igd"]),
        "hv_mean": statistics.fmean(res["hv"]),
        "eval_count": sum(res["evals"]) / len(res["evals"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return values, f"run_s_tail is p{pct} of {len(times)} passed jobs"


def print_metrics(values: dict, table: dict) -> None:
    for name, value in values.items():
        unit, better = table[name]
        print(f"  {name:<38} {value:>16.6g} {unit:<6} ({better} is better)")


def print_layer_table(rows: list) -> None:
    print(f"  {'layer (span)':<32} {'self s/job':>12} {'share':>8} {'calls/job':>11}")
    for name, self_s, share, calls in rows:
        print(f"  {name:<32} {self_s:>12.6f} {share:>7.1%} {calls:>11.1f}")
    total = sum(r[1] for r in rows)
    print(f"  {'coverage sum':<32} {total:>12.6f} {sum(r[2] for r in rows):>7.1%}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, skew: int) -> dict:
    """Run one workload in fresh processes, print its report, return the result."""
    base = ["--workload", workload, "--seed", str(seed)]
    setup, raw_setup, ready = [], [], []

    def add_setup(setup_s: float, info: dict, lines: list[str]) -> None:
        if not lines or not lines[0].startswith("SPEED "):
            raise BenchError("worker did not measure the machine's speed")
        scale = json.loads(lines[0][len("SPEED "):])["scale"]
        setup.append(setup_s * scale)
        raw_setup.append(setup_s)
        ready.append(info)

    for _ in range(SETUP_PROBES):
        proc, setup_s, info = start_worker(base + ["--setup-only"])
        add_setup(setup_s, info, finish_worker(proc, READY_TIMEOUT_S))
    argv = base + ["--seconds", str(seconds), "--trace", str(trace)]
    argv += ["--expect-evals-skew", str(skew)]
    proc, setup_s, info = start_worker(argv)
    lines = finish_worker(proc, timeout=2 * seconds + 60)
    add_setup(setup_s, info, lines)
    lines = lines[1:]
    if not lines or not lines[-1].startswith("RESULT "):
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1][len("RESULT "):])

    env = {k: v for k, v in info.items() if not k.endswith("_s")}
    print(
        f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        + " ".join(f"{k}={v}" for k, v in env.items())
        + " loadavg=" + ",".join(f"{x:.2f}" for x in os.getloadavg())
    )
    print("\n".join(lines[:-1]))
    attempted, failed = res["attempted"], res["failed"]
    print(
        f"{workload} seed={seed} seconds={seconds} trace={trace}: {attempted} jobs, "
        f"{failed} failed (failed_frac {failed / attempted:.4f})"
    )
    print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    print("  raw set-up times: " + " ".join(f"{s:.4f}" for s in raw_setup))
    if trace == 0:
        values, note = end_to_end(res, setup)
        print_metrics(values, END_TO_END)
        print(f"  {note}")
        if res["raw_times"]:
            print(
                f"  raw median job time {statistics.median(res['raw_times']):.6f} s, "
                f"speed kernel median {statistics.median(res['reference_s']):.6f} s"
            )
        units = END_TO_END
    else:
        values = dict(res["layer_metrics"])
        values["setup.import_s"] = statistics.median(r["import_s"] for r in ready)
        values["setup.reference_front_s"] = statistics.median(r["reference_front_s"] for r in ready)
        print_layer_table(res["layer_table"])
        print_metrics(values, PER_LAYER)
        if res["missing_spans"]:
            print("  WARNING: not found, so not traced: " + ", ".join(res["missing_spans"]))
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }


def default_seconds() -> float | None:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (job seeds derive from it)")
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="measured time of one run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0 then 1")
    parser.add_argument("--expect-evals-skew", type=int, default=0,
                        help="add this to every expected evaluation count (to test the checks)")
    args = parser.parse_args()
    if args.seconds is None or args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pfops" / "__init__.py").is_file():
        print(f"error: no pfops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs = [
        (w, t)
        for w in ([args.workload] if args.workload else WORKLOADS)
        for t in ([args.trace] if args.trace is not None else (0, 1))
    ]
    results = {}
    try:
        for workload, trace in runs:
            results[f"{workload} trace={trace}"] = run_workload(
                workload, args.seed, args.seconds, trace, args.expect_evals_skew
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps(result))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
