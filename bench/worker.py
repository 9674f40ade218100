"""One workload of the benchmark in a fresh process; started by bench/run.py.

Prints ``READY <json>`` once set-up is done (pfops imported, problems built,
reference fronts loaded), then ``SPEED <json>`` (the time of the speed
kernel of speed.py, measured then, and the factor it scales times by), then one line per job, then
``RESULT <json>``. With ``--setup-only`` it stops after the SPEED line.
Only the standard library is imported before set-up starts, so that set-up
is measured whole.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_pfops():
    """Import pfops from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pfops

    if Path(pfops.__file__).resolve().parent != SRC.resolve() / "pfops":
        raise ImportError(f"pfops was imported from {pfops.__file__}, not from {SRC}")
    return pfops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expect-evals-skew", type=int, default=0)
    args = parser.parse_args()

    start = perf_counter()
    import_pfops()
    import numpy
    import scipy

    import_s = perf_counter() - start
    import workloads

    start = perf_counter()
    workload = workloads.setup(args.workload)
    reference_front_s = perf_counter() - start
    ready = {
        "import_s": import_s,
        "reference_front_s": reference_front_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
    }
    print("READY " + json.dumps(ready), flush=True)
    import speed

    # the machine's speed right after set-up, to scale the set-up time with
    kernel_s = speed.settled_reference_s()
    print("SPEED " + json.dumps({"kernel_s": kernel_s, "scale": speed.normalised(1.0, kernel_s)}),
          flush=True)
    if args.setup_only:
        return 0

    seeds = workloads.job_seeds(args.seed)
    skew = args.expect_evals_skew
    if args.trace == 0:
        jobs = workloads.run_for(workload, seeds, args.seconds, skew)
        for i, job in enumerate(jobs):
            print(job.line(i))
        ok = [job for job in jobs if not job.errors]
        result = {
            "attempted": len(jobs),
            "failed": len(jobs) - len(ok),
            "times": [speed.normalised(job.seconds, job.reference_s) for job in ok],
            "raw_times": [job.seconds for job in ok],
            "reference_s": [job.reference_s for job in ok],
            "evals": [job.evals for job in ok],
            "igd": [v for job in ok for v in job.igd],
            "hv": [v for job in ok for v in job.hv],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from layers import Tracer

        tracer = Tracer()
        untraced, traced = workloads.run_paired(workload, seeds, args.seconds, tracer, skew)
        for i, (before, job) in enumerate(zip(untraced, traced)):
            job.errors = before.errors + job.errors
            print(job.line(i))
        traced_s = sum(job.seconds for job in traced)
        untraced_s = sum(job.seconds for job in untraced)
        layer_metrics = tracer.metrics(len(traced), traced_s)
        layer_metrics["trace_overhead_frac"] = traced_s / untraced_s - 1 if untraced_s else 0.0
        result = {
            "attempted": len(traced),
            "failed": sum(1 for job in traced if job.errors),
            "layer_metrics": layer_metrics,
            "layer_table": tracer.table(traced_s, len(traced)),
            "missing_spans": tracer.missing,
        }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
