"""Workloads, jobs and output checks of the benchmark.

A job runs each preset of its workload through ``experiments.run_preset``,
in order, at the job seed and, for workloads of short presets, at the next
few seeds too. The job's time is the summed wall time of those calls;
nothing else (checks, hashing) is timed. Job seeds are drawn from the
workload seed, so the same workload seed gives the same job list.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterator

import numpy as np

import speed
from pfops import experiments, pareto
from pfops.problems import lookup_problem

# nsga2-kursawe keeps the preset's pop 200, so each sort still ranks 400
# points, but runs 20 generations instead of 500 (0.4 s instead of 9 s), so
# that one run holds enough jobs for a median and a tail
SHORT_NSGA2_KURSAWE = "nsga2-kursawe-g20"
SHORT_NSGA2_GENERATIONS = 20

# name -> (presets, seeds per job). Why each workload (see bench/README.md):
# - pfops-kursawe: big batches (N=500, moves on, d=3), evaluation-bound PFOPS.
# - nsga2-kursawe: NSGA-II dominated by its non-dominated sort of 400 points.
# - convex-short: the three cheapest convex presets; tiny batches and 40-point
#   sorts, so per-call cost dominates in every layer. One seed takes about
#   25 ms, so a job runs 16 seeds. On a shared machine whose speed switches
#   every fraction of a second, 25 ms job times are bimodal and their median
#   flips between the modes from run to run; jobs of about 0.4 s, like those
#   of the other two workloads, average over the switches.
WORKLOADS = {
    "pfops-kursawe": (("pfops-kursawe",), 1),
    "nsga2-kursawe": ((SHORT_NSGA2_KURSAWE,), 1),
    "convex-short": (("pfops-convex-sufficient", "pfops-convex-under", "nsga2-convex-under"), 16),
}


def register_short_presets() -> None:
    """Add the shortened NSGA-II Kursawe preset to the preset table."""
    base = experiments.PRESETS["nsga2-kursawe"]
    experiments.PRESETS[SHORT_NSGA2_KURSAWE] = replace(
        base,
        name=SHORT_NSGA2_KURSAWE,
        config=replace(base.config, generations=SHORT_NSGA2_GENERATIONS),
    )


def expected_evals(preset: experiments.ExperimentPreset, dim: int) -> int:
    """The documented evaluation budget of one run of ``preset``."""
    cfg = preset.config
    if preset.algorithm == "pfops":
        steps = 2 * cfg.n_targets * cfg.n_particles
        return steps * (1 + dim) if cfg.metropolis_enabled else steps
    return 2 * cfg.pop_size * (cfg.generations + 1)


@dataclass
class Workload:
    """A workload's presets with the problems and budgets its checks use.

    The problems are built before any tracing, so their raw objectives are
    the program's own and the checks add nothing to a traced layer.
    """

    name: str
    presets: list
    seeds_per_job: int
    problems: dict
    expected: dict


def setup(name: str) -> Workload:
    """Build the workload's problems and load their reference fronts."""
    register_short_presets()
    preset_names, seeds_per_job = WORKLOADS[name]
    presets = [experiments.get_preset(p) for p in preset_names]
    problems = {p.problem: lookup_problem(p.problem) for p in presets}
    for problem in problems:
        pareto.reference_front(problem, experiments.REFERENCE_RESOLUTION[problem])
    expected = {p.name: expected_evals(p, problems[p.problem].dim) for p in presets}
    return Workload(name, presets, seeds_per_job, problems, expected)


def job_seeds(seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def _has_dominated_member(front: np.ndarray) -> bool:
    # brute force on purpose: independent of the program's own dominance code
    le = np.all(front[:, None, :] <= front[None, :, :], axis=2)
    lt = np.any(front[:, None, :] < front[None, :, :], axis=2)
    return bool(np.any(le & lt))


def check_report(preset, report, problem, expected: int) -> list[str]:
    """Every way ``report`` breaks the output contract, as messages."""
    errors = []
    if report.eval_count != expected:
        errors.append(f"{report.eval_count} evaluations, expected {expected}")
    dec, front = report.archive.decisions, report.archive.front
    n = len(front)
    if n == 0 or dec.shape != (n, problem.dim) or front.shape != (n, 2):
        return errors + [f"archive shapes {dec.shape} and {front.shape}"]
    if not (np.isfinite(dec).all() and np.isfinite(front).all()):
        return errors + ["archive holds non-finite values"]
    if not (np.all(dec >= problem.lower) and np.all(dec <= problem.upper)):
        errors.append("archive decision outside the box")
    recomputed = np.stack([problem.f1(dec), problem.f2(dec)], axis=1)
    if not np.allclose(recomputed, front, rtol=1e-12, atol=1e-12):
        errors.append("archive front differs from the objectives of its decisions")
    filtered = preset.algorithm == "nsga2" or preset.config.final_filter_enabled
    if filtered and _has_dominated_member(front):
        errors.append("archive front holds a dominated member")
    if not (np.isfinite(report.igd) and report.igd >= 0):
        errors.append(f"igd {report.igd}")
    if not (np.isfinite(report.hypervolume) and report.hypervolume >= 0):
        errors.append(f"hypervolume {report.hypervolume}")
    return errors


def archive_digest(archives) -> str:
    """sha256 of the decisions and front bytes of each archive, in order."""
    h = hashlib.sha256()
    for archive in archives:
        h.update(np.ascontiguousarray(archive.decisions, dtype=float).tobytes())
        h.update(np.ascontiguousarray(archive.front, dtype=float).tobytes())
    return h.hexdigest()


@dataclass
class Job:
    seed: int
    seconds: float = 0.0
    evals: int = 0
    igd: list = field(default_factory=list)
    hv: list = field(default_factory=list)
    digest: str = ""
    errors: list = field(default_factory=list)
    reference_s: float = 0.0  # the speed kernel's time around the job (speed.py)

    def line(self, index: int) -> str:
        status = "ok" if not self.errors else "FAILED " + "; ".join(self.errors)
        return (
            f"job {index} seed={self.seed} time_s={self.seconds:.6f} evals={self.evals} "
            f"sha256={self.digest} {status}"
        )


def run_job(workload: Workload, seed: int, evals_skew: int = 0) -> Job:
    """Run one job and check each output; ``evals_skew`` is added to every
    expected evaluation count (nonzero only to test the checks)."""
    job = Job(seed)
    archives = []
    runs = [(preset, seed + i) for i in range(workload.seeds_per_job) for preset in workload.presets]
    for preset, run_seed in runs:
        start = perf_counter()
        try:
            # looked up at call time, so that a traced pass reaches the wrapper
            report = experiments.run_preset(preset.name, run_seed)
        except Exception as exc:  # a job that raises fails; the run goes on
            job.errors.append(f"{preset.name} seed {run_seed}: {type(exc).__name__}: {exc}")
            continue
        job.seconds += perf_counter() - start
        job.evals += report.eval_count
        job.igd.append(report.igd)
        job.hv.append(report.hypervolume)
        archives.append(report.archive)
        expected = workload.expected[preset.name] + evals_skew
        problem = workload.problems[preset.problem]
        errors = check_report(preset, report, problem, expected)
        job.errors += [f"{preset.name} seed {run_seed}: {e}" for e in errors]
    job.digest = archive_digest(archives)
    return job


def run_for(workload: Workload, seeds: Iterator[int], seconds: float, evals_skew: int = 0):
    """Run jobs until ``seconds`` have passed; at least one.

    The speed kernel runs before the first job and after each one, and a job's
    ``reference_s`` is the mean of the passes just before and just after it,
    so that its time can be scaled to the machine's speed at that moment.
    """
    deadline = perf_counter() + seconds
    jobs = []
    before = speed.reference_s()
    while not jobs or perf_counter() < deadline:
        job = run_job(workload, next(seeds), evals_skew)
        after = speed.reference_s()
        job.reference_s = (before + after) / 2
        before = after
        jobs.append(job)
    return jobs


def run_paired(workload: Workload, seeds: Iterator[int], seconds: float, tracer,
               evals_skew: int = 0) -> tuple[list, list]:
    """Run each job untraced and then traced, until ``seconds`` have passed.

    Running the pair back to back puts both halves in the same state of a
    shared machine. Each traced job must give bit-identical archives and the
    same evaluation count as its untraced twin, and the problems' counters
    must agree with the reported count; otherwise the traced job fails.
    """
    deadline = perf_counter() + seconds
    untraced, traced = [], []
    while not untraced or perf_counter() < deadline:
        before = run_job(workload, next(seeds), evals_skew)
        with tracer.installed():
            job = run_job(workload, before.seed, evals_skew)
        counted = tracer.end_job()
        if job.digest != before.digest or job.evals != before.evals:
            job.errors.append(
                f"traced run differs: sha256 {job.digest} evals {job.evals}, "
                f"untraced sha256 {before.digest} evals {before.evals}"
            )
        if counted != job.evals:
            job.errors.append(f"problem counters took {counted} evaluations, reports say {job.evals}")
        untraced.append(before)
        traced.append(job)
    return untraced, traced
