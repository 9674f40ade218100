"""Layer split of a traced benchmark pass, timed from outside the program.

:class:`Tracer` replaces module attributes and methods of ``pfops`` with
wrappers that record, for each call, its duration minus the time spent in
wrapped calls beneath it (self time), and count the work those calls did.
The work ratios are read from the arguments and return values of the wrapped
calls; the tracer never draws from a random stream and never touches an
evaluation counter, so a traced run computes exactly what an untraced one
does. The wrappers are in place only inside :meth:`Tracer.installed`.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pfops import core, experiments, nsga2, pareto, problems, scalarize

# (owner, attribute, span name) of every wrapped callable. ``core.nondominated_mask``
# is the name core imported from pareto, so it is patched where it is looked up.
SPANS = (
    (experiments, "run_preset", "experiments.run_preset"),
    (core, "run", "core.run"),
    (core, "update_incumbent", "core.update_incumbent"),
    (core, "importance_weights", "core.importance_weights"),
    (core, "resample", "core.resample"),
    (core, "metropolis_sweep", "core.metropolis_sweep"),
    (core, "nondominated_mask", "pareto.nondominated_mask"),
    (nsga2, "evolve", "nsga2.evolve"),
    (nsga2, "fast_nondominated_sort", "nsga2.fast_nondominated_sort"),
    (nsga2, "crowding_distance", "nsga2.crowding_distance"),
    (pareto, "igd", "pareto.igd"),
    (pareto, "hypervolume_2d", "pareto.hypervolume_2d"),
    (pareto, "reference_front", "pareto.reference_front"),
    (scalarize.Scalarization, "log_density_values", "scalarize.log_density_values"),
    (problems.BiObjectiveProblem, "evaluate_batch", "problems.evaluate_batch"),
)


class Tracer:
    """Self time, calls and work counts of the wrapped pfops callables."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [name, seconds in wrapped children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._problems: list[problems.BiObjectiveProblem] = []
        self._resampled: list[np.ndarray] = []
        self._log_weights: list[np.ndarray] = []
        self._ess_mins: list[float] = []
        observers = {
            "core.metropolis_sweep": self._observe_sweep,
            "core.resample": self._observe_resample,
            "core.importance_weights": self._observe_weights,
            "nsga2.fast_nondominated_sort": self._observe_sort,
            "problems.evaluate_batch": self._observe_batch,
        }
        # (owner, attribute, original, wrapped)
        self._patches = []
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._patches.append((owner, attr, fn, self._wrap(name, fn, observers.get(name))))
        # a new registry, so that the problems built inside get traced objectives
        factories = problems.PROBLEM_FACTORIES
        traced_factories = {key: self._traced_factory(f) for key, f in factories.items()}
        self._patches.append((problems, "PROBLEM_FACTORIES", factories, traced_factories))

    @contextmanager
    def installed(self):
        """Put the wrappers in place for the duration of the block."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _traced_factory(self, factory):
        def build():
            problem = factory()
            problem.f1 = self._wrap("problems.f1", problem.f1)
            problem.f2 = self._wrap("problems.f2", problem.f2)
            self._problems.append(problem)
            return problem

        return build

    def _wrap(self, name, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
            self.self_s[name] += elapsed - frame[1]
            self.calls[name] += 1
            if observe is not None:
                observe(args, out)
            if stack:
                # the observer's time is excluded from the parent's self time too
                stack[-1][1] += perf_counter() - start
            return out

        return traced

    def _parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _observe_sweep(self, args, out) -> None:
        before = args[0].particles
        self.counts["metropolis.accepted"] += int(np.count_nonzero(out.particles != before))
        self.counts["metropolis.proposals"] += before.size

    def _observe_batch(self, args, out) -> None:
        self.counts["evaluate_batch.rows"] += len(out)
        if self._parent() == "core.metropolis_sweep":
            self.counts["metropolis.in_box"] += len(out)

    # the work ratios that need more than a count are computed in end_job,
    # outside the timed job, from copies of what the wrapped calls returned
    def _observe_resample(self, args, out) -> None:
        self._resampled.append(out.particles.copy())

    def _observe_weights(self, args, out) -> None:
        self._log_weights.append(out.log_weights.copy())

    def _observe_sort(self, args, out) -> None:
        self.counts["sort.points"] += len(args[0])

    def end_job(self) -> int:
        """Close one job; return the evaluations its problems' counters took."""
        evals = sum(p.counter.count for p in self._problems)
        self._problems.clear()
        self.counts["evals"] += evals
        for p in self._resampled:
            rows = p.view(np.dtype((np.void, p.dtype.itemsize * p.shape[1]))).ravel()
            self.counts["resample.distinct"] += len(np.unique(rows))
            self.counts["resample.rows"] += len(p)
        if self._log_weights:
            # ESS / N = 1 / (N * sum w^2) for normalized weights w
            self._ess_mins.append(
                min(1.0 / (float(np.sum(np.exp(2.0 * lw))) * len(lw)) for lw in self._log_weights)
            )
        self._resampled.clear()
        self._log_weights.clear()
        return evals

    def metrics(self, jobs: int, traced_wall_s: float) -> dict[str, float]:
        """The per-layer metrics the trace gives; times, calls and counts are
        per job, the work ratios over the whole pass."""
        s, n, c = self.self_s.get, self.calls.get, self.counts.get

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        per_job = {
            "problems.objective_s": s("problems.f1", 0.0) + s("problems.f2", 0.0),
            "problems.overhead_s": s("problems.evaluate_batch", 0.0),
            "problems.evaluate_batch.calls": n("problems.evaluate_batch", 0),
            "problems.evaluate_batch.rows": c("evaluate_batch.rows", 0),
            "problems.evals": c("evals", 0),
            "nsga2.fast_nondominated_sort.points": c("sort.points", 0),
        }
        # spans with wrapped children report self time as "<span>.self_s"
        for span in ("core.run", "core.metropolis_sweep", "nsga2.evolve", "experiments.run_preset"):
            per_job[f"{span}.self_s"] = s(span, 0.0)
        for span in ("pareto.nondominated_mask", "pareto.igd", "pareto.hypervolume_2d",
                     "pareto.reference_front"):
            per_job[f"{span}_s"] = s(span, 0.0)
        for span in ("core.resample", "core.update_incumbent", "core.importance_weights",
                     "scalarize.log_density_values", "nsga2.fast_nondominated_sort",
                     "nsga2.crowding_distance"):
            per_job[f"{span}_s"] = s(span, 0.0)
            per_job[f"{span}.calls"] = n(span, 0)
        out = {k: v / jobs for k, v in per_job.items()}
        out["core.metropolis.accept_frac"] = ratio(
            c("metropolis.accepted", 0), c("metropolis.proposals", 0)
        )
        out["core.metropolis.in_box_frac"] = ratio(
            c("metropolis.in_box", 0), c("metropolis.proposals", 0)
        )
        out["core.resample.distinct_frac"] = ratio(
            c("resample.distinct", 0), c("resample.rows", 0)
        )
        out["core.ess_frac_min"] = ratio(sum(self._ess_mins), len(self._ess_mins))
        out["trace.coverage_frac"] = ratio(sum(self.self_s.values()), traced_wall_s)
        return out

    def table(self, traced_wall_s: float, jobs: int) -> list[tuple[str, float, float, float]]:
        """(span, self seconds per job, share of traced wall time, calls per
        job) for every span that ran, largest self time first."""
        rows = [
            (name, s / jobs, s / traced_wall_s if traced_wall_s else 0.0, self.calls[name] / jobs)
            for name, s in self.self_s.items()
        ]
        return sorted(rows, key=lambda r: -r[1])
