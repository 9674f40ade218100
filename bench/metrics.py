"""Names, units and directions of every metric the benchmark prints.

Standard library only, so that the launcher can import it without numpy.
BENCHMARK.json at the repository root lists the same metrics; the self-test
checks that the two agree.
"""

# name -> (unit, better)
END_TO_END = {
    "run_s_p50": ("s", "lower"),
    "run_s_tail": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "igd_mean": ("1", "lower"),
    "hv_mean": ("1", "higher"),
    "eval_count": ("count", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# name -> (unit, better); times, calls and counts are per job
PER_LAYER = {
    "problems.objective_s": ("s", "lower"),
    "problems.overhead_s": ("s", "lower"),
    "problems.evaluate_batch.calls": ("count", "lower"),
    "problems.evaluate_batch.rows": ("count", "lower"),
    "problems.evals": ("count", "lower"),
    "core.run.self_s": ("s", "lower"),
    "core.metropolis_sweep.self_s": ("s", "lower"),
    "core.resample_s": ("s", "lower"),
    "core.resample.calls": ("count", "lower"),
    "core.update_incumbent_s": ("s", "lower"),
    "core.update_incumbent.calls": ("count", "lower"),
    "core.importance_weights_s": ("s", "lower"),
    "core.importance_weights.calls": ("count", "lower"),
    "scalarize.log_density_values_s": ("s", "lower"),
    "scalarize.log_density_values.calls": ("count", "lower"),
    "nsga2.fast_nondominated_sort_s": ("s", "lower"),
    "nsga2.fast_nondominated_sort.calls": ("count", "lower"),
    "nsga2.fast_nondominated_sort.points": ("count", "lower"),
    "nsga2.crowding_distance_s": ("s", "lower"),
    "nsga2.crowding_distance.calls": ("count", "lower"),
    "nsga2.evolve.self_s": ("s", "lower"),
    "pareto.nondominated_mask_s": ("s", "lower"),
    "pareto.igd_s": ("s", "lower"),
    "pareto.hypervolume_2d_s": ("s", "lower"),
    "pareto.reference_front_s": ("s", "lower"),
    "experiments.run_preset.self_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.reference_front_s": ("s", "lower"),
    "core.metropolis.accept_frac": ("frac", "higher"),
    "core.metropolis.in_box_frac": ("frac", "higher"),
    "core.resample.distinct_frac": ("frac", "higher"),
    "core.ess_frac_min": ("frac", "higher"),
    "trace.coverage_frac": ("frac", "higher"),
    "trace_overhead_frac": ("frac", "lower"),
}
