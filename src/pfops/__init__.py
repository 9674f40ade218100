"""Particle-filter multi-objective optimization over path-sampled targets.

The optimizer sweeps a balance parameter across a family of scalarized
target densities and tracks one incumbent per target; the incumbents form
the estimated Pareto set/front. Ships with three bi-objective benchmarks,
an NSGA-II baseline, dominance/quality metrics, and a preset experiment
runner (library API here, command line via ``pfops``).
"""

from .core import (
    Incumbent,
    ParetoArchive,
    PfopsConfig,
    Population,
    importance_weights,
    initialize,
    metropolis_sweep,
    resample,
    run,
    update_incumbent,
)
from .errors import (
    BoundsError,
    DegenerateWeightsError,
    InvalidConfigError,
    InvalidInputError,
    NotFoundError,
    PfopsError,
)
from .experiments import (
    PRESETS,
    ComparisonResult,
    ExperimentPreset,
    RunReport,
    compare,
    emit_front_csv,
    emit_front_svg,
    run_config_file,
    run_preset,
    write_comparison_csv,
)
from .nsga2 import Nsga2Config, crowding_distance, evolve, fast_nondominated_sort
from .pareto import (
    dominates,
    hypervolume_2d,
    igd,
    nondominated_filter,
    nondominated_mask,
    read_front_csv,
    reference_front,
    write_front_csv,
)
from .problems import (
    BiObjectiveProblem,
    EvalCounter,
    available_problems,
    convex_problem,
    fonseca_fleming_problem,
    kursawe_problem,
    lookup_problem,
)
from .scalarize import (
    Scalarization,
    ScalarizationKind,
    equal_interval_schedule,
    tchebycheff,
    weighted_sum,
)

__all__ = [
    "BiObjectiveProblem",
    "BoundsError",
    "ComparisonResult",
    "DegenerateWeightsError",
    "EvalCounter",
    "ExperimentPreset",
    "Incumbent",
    "InvalidConfigError",
    "InvalidInputError",
    "NotFoundError",
    "Nsga2Config",
    "PRESETS",
    "ParetoArchive",
    "PfopsConfig",
    "PfopsError",
    "Population",
    "RunReport",
    "Scalarization",
    "ScalarizationKind",
    "available_problems",
    "compare",
    "convex_problem",
    "crowding_distance",
    "dominates",
    "emit_front_csv",
    "emit_front_svg",
    "equal_interval_schedule",
    "evolve",
    "fast_nondominated_sort",
    "fonseca_fleming_problem",
    "hypervolume_2d",
    "igd",
    "importance_weights",
    "initialize",
    "kursawe_problem",
    "lookup_problem",
    "metropolis_sweep",
    "nondominated_filter",
    "nondominated_mask",
    "read_front_csv",
    "reference_front",
    "resample",
    "run",
    "run_config_file",
    "run_preset",
    "tchebycheff",
    "update_incumbent",
    "weighted_sum",
    "write_comparison_csv",
    "write_front_csv",
]

__version__ = "0.1.0"
