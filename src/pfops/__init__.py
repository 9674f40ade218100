"""Particle-filter multi-objective optimization over path-sampled targets.

The optimizer sweeps a balance parameter across a family of scalarized
target densities and tracks one incumbent per target; the incumbents form
the estimated Pareto set/front. Ships with three bi-objective benchmarks,
an NSGA-II baseline, dominance/quality metrics, and a preset experiment
runner (library API here, command line via ``pfops``). The names below,
the three PFOPS step functions and the types they take included, are the
whole documented API; the submodules are internal.
"""

from .core import PfopsConfig, Population, importance_weights, metropolis_sweep, resample, run
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
    RunReport,
    compare,
    emit_front_svg,
    run_config_file,
    run_preset,
)
from .nsga2 import Nsga2Config, crowding_distance, evolve
from .pareto import (
    ParetoArchive,
    dominates,
    hypervolume_2d,
    igd,
    nondominated_mask,
    reference_front,
    write_front_csv,
)
from .problems import BiObjectiveProblem, CoordinateSum, convex_problem, lookup_problem
from .scalarize import Scalarization, ScalarizationKind

__all__ = [
    "BiObjectiveProblem",
    "BoundsError",
    "CoordinateSum",
    "DegenerateWeightsError",
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
    "compare",
    "convex_problem",
    "crowding_distance",
    "dominates",
    "emit_front_svg",
    "evolve",
    "hypervolume_2d",
    "igd",
    "importance_weights",
    "lookup_problem",
    "metropolis_sweep",
    "nondominated_mask",
    "reference_front",
    "resample",
    "run",
    "run_config_file",
    "run_preset",
    "write_front_csv",
]

__version__ = "0.1.0"
