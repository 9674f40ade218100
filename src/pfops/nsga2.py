"""Self-contained NSGA-II baseline for bi-objective box-constrained problems.

Real-coded: binary tournament on (rank, crowding), simulated-binary
crossover, polynomial mutation, elitist environmental selection. Children
are clamped to the box after variation. The variation operators run at the
fixed settings of Deb et al. 2002 (IEEE TEC 6(2)): SBX with probability 0.9
and distribution index 20, polynomial mutation with probability 1/d and
distribution index 20. Ranks come from
:func:`~pfops.pareto.peel_fronts`, which also filters PFOPS archives: it
sorts the points once and sweeps each front out of that order. Selection
takes fronts of parents and children only until the new population is full,
and the survivors keep the rank and crowding it found, so each generation
ranks once. The first population goes through the same selection at full
size, which cuts nothing and so ranks and crowds every member. Not a
general EC framework; it exists to give runs a comparison point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, check_integer, check_sizable
from .pareto import ParetoArchive, _reject_nan_rows, as_front, peel_fronts
from .problems import BiObjectiveProblem

CROSSOVER_PROB = 0.9
CROSSOVER_INDEX = 20.0
MUTATION_INDEX = 20.0


@dataclass(frozen=True)
class Nsga2Config:
    """Baseline settings, checked when built: a wrongly typed or out-of-range
    field raises InvalidConfigError naming it, as in a config file. pop_size
    is an even integer >= 2, generations an integer >= 1, seed >= 0.

    The variation operators are fixed at Deb et al. 2002's settings (IEEE TEC
    6(2)): SBX with probability 0.9 and distribution index 20, polynomial
    mutation with probability 1/d and distribution index 20.
    """

    pop_size: int
    generations: int
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("pop_size", self.pop_size, 2)
        if self.pop_size % 2 != 0:
            raise InvalidConfigError(f"pop_size must be even, got {self.pop_size}")
        check_integer("generations", self.generations, 1)
        check_integer("seed", self.seed, 0)


def crowding_distance(front_points: np.ndarray) -> np.ndarray:
    """Crowding of each member of one front; boundaries get +inf.

    Interior members sum, over objectives, the gap between their sorted
    neighbors normalized by the objective's range; an objective whose range
    is zero or infinite is skipped. The front is read by
    :func:`~pfops.pareto.as_front`, which rejects a shape other than (n, 2);
    a NaN row raises InvalidInputError, as in ranking.
    """
    front_points = as_front(front_points)
    n = len(front_points)
    distance = np.zeros(n)
    if n == 0:
        return distance
    for m in range(front_points.shape[1]):
        values = front_points[:, m]
        order = np.argsort(values, kind="stable")
        lo, hi = values[order[0]], values[order[-1]]
        if math.isnan(hi):  # argsort puts NaN last: the sort found it, no reduction needed
            _reject_nan_rows(front_points)
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if lo == hi or hi - lo == np.inf:  # zero or infinite range
            continue
        gaps = (values[order[2:]] - values[order[:-2]]) / (hi - lo)
        interior = order[1:-1]
        distance[interior] = distance[interior] + gaps
    return distance


def _tournament(
    ranks: np.ndarray, crowd: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(ranks)
    a, b = rng.integers(0, n, size=(2, n))
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


def _sbx(parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    half = len(parents) // 2
    d = parents.shape[1]
    p1 = parents[0::2]
    p2 = parents[1::2]
    do_pair = rng.random(half) < CROSSOVER_PROB
    do_var = rng.random((half, d)) < 0.5
    u = rng.random((half, d))
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (CROSSOVER_INDEX + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (CROSSOVER_INDEX + 1.0)),
    )
    active = do_pair[:, None] & do_var
    beta = np.where(active, beta, 1.0)  # beta 1 leaves both children at parents
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    children = np.empty_like(parents)
    children[0::2] = c1
    children[1::2] = c2
    return children


def _polynomial_mutation(
    children: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    shape = children.shape
    do_mut = rng.random(shape) < 1.0 / shape[1]  # probability 1/d
    u = rng.random(shape)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (MUTATION_INDEX + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (MUTATION_INDEX + 1.0)),
    )
    return np.where(do_mut, children + delta * (upper - lower), children)


def _environmental_selection(
    objectives: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep ``pop_size`` rows front by front; the last front that does not
    fit keeps its most isolated members. Returns the kept row indices with
    their ranks and crowding.

    Everything that dominates a survivor sits in an earlier, whole front, so
    its rank among the survivors is its rank here. Survivors are listed
    front by front in the order kept, the order in which a re-sort of them
    would pass each front to :func:`crowding_distance`. At full size nothing
    is cut, so the result ranks and crowds every row.
    """
    chosen: list[np.ndarray] = []
    ranks: list[np.ndarray] = []
    crowds: list[np.ndarray] = []
    need = pop_size
    for rank, front in enumerate(peel_fronts(objectives)):
        crowd = crowding_distance(objectives[front])
        if len(front) > need:
            front = front[np.argsort(-crowd, kind="stable")[:need]]  # most isolated first
            crowd = crowding_distance(objectives[front])
        chosen.append(front)
        ranks.append(np.full(len(front), rank))
        crowds.append(crowd)
        need -= len(front)
        if need == 0:
            break
    return np.concatenate(chosen), np.concatenate(ranks), np.concatenate(crowds)


def evolve(config: Nsga2Config, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Run NSGA-II and return the final rank-0 front plus the measured
    evaluation count, 2 * pop_size * (generations + 1): the initial
    population and one offspring batch per generation.

    Raises:
        InvalidConfigError: if pop_size is too large for numpy to size the
            (2 pop_size, d) array of parents and offspring.
    """
    check_sizable("pop_size", config.pop_size, 2 * problem.dim)
    rng = np.random.default_rng(config.seed)
    start_count = problem.counter.count

    span = problem.upper - problem.lower
    pop = problem.lower + span * rng.random((config.pop_size, problem.dim))
    obj = problem.evaluate_batch(pop)
    idx, kept_ranks, kept_crowd = _environmental_selection(obj, config.pop_size)
    ranks = np.empty(config.pop_size, dtype=int)
    crowd = np.empty(config.pop_size)
    ranks[idx] = kept_ranks  # tournaments draw rows of pop: back to row order
    crowd[idx] = kept_crowd

    for _ in range(config.generations):
        parents = pop[_tournament(ranks, crowd, rng)]
        children = _sbx(parents, rng)
        children = _polynomial_mutation(children, problem.lower, problem.upper, rng)
        children = np.clip(children, problem.lower, problem.upper)
        pop = np.vstack([pop, children])
        obj = np.vstack([obj, problem.evaluate_batch(children)])
        idx, ranks, crowd = _environmental_selection(obj, config.pop_size)
        pop, obj = pop[idx], obj[idx]

    rank0 = np.flatnonzero(ranks == 0)
    archive = ParetoArchive(decisions=pop[rank0], front=obj[rank0])
    return archive, problem.counter.count - start_count
