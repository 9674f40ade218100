"""Self-contained NSGA-II baseline for bi-objective box-constrained problems.

Real-coded: binary tournament on (rank, crowding), simulated-binary
crossover, polynomial mutation, elitist environmental selection. Children
are clamped to the box after variation. Ranks come from
:func:`~pfops.pareto.peel_fronts`, which also filters PFOPS archives: it
sorts the points once and sweeps each front out of that order. Selection
takes fronts of parents and children only until the new population is full,
and the survivors keep the rank and crowding it found, so each generation
ranks once. Not a general EC framework; it exists to give runs a comparison
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParetoArchive, check_float, check_integer
from .errors import InvalidConfigError
from .pareto import as_front, peel_fronts
from .problems import BiObjectiveProblem


@dataclass(frozen=True)
class Nsga2Config:
    """Baseline settings, checked when built: a wrongly typed, out-of-range or
    non-finite field raises InvalidConfigError naming it, as in a config file.
    pop_size is an even integer >= 2; probabilities lie in [0, 1] and a
    ``mutation_prob`` of None means 1/d; distribution indices are positive."""

    pop_size: int
    generations: int
    crossover_prob: float = 0.9
    crossover_index: float = 20.0
    mutation_prob: float | None = None
    mutation_index: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("pop_size", self.pop_size, 2)
        if self.pop_size % 2 != 0:
            raise InvalidConfigError(f"pop_size must be even, got {self.pop_size}")
        check_integer("generations", self.generations, 1)
        check_float(self, "crossover_prob", probability=True)
        check_float(self, "crossover_index")
        if self.mutation_prob is not None:
            check_float(self, "mutation_prob", probability=True)
        check_float(self, "mutation_index")
        check_integer("seed", self.seed, 0)


def fast_nondominated_sort(points: np.ndarray) -> list[list[int]]:
    """Partition indices into ranked fronts; front 0 is the non-dominated set.

    Sorts once and peels every front from that order with
    :func:`~pfops.pareto.peel_fronts`, each front in ascending index order.
    """
    return [front.tolist() for front in peel_fronts(points)]


def crowding_distance(front_points: np.ndarray) -> np.ndarray:
    """Crowding of each member of one front; boundaries get +inf.

    Interior members sum, over objectives, the gap between their sorted
    neighbors normalized by the objective's range; an objective whose range
    is zero or infinite is skipped. The front is read by
    :func:`~pfops.pareto.as_front`, which rejects a shape other than (n, 2).
    """
    front_points = as_front(front_points)
    n = len(front_points)
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for m in range(front_points.shape[1]):
        values = front_points[:, m]
        order = np.argsort(values, kind="stable")
        lo, hi = values[order[0]], values[order[-1]]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if lo == hi or hi - lo == np.inf:  # zero or infinite range
            continue
        gaps = (values[order[2:]] - values[order[:-2]]) / (hi - lo)
        interior = order[1:-1]
        distance[interior] = distance[interior] + gaps
    return distance


def _rank_and_crowding(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fronts = fast_nondominated_sort(objectives)
    ranks = np.empty(len(objectives), dtype=int)
    crowd = np.empty(len(objectives))
    for r, front in enumerate(fronts):
        ranks[front] = r
        crowd[front] = crowding_distance(objectives[front])
    return ranks, crowd


def _tournament(
    ranks: np.ndarray, crowd: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    n = len(ranks)
    a, b = rng.integers(0, n, size=(2, n))
    b_wins = (ranks[b] < ranks[a]) | ((ranks[b] == ranks[a]) & (crowd[b] > crowd[a]))
    return np.where(b_wins, b, a)


def _sbx(
    parents: np.ndarray, prob: float, index: float, rng: np.random.Generator
) -> np.ndarray:
    half = len(parents) // 2
    d = parents.shape[1]
    p1 = parents[0::2]
    p2 = parents[1::2]
    do_pair = rng.random(half) < prob
    do_var = rng.random((half, d)) < 0.5
    u = rng.random((half, d))
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (index + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (index + 1.0)),
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
    prob: float,
    index: float,
    rng: np.random.Generator,
) -> np.ndarray:
    shape = children.shape
    do_mut = rng.random(shape) < prob
    u = rng.random(shape)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (index + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (index + 1.0)),
    )
    return np.where(do_mut, children + delta * (upper - lower), children)


def _environmental_selection(
    decisions: np.ndarray, objectives: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keep ``pop_size`` rows front by front; the last front that does not
    fit keeps its most isolated members. Returns the survivors' decisions,
    objectives, ranks and crowding.

    Everything that dominates a survivor sits in an earlier, whole front, so
    its rank among the survivors is its rank here. Survivors are stored
    front by front in the order kept, the order in which a re-sort of them
    would pass each front to :func:`crowding_distance`.
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
    idx = np.concatenate(chosen)
    return decisions[idx], objectives[idx], np.concatenate(ranks), np.concatenate(crowds)


def evolve(config: Nsga2Config, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Run NSGA-II and return the final rank-0 front plus the measured
    evaluation count, 2 * pop_size * (generations + 1): the initial
    population and one offspring batch per generation."""
    rng = np.random.default_rng(config.seed)
    mutation_prob = (
        config.mutation_prob if config.mutation_prob is not None else 1.0 / problem.dim
    )
    start_count = problem.counter.count

    span = problem.upper - problem.lower
    pop = problem.lower + span * rng.random((config.pop_size, problem.dim))
    obj = problem.evaluate_batch(pop)
    ranks, crowd = _rank_and_crowding(obj)

    for _ in range(config.generations):
        parents = pop[_tournament(ranks, crowd, rng)]
        children = _sbx(parents, config.crossover_prob, config.crossover_index, rng)
        children = _polynomial_mutation(
            children, problem.lower, problem.upper, mutation_prob, config.mutation_index, rng
        )
        children = np.clip(children, problem.lower, problem.upper)
        child_obj = problem.evaluate_batch(children)
        pop, obj, ranks, crowd = _environmental_selection(
            np.vstack([pop, children]), np.vstack([obj, child_obj]), config.pop_size
        )

    rank0 = np.flatnonzero(ranks == 0)
    archive = ParetoArchive(decisions=pop[rank0], front=obj[rank0])
    return archive, problem.counter.count - start_count
