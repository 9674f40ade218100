"""Self-contained NSGA-II baseline for bi-objective box-constrained problems.

Real-coded: binary tournament on (rank, crowding), simulated-binary
crossover, polynomial mutation, elitist environmental selection. Children
are clamped to the box after variation. Ranks come from peeling fronts with
the same O(n log n) sort-and-sweep that filters PFOPS archives. Not a
general EC framework; it exists to give runs a comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParetoArchive, check_integer
from .errors import InvalidConfigError
from .pareto import nondominated_mask
from .problems import BiObjectiveProblem


@dataclass(frozen=True)
class Nsga2Config:
    pop_size: int
    generations: int
    crossover_prob: float = 0.9
    crossover_index: float = 20.0
    mutation_prob: float | None = None  # None -> 1/d
    mutation_index: float = 20.0
    seed: int = 0

    def validate(self) -> None:
        check_integer("pop_size", self.pop_size, 2)
        if self.pop_size % 2 != 0:
            raise InvalidConfigError(f"pop_size must be even, got {self.pop_size}")
        check_integer("generations", self.generations, 1)
        check_integer("seed", self.seed, 0)
        for name in ("crossover_prob", "mutation_prob"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.crossover_index <= 0 or self.mutation_index <= 0:
            raise InvalidConfigError("distribution indices must be positive")


def fast_nondominated_sort(points: np.ndarray) -> list[list[int]]:
    """Partition indices into ranked fronts; front 0 is the non-dominated set.

    Peels one front per pass with :func:`~pfops.pareto.nondominated_mask`,
    each front in ascending index order. A pass always removes the first
    remaining point in (f1, f2) order, which nothing dominates.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    remaining = np.arange(len(points))
    fronts: list[list[int]] = []
    while len(remaining):
        on_front = nondominated_mask(points[remaining])
        fronts.append(remaining[on_front].tolist())
        remaining = remaining[~on_front]
    return fronts


def crowding_distance(front_points: np.ndarray) -> np.ndarray:
    """Crowding of each member of one front; boundaries get +inf.

    Interior members sum, over objectives, the gap between their sorted
    neighbors normalized by the objective's range; an objective with zero
    range is skipped.
    """
    front_points = np.asarray(front_points, dtype=float).reshape(-1, 2)
    n = len(front_points)
    if n <= 2:
        return np.full(n, np.inf)
    distance = np.zeros(n)
    for m in range(front_points.shape[1]):
        values = front_points[:, m]
        order = np.argsort(values, kind="stable")
        span = values[order[-1]] - values[order[0]]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        if span == 0:
            continue
        gaps = (values[order[2:]] - values[order[:-2]]) / span
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
) -> tuple[np.ndarray, np.ndarray]:
    fronts = fast_nondominated_sort(objectives)
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= pop_size:
            chosen.extend(front)
            if len(chosen) == pop_size:
                break
        else:
            crowd = crowding_distance(objectives[front])
            order = np.argsort(-crowd, kind="stable")  # most isolated first
            need = pop_size - len(chosen)
            chosen.extend(np.asarray(front)[order[:need]].tolist())
            break
    idx = np.asarray(chosen)
    return decisions[idx].copy(), objectives[idx].copy()


def evolve(config: Nsga2Config, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Run NSGA-II and return the final rank-0 front plus the measured
    evaluation count, 2 * pop_size * (generations + 1): the initial
    population and one offspring batch per generation."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    mutation_prob = (
        config.mutation_prob if config.mutation_prob is not None else 1.0 / problem.dim
    )
    start_count = problem.counter.count

    span = problem.upper - problem.lower
    pop = problem.lower + span * rng.random((config.pop_size, problem.dim))
    obj = problem.evaluate_batch(pop)

    for _ in range(config.generations):
        ranks, crowd = _rank_and_crowding(obj)
        parents = pop[_tournament(ranks, crowd, rng)]
        children = _sbx(parents, config.crossover_prob, config.crossover_index, rng)
        children = _polynomial_mutation(
            children, problem.lower, problem.upper, mutation_prob, config.mutation_index, rng
        )
        children = np.clip(children, problem.lower, problem.upper)
        child_obj = problem.evaluate_batch(children)
        pop, obj = _environmental_selection(
            np.vstack([pop, children]), np.vstack([obj, child_obj]), config.pop_size
        )

    rank0 = fast_nondominated_sort(obj)[0]
    archive = ParetoArchive(decisions=pop[rank0].copy(), front=obj[rank0].copy())
    return archive, problem.counter.count - start_count
