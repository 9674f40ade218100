"""Particle-filter optimizer over a path-sampled sequence of scalarized targets.

One run walks the balance parameter lambda through an equally spaced schedule
from 0 to 1. At each step k the population is scored under the current target
pi_k, the best particle becomes the step's incumbent, particles are
importance-reweighted by the density ratio pi_k / pi_{k-1}, multinomially
resampled, and optionally rejuvenated by a componentwise Metropolis sweep
(which may also improve the incumbent, including through rejected proposals).
Resampling draws by inverse CDF: N uniforms from ``rng.random`` looked up in
the cumulative weights, the lookup ``rng.choice(N, size=N, p=w)`` makes.
The K recorded incumbents form the estimated Pareto set; their objective
vectors, kept from the evaluations already paid for, form the estimated front.

``run`` keeps the step on plain arrays: the particles are evaluated once per
step and scored once under pi_k, and that one score picks the incumbent, is
pi_k's side of the weight ratio (pi_{k-1} is scored at the same objective
values) and, gathered by the resampling index, starts the sweep. A run thus
consumes exactly 2*K*N single-objective evaluations, plus 2*K*N*d more when
the Metropolis sweep is on (one (f1, f2) pair per componentwise proposal,
out-of-box proposals included). The weights take one pass per step: the raw
log weights' maximum is checked once, and the CDF is built from
exp(log w - max) and divided by its last entry, with no log-sum in between.

The public step functions run the same kernels on a ``Population``, each
scoring its particles afresh. ``importance_weights`` returns normalized log
weights, and ``resample`` turns its log weights into ``rng.choice``'s ``p``
before the shared lookup, so it keeps ``rng.choice``'s stream; the CDF
``run`` builds may differ from that one in its last bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateWeightsError, InvalidConfigError, InvalidInputError
from .pareto import nondominated_mask
from .problems import BiObjectiveProblem
from .scalarize import Scalarization, ScalarizationKind, equal_interval_schedule, is_finite_number


@dataclass(frozen=True)
class Incumbent:
    """Best decision seen under the current target density."""

    decision: np.ndarray
    log_density: float
    objectives: np.ndarray


@dataclass
class Population:
    """N weighted particles plus the per-step incumbent."""

    particles: np.ndarray
    log_weights: np.ndarray
    incumbent: Incumbent | None = None

    def __len__(self) -> int:
        return len(self.particles)


def check_integer(name: str, value: object, minimum: int) -> None:
    """Reject a config count or seed that is not an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_float(config: object, name: str, probability: bool = False) -> None:
    """Store a frozen config's float field as a float; reject it unless it is
    a finite number, in [0, 1] if ``probability`` and positive otherwise."""
    value = getattr(config, name)
    if not is_finite_number(value):
        raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
    if probability and not 0 <= value <= 1:
        raise InvalidConfigError(f"{name} must lie in [0, 1], got {value!r}")
    if not probability and value <= 0:
        raise InvalidConfigError(f"{name} must be positive, got {value!r}")
    object.__setattr__(config, name, float(value))


@dataclass(frozen=True)
class PfopsConfig:
    """Run settings, checked when built: a wrongly typed, out-of-range or
    non-finite field raises InvalidConfigError naming it, as in a config file.

    Attributes:
        n_targets: K, number of target densities (integer >= 2).
        n_particles: N, particle count (integer >= 1).
        sigma: Metropolis proposal standard deviation (finite, > 0), shared
            by all coordinates.
        metropolis_enabled: run the componentwise rejuvenation sweep (bool).
        final_filter_enabled: drop dominated members from the archive (bool).
        seed: seed for the run's random stream (integer >= 0).
        scalarization_kind: a ScalarizationKind, weighted-sum or Tchebycheff.
        utopian: (z1, z2), finite, required iff Tchebycheff; kept as floats.
    """

    n_targets: int
    n_particles: int
    sigma: float = 1.0
    metropolis_enabled: bool = True
    final_filter_enabled: bool = True
    seed: int = 0
    scalarization_kind: ScalarizationKind = ScalarizationKind.WEIGHTED_SUM
    utopian: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        check_integer("n_targets", self.n_targets, 2)
        check_integer("n_particles", self.n_particles, 1)
        check_float(self, "sigma")
        for name in ("metropolis_enabled", "final_filter_enabled"):
            if not isinstance(value := getattr(self, name), bool):
                raise InvalidConfigError(f"{name} must be true or false, got {value!r}")
        check_integer("seed", self.seed, 0)
        if not isinstance(self.scalarization_kind, ScalarizationKind):
            raise InvalidConfigError(
                f"scalarization_kind must be a ScalarizationKind, got {self.scalarization_kind!r}"
            )
        # the Utopian rules live in Scalarization; keep its float copy of z
        z = Scalarization(self.scalarization_kind, 0.0, self.utopian).utopian
        object.__setattr__(self, "utopian", z)

    def scalarization(self, lam: float) -> Scalarization:
        return Scalarization(self.scalarization_kind, float(lam), self.utopian)


@dataclass(frozen=True)
class ParetoArchive:
    """Index-aligned estimated Pareto set and front: front[i] = F(decisions[i])."""

    decisions: np.ndarray
    front: np.ndarray

    def __len__(self) -> int:
        return len(self.decisions)


def initialize(
    config: PfopsConfig, problem: BiObjectiveProblem, rng: np.random.Generator
) -> Population:
    """Draw N particles uniformly inside the box; weights uniform, no incumbent."""
    span = problem.upper - problem.lower
    particles = problem.lower + span * rng.random((config.n_particles, problem.dim))
    log_weights = np.full(config.n_particles, -np.log(config.n_particles))
    return Population(particles=particles, log_weights=log_weights)


def _incumbent(particles: np.ndarray, log_pi: np.ndarray, objectives: np.ndarray) -> Incumbent:
    j = int(log_pi.argmax())
    return Incumbent(particles[j].copy(), float(log_pi[j]), objectives[j].copy())


def _raw_log_weights(
    log_pi: np.ndarray, objectives: np.ndarray, s_prev: Scalarization | None
) -> np.ndarray:
    """The step's unnormalized log weights, log pi_k - log pi_{k-1} (log pi_k
    alone at the first step), shifted by their maximum, which must be finite."""
    log_w = log_pi if s_prev is None else log_pi - s_prev.log_density_values(objectives)
    m = log_w.max()
    if not math.isfinite(m):
        raise DegenerateWeightsError(
            "every particle has zero density under the current target"
        )
    return log_w - m


def _inverse_cdf(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """N ancestor indices drawn by inverse CDF from N non-negative weights
    (any scale, largest > 0): ``rng.choice``'s lookup, one uniform per draw."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(len(weights)), side="right")


def _sweep(
    particles: np.ndarray, log_pi: np.ndarray, inc: Incumbent, s: Scalarization,
    problem: BiObjectiveProblem, sigma: float, rng: np.random.Generator,
) -> Incumbent:
    """Sweep ``particles`` in place, keeping ``log_pi`` (their log pi under
    ``s``) in step; return the incumbent after the sweep."""
    n = len(particles)
    for dim in range(problem.dim):
        proposed_col = particles[:, dim] + sigma * rng.standard_normal(n)
        inside = (proposed_col >= problem.lower[dim]) & (proposed_col <= problem.upper[dim])
        rows = np.flatnonzero(inside)

        prop_log_pi = np.full(n, -np.inf)
        if rows.size:
            batch = particles[rows]
            batch[:, dim] = proposed_col[rows]
            values = problem.evaluate_batch(batch)
            batch_log_pi = s.log_density_values(values)
            prop_log_pi[rows] = batch_log_pi
            # out-of-box rows score -inf, so the batch's first maximum is the
            # first maximum over all proposals; it is kept only if it beats
            # the incumbent
            j = int(batch_log_pi.argmax())
            if batch_log_pi[j] > inc.log_density:
                inc = Incumbent(batch[j].copy(), float(batch_log_pi[j]), values[j].copy())
        # out-of-box proposals still consumed two objective calls each
        problem.counter.add(2 * (n - rows.size))

        accept = rng.random(n) < np.exp(np.minimum(prop_log_pi - log_pi, 0.0))
        np.copyto(particles[:, dim], proposed_col, where=accept)
        np.copyto(log_pi, prop_log_pi, where=accept)
    return inc


def _score(
    particles: np.ndarray, s: Scalarization, problem: BiObjectiveProblem
) -> tuple[np.ndarray, np.ndarray]:
    objectives = problem.evaluate_batch(particles)
    return objectives, s.log_density_values(objectives)


def update_incumbent(
    pop: Population, s: Scalarization, problem: BiObjectiveProblem
) -> Population:
    """Set the incumbent to the particle maximizing log pi; first index wins ties.

    Scores the population afresh: 2N evaluations.
    """
    if len(pop) == 0:
        raise InvalidInputError("population is empty")
    objectives, log_pi = _score(pop.particles, s, problem)
    return replace(pop, incumbent=_incumbent(pop.particles, log_pi, objectives))


def importance_weights(
    pop: Population,
    k: int,
    s_k: Scalarization,
    s_prev: Scalarization | None,
    problem: BiObjectiveProblem,
) -> Population:
    """Incremental importance weighting, normalized in log space.

    Raw weight: pi_k at the particle when k = 1, else the ratio
    pi_k / pi_{k-1}; both targets are scored at the same objective values,
    so the step costs 2N evaluations. ``run`` skips the normalization and
    draws its ancestors from the CDF of the raw weights.

    Raises:
        DegenerateWeightsError: if the raw log weights' maximum is not
            finite (every particle has zero density under pi_k, or a NaN).
    """
    if k < 1:
        raise InvalidInputError(f"step index must be >= 1, got {k}")
    if (k == 1) != (s_prev is None):
        raise InvalidInputError("s_prev is required exactly when k > 1")
    objectives, log_pi = _score(pop.particles, s_k, problem)
    log_w = _raw_log_weights(log_pi, objectives, s_prev)
    log_w -= np.log(np.exp(log_w).sum())
    return replace(pop, log_weights=log_w)


def resample(pop: Population, rng: np.random.Generator) -> Population:
    """Multinomial resampling: N independent draws by weight; weights reset to 1/N.

    The draw is by inverse CDF: N uniforms from ``rng.random`` looked up in
    the normalized cumulative weights. It is the draw that
    ``rng.choice(N, size=N, replace=True, p=w)`` makes, the same indices
    from the same stream, leaving ``rng`` in the same state, without that
    call's validation of ``p``. ``run`` looks up the CDF of its raw
    weights instead, skipping ``p``. Resampling costs 0 evaluations.

    Raises:
        InvalidInputError: if there is not one log weight per particle, or
            their maximum is not finite (a NaN, a +inf, or all -inf).
    """
    n = len(pop)
    log_weights = pop.log_weights
    m = log_weights.max()
    if log_weights.shape != (n,) or not math.isfinite(m):
        raise InvalidInputError(
            f"resampling needs one log weight per particle ({n}) with a finite "
            f"maximum, got shape {log_weights.shape} and maximum {m}"
        )
    p = np.exp(log_weights - m)
    p /= p.sum()
    idx = _inverse_cdf(p, rng)
    return Population(pop.particles[idx], np.full(n, -np.log(n)), pop.incumbent)


def metropolis_sweep(
    pop: Population,
    s: Scalarization,
    problem: BiObjectiveProblem,
    sigma: float,
    rng: np.random.Generator,
) -> Population:
    """One componentwise Metropolis sweep over every particle.

    For each dimension in order, every particle proposes a Gaussian
    perturbation of that coordinate and accepts with probability
    min{1, pi(x') / pi(x)}. Proposals leaving the box get zero density
    (always rejected) but are still tallied as objective evaluations.
    Any proposal beating the incumbent's log density replaces the
    incumbent, accepted or not. With no incumbent yet, the best particle
    starts as one. Scoring the population afresh and the d proposals per
    particle cost 2N(1+d) evaluations.
    """
    particles = pop.particles.copy()
    objectives, log_pi = _score(particles, s, problem)
    inc = pop.incumbent if pop.incumbent is not None else _incumbent(particles, log_pi, objectives)
    inc = _sweep(particles, log_pi, inc, s, problem, sigma, rng)
    return replace(pop, particles=particles, incumbent=inc)


def run(config: PfopsConfig, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Execute the full K-step loop and return the archive and evaluation count.

    Per step, s_k is scored once, at the objective values of that step's
    single evaluation, and that score drives the incumbent, pi_k's side of
    the weight ratio and the sweep; the step's incumbent is then recorded.
    The front entries are the objective values paid for when each incumbent
    was scored, and the final dominated-member filter, when enabled, is free.

    Raises:
        InvalidConfigError: if a Tchebycheff Utopian point is not strictly
            below the problem's ideal point, when the problem states one.
    """
    z, ideal = config.utopian, problem.ideal
    if z is not None and ideal is not None and not (z[0] < ideal[0] and z[1] < ideal[1]):
        raise InvalidConfigError(
            f"Utopian point {z} must lie strictly below the ideal point {ideal} "
            f"of problem '{problem.name}'"
        )
    rng = np.random.default_rng(config.seed)
    schedule = equal_interval_schedule(config.n_targets)
    targets = [config.scalarization(lam) for lam in schedule]

    start_count = problem.counter.count
    particles = initialize(config, problem, rng).particles

    decisions = []
    front = []
    s_prev = None
    for s_k in targets:
        objectives, log_pi = _score(particles, s_k, problem)
        inc = _incumbent(particles, log_pi, objectives)
        idx = _inverse_cdf(np.exp(_raw_log_weights(log_pi, objectives, s_prev)), rng)
        particles = particles[idx]
        if config.metropolis_enabled:
            inc = _sweep(particles, log_pi[idx], inc, s_k, problem, config.sigma, rng)
        decisions.append(inc.decision)
        front.append(inc.objectives)
        s_prev = s_k

    decisions_arr = np.stack(decisions)
    front_arr = np.stack(front)
    if config.final_filter_enabled:
        keep = nondominated_mask(front_arr)
        decisions_arr = decisions_arr[keep]
        front_arr = front_arr[keep]
    archive = ParetoArchive(decisions=decisions_arr, front=front_arr)
    return archive, problem.counter.count - start_count
