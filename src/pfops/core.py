"""Particle-filter optimizer over a path-sampled sequence of scalarized targets.

One run walks the balance parameter lambda through an equally spaced schedule
from 0 to 1. At each step k the population is scored under the current target
pi_k, the best particle becomes the step's incumbent, particles are reweighted
by pi_k / pi_{k-1} (pi_0 = 1, the uniform start), multinomially resampled,
and optionally rejuvenated by a componentwise Metropolis sweep (which may also
improve the incumbent, including through rejected proposals).
Resampling draws by inverse CDF: N uniforms from ``rng.random`` looked up in
the cumulative weights, the lookup ``rng.choice(N, size=N, p=w)`` makes. The
lookup sorts the uniforms first and scatters the indices back to their
draws: the same indices from the same stream, with shorter searches.
The K recorded incumbents form the estimated Pareto set; their objective
vectors, kept from the evaluations already paid for, form the estimated front.

``run`` keeps the step on plain arrays: the particles are evaluated once per
step and scored once under pi_k, and that one score picks the incumbent, is
pi_k's side of the weight ratio and, gathered by the resampling index,
starts the sweep, which keeps it in step with every accepted move. The
gathered array is then the next step's pi_{k-1} side, so the population is
scored once under each target. This carry gives the same bits as scoring
pi_{k-1} afresh on one condition: each objective's value is a function of
the decision row alone, whatever batch the row is evaluated in (the
built-in problems' kernels work row by row). Elementwise numpy operations
keep it; BLAS-backed ones (``@``, ``np.dot``) break it in the last bits,
since BLAS may sum a row in another order in a batch of another size. A
run thus consumes exactly 2*K*N single-objective evaluations, plus 2*K*N*d
more when the Metropolis sweep is on (one (f1, f2) pair per componentwise
proposal, out-of-box proposals included). The weights take one pass per
step: the raw log weights' maximum is checked once, and the CDF is built
from exp(log w - max) and divided by its last entry, with no log-sum in
between.

An objective that is a ``problems.CoordinateSum`` (a sum of one elementwise
term per coordinate, as Kursawe's f2) need not be recomputed in full. ``run``
computes each such objective's (N, d) term matrix once, at the first step,
and carries it as it carries log pi_{k-1}: gathered by the resampling index
(with moves on or off), and rewritten at the accepted rows after each
dimension of the sweep. Each later step's evaluation adds the carried
columns, computing no term, and a proposal, which moves one coordinate, adds
its row's terms with the moved column's term computed afresh. Both add in
the same order as a full evaluation, so they give its bits when the term is
elementwise, and a term is computed once per coordinate value a particle
takes. Any other objective sees the full batch, and the counts above do not
change. Every evaluation runs the problem's one body, which ``evaluate_batch``
wraps; it picks each objective's path by ``isinstance`` at each call, since
``f1`` and ``f2`` are public, mutable fields.

The public step functions run the same kernels on a ``Population``, each
scoring its particles afresh; in them and in ``run``, ``_score`` scores every
batch and ``_incumbent`` picks every incumbent. ``importance_weights`` returns
normalized log weights, and ``resample`` turns its log weights into
``rng.choice``'s ``p`` before the shared lookup, so it keeps ``rng.choice``'s
stream; the CDF ``run`` builds may differ from that one in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateWeightsError,
    InvalidConfigError,
    InvalidInputError,
    check_instance,
    check_integer,
    check_sizable,
    is_finite_number,
    is_integer,
)
from .pareto import ParetoArchive, nondominated_mask
from .problems import BiObjectiveProblem
from .scalarize import Scalarization, ScalarizationKind, equal_interval_schedule


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


@dataclass(frozen=True)
class PfopsConfig:
    """Run settings, checked when built: a wrongly typed, out-of-range or
    non-finite field raises InvalidConfigError naming it, as in a config file.

    Attributes:
        n_targets: K, number of target densities (integer >= 2, kept as an int).
        n_particles: N, particle count (integer >= 1, kept as an int).
        sigma: Metropolis proposal standard deviation (finite, > 0, kept as a
            float), shared by all coordinates.
        metropolis_enabled: run the componentwise rejuvenation sweep (bool).
        final_filter_enabled: drop dominated members from the archive (bool).
        seed: seed for the run's random stream (integer >= 0, kept as an int).
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
        for name, minimum in (("n_targets", 2), ("n_particles", 1)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        if not is_finite_number(self.sigma):
            raise InvalidConfigError(f"sigma must be a finite number, got {self.sigma!r}")
        if self.sigma <= 0:
            raise InvalidConfigError(f"sigma must be positive, got {self.sigma!r}")
        object.__setattr__(self, "sigma", float(self.sigma))
        for name in ("metropolis_enabled", "final_filter_enabled"):
            if not isinstance(value := getattr(self, name), bool):
                raise InvalidConfigError(f"{name} must be true or false, got {value!r}")
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        # the kind and Utopian rules live in Scalarization; keep its float copy of z
        z = Scalarization(self.scalarization_kind, 0.0, self.utopian).utopian
        object.__setattr__(self, "utopian", z)

    def scalarization(self, lam: float) -> Scalarization:
        return Scalarization(self.scalarization_kind, float(lam), self.utopian)


def initialize(
    config: PfopsConfig, problem: BiObjectiveProblem, rng: np.random.Generator
) -> Population:
    """Draw N particles uniformly inside the box; weights uniform, no incumbent."""
    span = problem.upper - problem.lower
    particles = problem.lower + span * rng.random((config.n_particles, problem.dim))
    log_weights = np.full(config.n_particles, -np.log(config.n_particles))
    return Population(particles=particles, log_weights=log_weights)


def _incumbent(
    particles: np.ndarray, log_pi: np.ndarray, objectives: np.ndarray, inc: Incumbent | None = None
) -> Incumbent:
    """The batch's first best row, or ``inc`` if given and not strictly beaten."""
    j = int(log_pi.argmax())
    if inc is not None and not log_pi[j] > inc.log_density:
        return inc
    return Incumbent(particles[j].copy(), float(log_pi[j]), objectives[j].copy())


def _raw_log_weights(log_pi: np.ndarray, log_pi_prev: np.ndarray | float) -> np.ndarray:
    """The step's unnormalized log weights, log pi_k - log pi_{k-1}, shifted
    by their maximum, which must be finite, in a new array: ``run`` carries
    ``log_pi`` forward, so neither input is written. ``log_pi_prev`` is 0.0,
    the uniform start's log pi_0, at the first step, and later, in ``run``,
    each particle's pi_{k-1} score carried from the last step: the bits of
    scoring it afresh when every objective is a function of its row alone."""
    log_w = log_pi - log_pi_prev
    m = log_w.max()
    if not math.isfinite(m):  # the maximum is NaN iff some weight is
        raise DegenerateWeightsError(
            "a particle's weight is undefined (NaN): a ratio of two zero or two infinite "
            "densities, or a density at objectives of +inf and -inf" if math.isnan(m)
            else "a particle's weight is infinite: an infinite density under the current "
            "target, from an objective at -inf, or zero density under the previous one"
            if m > 0 else "every particle has zero density under the current target"
        )
    log_w -= m
    return log_w


def _inverse_cdf(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """N ancestor indices drawn by inverse CDF from N non-negative weights
    (any scale, largest > 0): ``rng.choice``'s lookup, one uniform per draw.

    The uniforms are looked up in ascending order and the indices scattered
    back to their draws: the same indices as an unsorted lookup, faster,
    since each search starts where the last one ended."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    u = rng.random(len(weights))
    order = u.argsort()
    idx = np.empty(len(u), dtype=np.intp)
    idx[order] = cdf.searchsorted(u.take(order), side="right")
    return idx


def _sweep(
    particles: np.ndarray, log_pi: np.ndarray, terms: list, inc: Incumbent,
    s: Scalarization, problem: BiObjectiveProblem, sigma: float, rng: np.random.Generator,
) -> Incumbent:
    """Sweep ``particles`` in place, keeping ``log_pi`` (their log pi under
    ``s``) and ``terms`` (each CoordinateSum objective's term matrix) in
    step; return the incumbent after the sweep."""
    n = len(particles)
    for dim in range(problem.dim):
        col = particles[:, dim]
        proposed_col = rng.standard_normal(n)
        proposed_col *= sigma
        proposed_col += col
        inside = proposed_col >= problem.lower[dim]
        inside &= proposed_col <= problem.upper[dim]
        rows = inside.nonzero()[0]

        prop_log_pi = np.full(n, -np.inf)
        if rows.size:
            batch = particles.take(rows, axis=0)
            batch[:, dim] = proposed_col.take(rows)
            batch_terms = [t.take(rows, axis=0) for t in terms]
            values, batch_log_pi, new_terms = _score(batch, s, problem, batch_terms, dim)
            prop_log_pi[rows] = batch_log_pi
            # out-of-box rows score -inf, so the batch's first maximum is the
            # first maximum over all proposals
            inc = _incumbent(batch, batch_log_pi, values, inc)
        # out-of-box proposals still consumed two objective calls each
        problem.counter.add(2 * (n - rows.size))

        # the acceptance probability min{1, pi(x') / pi(x)}, in one buffer
        ratio = prop_log_pi - log_pi
        np.minimum(ratio, 0.0, out=ratio)
        np.exp(ratio, out=ratio)
        accept = rng.random(n) < ratio
        np.copyto(col, proposed_col, where=accept)
        np.copyto(log_pi, prop_log_pi, where=accept)
        if terms and rows.size:  # an out-of-box proposal is never accepted
            took = accept.take(rows)
            for t, new in zip(terms, new_terms):
                t[rows[took], dim] = new[took]
    return inc


def _score(
    particles: np.ndarray, s: Scalarization, problem: BiObjectiveProblem,
    terms: Sequence = (), dim: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """The (n, 2) values of ``problem._evaluate_terms(particles, dim, terms)``,
    their log pi under ``s`` and its term arrays: the one scoring of a batch."""
    objectives, terms = problem._evaluate_terms(particles, dim, terms)
    return objectives, s.log_density_values(objectives), terms


def importance_weights(
    pop: Population,
    k: int,
    s_k: Scalarization,
    s_prev: Scalarization | None,
    problem: BiObjectiveProblem,
) -> Population:
    """Incremental importance weighting, normalized in log space.

    Raw weight: the ratio pi_k / pi_{k-1}, with pi_0 = 1 (the uniform
    start) when k = 1; both targets are scored at the same objective values,
    so the step costs 2N evaluations. ``run`` skips the normalization and
    draws its ancestors from the CDF of the raw weights.

    Raises:
        InvalidInputError: if ``k`` is not an integer >= 1 (a bool or a
            float is refused, a numpy integer passes), or ``s_prev`` is
            given at k = 1 or missing at k > 1.
        DegenerateWeightsError: if the raw log weights' maximum is not
            finite; its text says which case: every particle has zero
            density under pi_k, a weight is infinite, or one is NaN.
    """
    if not is_integer(k, 1):
        raise InvalidInputError(f"step index k must be an integer >= 1, got {k!r}")
    if (k == 1) != (s_prev is None):
        raise InvalidInputError("s_prev is required exactly when k > 1")
    objectives, log_pi, _ = _score(pop.particles, s_k, problem)
    log_pi_prev = 0.0 if s_prev is None else s_prev.log_density_values(objectives)
    # zero density under both targets gives -inf - -inf, the NaN the error names
    with np.errstate(invalid="ignore"):
        log_w = _raw_log_weights(log_pi, log_pi_prev)
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

    Raises:
        InvalidInputError: if ``sigma`` is not a finite number > 0 (a bool is
            not one), PfopsConfig's rule; nothing is evaluated or counted.
    """
    if not (is_finite_number(sigma) and sigma > 0):
        raise InvalidInputError(f"sigma must be a finite number > 0, got {sigma!r}")
    particles = pop.particles.copy()
    objectives, log_pi, terms = _score(particles, s, problem)
    inc = pop.incumbent or _incumbent(particles, log_pi, objectives)
    inc = _sweep(particles, log_pi, terms, inc, s, problem, sigma, rng)
    return replace(pop, particles=particles, incumbent=inc)


def run(config: PfopsConfig, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Execute the full K-step loop and return the archive and evaluation count.

    Per step, s_k is scored once, at the objective values of that step's
    single evaluation, and that score drives the incumbent, pi_k's side of
    the weight ratio and the sweep; the step's incumbent is then recorded.
    The score, resampled and kept in step by the sweep, is the next step's
    pi_{k-1} side, so the particles are not scored under pi_{k-1} again.
    Each CoordinateSum objective's term matrix is carried with it, so after
    the first step, the step's evaluation computes none of its terms.
    The front entries are the objective values paid for when each incumbent
    was scored, and the final dominated-member filter, when enabled, is free.

    Raises:
        InvalidConfigError: if ``config`` is not a PfopsConfig, if a
            Tchebycheff Utopian point is not strictly below the problem's
            ideal point, when the problem states one, or if K or N is too
            large for numpy to size the schedule or the (N, d) particle array.
        InvalidInputError: if ``problem`` is not a BiObjectiveProblem.
    """
    check_instance(InvalidConfigError, "run's config", config, PfopsConfig)
    check_instance(InvalidInputError, "run's problem", problem, BiObjectiveProblem)
    check_sizable("n_targets", config.n_targets, 1)
    check_sizable("n_particles", config.n_particles, problem.dim)
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
    log_pi_prev = 0.0  # each particle's log pi_{k-1}: the flat pi_0, then carried
    terms = []  # each CoordinateSum objective's term matrix, carried likewise
    for s_k in targets:
        objectives, log_pi, terms = _score(particles, s_k, problem, terms)
        inc = _incumbent(particles, log_pi, objectives)
        weights = _raw_log_weights(log_pi, log_pi_prev)
        idx = _inverse_cdf(np.exp(weights, out=weights), rng)
        particles = particles.take(idx, axis=0)
        log_pi_prev = log_pi.take(idx)
        terms = [t.take(idx, axis=0) for t in terms]
        if config.metropolis_enabled:
            inc = _sweep(
                particles, log_pi_prev, terms, inc, s_k, problem, config.sigma, rng
            )
        decisions.append(inc.decision)
        front.append(inc.objectives)

    decisions_arr = np.stack(decisions)
    front_arr = np.stack(front)
    if config.final_filter_enabled:
        keep = nondominated_mask(front_arr)
        decisions_arr = decisions_arr[keep]
        front_arr = front_arr[keep]
    archive = ParetoArchive(decisions=decisions_arr, front=front_arr)
    return archive, problem.counter.count - start_count
