"""Particle-filter optimizer over a path-sampled sequence of scalarized targets.

One run walks the balance parameter lambda through an equally spaced schedule
from 0 to 1. At each step k the population is scored under the current target
pi_k, the best particle becomes the step's incumbent, particles are reweighted
by pi_k / pi_{k-1} (pi_0 = 1, the uniform start), multinomially resampled,
and optionally rejuvenated by a componentwise Metropolis sweep (which may also
improve the incumbent, including through rejected proposals).
The K recorded incumbents form the estimated Pareto set; their objective
vectors, kept from the evaluations already paid for, form the estimated front.
A run consumes exactly 2*K*N single-objective evaluations, plus 2*K*N*d more
when the sweep is on (one (f1, f2) pair per componentwise proposal,
out-of-box proposals included).

``run`` scores the particles once under each target and carries that score,
resampled and kept in step by the sweep, as the next step's pi_{k-1} side.
With the sweep on, it carries each ``problems.CoordinateSum`` objective's
term matrix the same way; with the sweep off, it reuses step 1's objective
values at every later step (``_run_moves_off``). A carried value has the bits of computing
it afresh on one condition, the row-function condition: each objective's
value is a function of the decision row alone, whatever batch the row is
evaluated in. The built-in problems meet it. Elementwise numpy operations
keep it; BLAS-backed ones (``@``, ``np.dot``) break it in the last bits,
since BLAS may sum a row in another order in a batch of another size, and
so does anything that reads other rows, such as a batch mean. With the sweep
off, a noisy or batch-dependent objective is sampled once per particle.
Also with the sweep off, once resampling has kept a single step-1 particle
(path degeneracy: every particle is its copy), each later step's weights
are all exactly 1 and the rest of the run is fixed, so ``_run_moves_off``
stops stepping and finishes it from that particle's scores, with the same
archive, count, stream and errors.

The public step functions run the same kernels on a ``Population``, each
scoring its particles afresh. ``_score`` scores every batch, a step's and
each sweep dimension's alike, by the kernel ``scalarize.log_density`` on the
array the evaluation has just built and checked; ``_incumbent`` picks every
incumbent. ``importance_weights`` returns normalized log weights, and
``resample`` keeps ``rng.choice``'s stream; the CDF of raw weights that
``run`` builds may differ from that one in its last bits.
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
    as_real_array,
    check_instance,
    check_integer,
    check_sizable,
    is_finite_number,
    is_integer,
    shown,
)
from .pareto import ParetoArchive, nondominated_mask
from .problems import BiObjectiveProblem
from .scalarize import (
    Scalarization,
    ScalarizationKind,
    equal_interval_schedule,
    log_density,
    log_density_table,
)


def _check_sigma(error: type[ValueError], sigma: object) -> None:
    """PfopsConfig's and metropolis_sweep's rule for ``sigma``, each raising its own ``error``."""
    if not (is_finite_number(sigma) and sigma > 0):
        raise error(f"sigma must be a finite number > 0, got {shown(sigma)}")


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
        _check_sigma(InvalidConfigError, self.sigma)
        object.__setattr__(self, "sigma", float(self.sigma))
        for name in ("metropolis_enabled", "final_filter_enabled"):
            if not isinstance(value := getattr(self, name), bool):
                raise InvalidConfigError(f"{name} must be true or false, got {shown(value)}")
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


def _read_particles(pop: Population) -> np.ndarray:
    """``pop.particles`` read by the array rule (README, "Array inputs"):
    a float64 array, the same object if it is one already, checked to be a
    real (N, d) array with N >= 1 before the caller evaluates or draws."""
    particles = as_real_array("pop.particles", pop.particles)
    if particles.ndim != 2:
        raise InvalidInputError(
            f"pop.particles must be an (N, d) array, got shape {particles.shape}"
        )
    if not len(particles):
        raise InvalidInputError(
            f"pop.particles must hold at least one particle, got shape {particles.shape}"
        )
    return particles


def _raw_log_weights(log_pi: np.ndarray, log_pi_prev: np.ndarray | float) -> np.ndarray:
    """The step's unnormalized log weights, log pi_k - log pi_{k-1}, shifted
    by their maximum, which must be finite, in a new array: ``run`` carries
    ``log_pi`` forward, so neither input is written. ``log_pi_prev`` is 0.0,
    the uniform start's log pi_0, at the first step, and later, in ``run``,
    each particle's carried pi_{k-1} score (see the module docstring)."""
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


def _sorted_uniforms(
    rng: np.random.Generator, shape: int | tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """``rng.random(shape)`` with each row sorted ascending, and the order
    that sorts it; a (steps, N) block draws the stream of ``steps`` calls of
    ``rng.random(N)``, one row each."""
    u = rng.random(shape)
    order = u.argsort(axis=-1)
    # one row: ``take``, which does less work than ``take_along_axis``
    return (u.take(order) if u.ndim == 1 else np.take_along_axis(u, order, axis=1)), order


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, order: np.ndarray) -> np.ndarray:
    """N ancestor indices drawn by inverse CDF from ``cdf``, the cumulative
    sums of N non-negative weights (any scale, largest > 0), which it
    normalizes in place: ``rng.choice``'s lookup, one uniform per draw,
    given as ``_sorted_uniforms`` returns a row.

    The uniforms are looked up in ascending order and the indices scattered
    back to their draws: the same indices as an unsorted lookup, faster,
    since each search starts where the last one ended."""
    cdf /= cdf[-1]
    idx = np.empty(len(u), dtype=np.intp)
    idx[order] = cdf.searchsorted(u, side="right")
    return idx


def _sweep(
    particles: np.ndarray, log_pi: np.ndarray, terms: list, inc: Incumbent,
    s: Scalarization, problem: BiObjectiveProblem, sigma: float, rng: np.random.Generator,
) -> Incumbent:
    """Sweep ``particles`` in place, keeping ``log_pi`` (their log pi under
    ``s``) and ``terms`` (each CoordinateSum objective's term matrix) in
    step; return the incumbent after the sweep.

    Each dimension's proposals are scored in one batch of the in-box rows,
    scattered into full-length buffers (log pi at -inf elsewhere), and
    committed with one masked copy per array. An out-of-box proposal scores
    -inf and is never accepted, so no buffer entry outside the batch is read."""
    n = len(particles)
    lower, upper = problem.lower.tolist(), problem.upper.tolist()
    prop_log_pi = np.empty(n)
    prop_terms = [np.empty(n) for _ in terms]
    for dim in range(problem.dim):
        col = particles[:, dim]
        proposed_col = rng.standard_normal(n)
        proposed_col *= sigma
        proposed_col += col
        inside = proposed_col >= lower[dim]
        inside &= proposed_col <= upper[dim]
        rows = inside.nonzero()[0]

        prop_log_pi.fill(-np.inf)
        if rows.size:
            batch = particles.take(rows, axis=0)
            batch[:, dim] = proposed_col.take(rows)
            batch_terms = [t.take(rows, axis=0) for t in terms]
            values, batch_log_pi, new_terms = _score(batch, s, problem, batch_terms, dim)
            prop_log_pi[rows] = batch_log_pi
            for buf, new in zip(prop_terms, new_terms):
                buf[rows] = new
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
        for t, buf in zip(terms, prop_terms):
            np.copyto(t[:, dim], buf, where=accept)
    return inc


def _score(
    particles: np.ndarray, s: Scalarization, problem: BiObjectiveProblem,
    terms: Sequence = (), dim: int | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """The (n, 2) values of ``problem._evaluate_terms(particles, dim, terms)``,
    their log pi under ``s`` and its term arrays: the one scoring of a
    batch. The log pi is ``scalarize.log_density``'s, computed on the float
    (n, 2) array the evaluation has just built and checked, so it is not
    read again."""
    objectives, terms = problem._evaluate_terms(particles, dim, terms)
    return objectives, log_density(objectives, s.lam, s.kind, s.utopian), terms


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
    so the step costs 2N evaluations.

    Raises:
        InvalidInputError: if ``k`` is not an integer >= 1 (a bool or a
            float is refused, a numpy integer passes), ``s_prev`` is given
            at k = 1 or missing at k > 1, or ``pop.particles`` is not a real
            (N, d) array with N >= 1 (an empty population is refused);
            nothing is evaluated or counted.
        DegenerateWeightsError: if the raw log weights' maximum is not
            finite; its text says which case: every particle has zero
            density under pi_k, a weight is infinite, or one is NaN.
    """
    if not is_integer(k, 1):
        raise InvalidInputError(f"step index k must be an integer >= 1, got {shown(k)}")
    if (k == 1) != (s_prev is None):
        raise InvalidInputError("s_prev is required exactly when k > 1")
    objectives, log_pi, _ = _score(_read_particles(pop), s_k, problem)
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
    call's validation of ``p``. Resampling costs 0 evaluations. The
    particles and the log weights are read by the array rule (README, "Array
    inputs"), so an integer array or a nested list resamples as its float64
    copy does.

    Raises:
        InvalidInputError: if ``pop.particles`` is not a real (N, d) array
            with N >= 1 (an empty population is refused), if
            ``pop.log_weights`` is not real numbers, if there is not one log
            weight per particle, or if their maximum is not finite (a NaN, a
            +inf, or all -inf); nothing is drawn.
    """
    particles = _read_particles(pop)
    n = len(particles)
    log_weights = as_real_array("pop.log_weights", pop.log_weights)
    if log_weights.shape != (n,):
        raise InvalidInputError(
            f"pop.log_weights must hold one log weight per particle ({n}), "
            f"got shape {log_weights.shape}"
        )
    m = log_weights.max()
    if not math.isfinite(m):
        raise InvalidInputError(f"pop.log_weights must have a finite maximum log weight, got {m}")
    p = np.exp(log_weights - m)
    p /= p.sum()
    idx = _inverse_cdf(p.cumsum(), *_sorted_uniforms(rng, n))
    return Population(particles.take(idx, axis=0), np.full(n, -np.log(n)), pop.incumbent)


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

    The particles are read by the array rule (README, "Array inputs") into
    a float copy, so an integer array or a nested list sweeps as its float64
    copy does.

    Raises:
        InvalidInputError: if ``sigma`` is not a finite number > 0 (a bool is
            not one), PfopsConfig's rule, or if ``pop.particles`` is not a
            real (N, d) array with N >= 1 (an empty population is refused),
            or if ``pop.incumbent`` is neither None nor an Incumbent;
            nothing is evaluated, counted or drawn.
    """
    _check_sigma(InvalidInputError, sigma)
    if not (pop.incumbent is None or isinstance(pop.incumbent, Incumbent)):
        raise InvalidInputError(
            f"pop.incumbent must be None or an Incumbent, got {shown(pop.incumbent)}"
        )
    particles = _read_particles(pop).copy()
    objectives, log_pi, terms = _score(particles, s, problem)
    inc = pop.incumbent
    if inc is None:
        inc = _incumbent(particles, log_pi, objectives)
    inc = _sweep(particles, log_pi, terms, inc, s, problem, sigma, rng)
    return replace(pop, particles=particles, incumbent=inc)


def run(config: PfopsConfig, problem: BiObjectiveProblem) -> tuple[ParetoArchive, int]:
    """Execute the full K-step loop and return the archive and evaluation count.

    Per step, s_k is scored once, and that score drives the incumbent,
    pi_k's side of the weight ratio and the sweep, and is carried as the
    next step's pi_{k-1} side (the module docstring states when that keeps
    the bits). The count is 2*K*N, plus 2*K*N*d with the sweep on.
    The front entries are the objective values paid for when each incumbent
    was scored, and the final dominated-member filter, when enabled, is free.

    Raises:
        InvalidConfigError: if ``config`` is not a PfopsConfig, if a
            Tchebycheff Utopian point is not strictly below the problem's
            ideal point, when the problem states one, or if K or N is too
            large for numpy to size the schedule or the (N, d) particle array.
        InvalidInputError: if ``problem`` is not a BiObjectiveProblem, or
            as ``problem.evaluate_batch`` raises it.
        DegenerateWeightsError: if a step's raw log weights have no finite
            maximum.
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
    start_count = problem.counter.count
    particles = initialize(config, problem, rng).particles
    if config.metropolis_enabled:
        decisions, front = _run_moves_on(config, schedule, particles, problem, rng)
    else:
        decisions, front = _run_moves_off(config, schedule, particles, problem, rng)
    if config.final_filter_enabled:
        keep = nondominated_mask(front)
        decisions = decisions[keep]
        front = front[keep]
    archive = ParetoArchive(decisions=decisions, front=front)
    return archive, problem.counter.count - start_count


def _run_moves_on(
    config: PfopsConfig, schedule: np.ndarray, particles: np.ndarray,
    problem: BiObjectiveProblem, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``run``'s K steps with the sweep on: the (K, d) incumbents and their
    (K, 2) objective values."""
    decisions = []
    front = []
    log_pi_prev = 0.0  # each particle's log pi_{k-1}: the flat pi_0, then carried
    terms = []  # each CoordinateSum objective's term matrix, carried likewise
    for lam in schedule:
        s_k = config.scalarization(lam)
        objectives, log_pi, terms = _score(particles, s_k, problem, terms)
        inc = _incumbent(particles, log_pi, objectives)
        weights = _raw_log_weights(log_pi, log_pi_prev)
        idx = _inverse_cdf(
            np.exp(weights, out=weights).cumsum(), *_sorted_uniforms(rng, len(particles))
        )
        particles = particles.take(idx, axis=0)
        log_pi_prev = log_pi.take(idx)
        terms = [t.take(idx, axis=0) for t in terms]
        inc = _sweep(particles, log_pi_prev, terms, inc, s_k, problem, config.sigma, rng)
        decisions.append(inc.decision)
        front.append(inc.objectives)
    return np.stack(decisions), np.stack(front)


# score-table entries (and uniforms) built at once by ``_run_moves_off``: a
# block of steps holds about this many, and at least one step
_BLOCK_ENTRIES = 1 << 16


def _run_moves_off(
    config: PfopsConfig, schedule: np.ndarray, particles: np.ndarray,
    problem: BiObjectiveProblem, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """``run``'s K steps with the sweep off, on ancestor indices.

    Every particle after step 1 is a resampled copy of a step-1 one, so only
    step 1 computes objectives. The population is ``anc``, each particle's
    step-1 index, and a step's log pi is its row of a score table of step 1's
    values (``scalarize.log_density_table``: a row per target, with the bits
    of that target's ``log_density_values``), gathered by ``anc``. The table
    and the steps' sorted uniforms, from one ``rng.random((steps, N))`` call
    (the stream of that many ``rng.random(N)`` calls), are built a block of
    steps at a time, about ``_BLOCK_ENTRIES`` entries and at least one step
    each, so memory stays O(N + K). Each step after the first charges its 2N
    evaluations before weighting, without computing them, as the sweep
    charges out-of-box proposals. The incumbents are recorded as step-1
    indices and gathered once at the end.

    Once resampling has kept one step-1 index ``a`` alone (``lone``: path
    degeneracy), the steps left are finished in whole arrays on column ``a``
    of each block's table (``_one_ancestor_steps``). This is exact: every
    later step's raw log weights are one number, ``table[k, a] -
    table[k-1, a]``; shifted by their maximum they are exactly 0, so each
    weight is exp(0) = 1 and resampling keeps ``a`` again, whatever the
    uniforms. The rest of the run is thus fixed: each incumbent is ``a``,
    and the first step whose raw weight is not finite, if any, raises the
    per-step loop's DegenerateWeightsError, charged through that step. Each
    skipped step is still charged 2N and still draws its N uniforms, in its
    block's ``rng.random((steps, N))`` call (left unsorted when the block
    steps none), so the count and the stream are unchanged; each block still
    builds its table. For a skipped step k, ESS is N, the distinct ancestors
    are 1 and the incumbent's log pi is ``table[k, a]``, so a per-step trace
    can fill those columns without the loop. The state is screened for
    free, by every weight being exactly 1 (their cumulative sum then ends
    at exactly N), and confirmed by ``anc``, so it is found at most one step
    after the resampling that kept ``a`` alone (at that step when N = 1).
    """
    n = len(particles)
    objectives, _ = problem._evaluate_terms(particles)
    anc = np.arange(n)
    picks = np.empty(len(schedule), dtype=np.intp)  # each step's incumbent, by step-1 index
    log_pi_prev = 0.0
    lone = -1  # the one step-1 index resampling has kept, once it keeps no other
    steps = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, len(schedule), steps):
        lams = schedule[start:start + steps]
        # the table also scores step-1 particles that resampling has dropped.
        # Its one NaN, a weighted sum of +inf and -inf, is such a particle's:
        # step 1 (lambda = 0) scores it -inf, so it is never drawn, or +inf,
        # which stops the run there, so the NaN never reaches a weight
        with np.errstate(invalid="ignore"):
            table = log_density_table(
                objectives, lams, config.scalarization_kind, config.utopian
            )
        stepped = 0  # the block's steps stepped one by one; if lone >= 0, the rest are skipped
        if lone < 0:
            uniforms, orders = _sorted_uniforms(rng, (len(lams), n))
            for k in range(len(lams)):
                if start + k:  # charged, not computed
                    problem.counter.add(2 * n)
                log_pi = table[k].take(anc)
                picks[start + k] = anc[log_pi.argmax()]
                weights = _raw_log_weights(log_pi, log_pi_prev)
                cdf = np.exp(weights, out=weights).cumsum()
                every_weight_one = cdf[-1] == n
                idx = _inverse_cdf(cdf, uniforms[k], orders[k])
                anc = anc.take(idx)
                log_pi_prev = log_pi.take(idx)
                if every_weight_one and (anc == anc[0]).all():
                    lone, log_pi_prev = int(anc[0]), log_pi_prev[0]
                    break
            stepped = k + 1
        else:
            rng.random((len(lams), n))  # each skipped step still draws its N uniforms
        if lone >= 0 and stepped < len(lams):
            _one_ancestor_steps(table[stepped:, lone], log_pi_prev, n, problem)
            picks[start + stepped:start + len(lams)] = lone
            log_pi_prev = table[-1, lone]
    return particles.take(picks, axis=0), objectives.take(picks, axis=0)


def _one_ancestor_steps(
    log_pi: np.ndarray, log_pi_prev: float, n: int, problem: BiObjectiveProblem
) -> None:
    """The steps ``_run_moves_off`` skips once every particle descends from
    one step-1 one, whose log pi at those steps is ``log_pi``, after
    ``log_pi_prev``: charge each 2N, as the per-step loop does, or raise its
    DegenerateWeightsError at the first step whose raw weight is not finite,
    charged through that step."""
    prev = np.concatenate(([log_pi_prev], log_pi[:-1]))
    with np.errstate(all="ignore"):  # steps after a raising one are never reached
        finite = np.isfinite(log_pi - prev)
    if finite.all():
        problem.counter.add(2 * n * len(log_pi))
        return
    j = int(finite.argmin())
    problem.counter.add(2 * n * (j + 1))
    # the raising step's weights, one entry of the n equal ones: the same
    # error text, and the same floating-point warnings
    _raw_log_weights(log_pi[j:j + 1], prev[j:j + 1])
