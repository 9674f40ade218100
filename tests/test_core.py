from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from pfops.core import (
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
from pfops.errors import DegenerateWeightsError, InvalidConfigError, InvalidInputError
from pfops.experiments import PRESETS
from pfops.pareto import nondominated_mask
from pfops.problems import BiObjectiveProblem, convex_problem, kursawe_problem, lookup_problem
from pfops.scalarize import (
    ScalarizationKind,
    equal_interval_schedule,
    tchebycheff,
    weighted_sum,
)


def line_problem(length=20.0):
    """1-D problem with f1(x) = x, f2 = 0: density exp(-x) under lambda=0."""
    half = length / 2
    return BiObjectiveProblem(
        name="line",
        dim=1,
        lower=np.array([-half]),
        upper=np.array([half]),
        f1=lambda x: x[:, 0].copy(),
        f2=lambda x: np.zeros(len(x)),
    )


def gaussian_problem():
    """1-D problem whose lambda=0 target is a standard normal on [-10, 10]."""
    return BiObjectiveProblem(
        name="gauss1d",
        dim=1,
        lower=np.array([-10.0]),
        upper=np.array([10.0]),
        f1=lambda x: 0.5 * x[:, 0] ** 2,
        f2=lambda x: np.zeros(len(x)),
    )


def flat_problem(f1_value):
    return BiObjectiveProblem(
        name="flat",
        dim=1,
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        f1=lambda x: np.full(len(x), f1_value),
        f2=lambda x: np.zeros(len(x)),
    )


def make_population(particles):
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    n = len(particles)
    return Population(particles=particles, log_weights=np.full(n, -np.log(n)))


class TestConfig:
    def test_validation(self):
        PfopsConfig(n_targets=2, n_particles=1)
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=1, n_particles=5)
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=0)
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=5, sigma=0.0)
        with pytest.raises(InvalidConfigError):
            PfopsConfig(
                n_targets=3, n_particles=5,
                scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
            )
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=5, utopian=(0.0, 0.0))

    @pytest.mark.parametrize(
        "build, field",
        [
            # each of these used to build, and run or fail later with another message
            (partial(PfopsConfig, 3, 2, metropolis_enabled="false"), "metropolis_enabled"),
            (partial(PfopsConfig, 3, 2, final_filter_enabled=1), "final_filter_enabled"),
            (partial(PfopsConfig, 3, 2, sigma=True), "sigma"),
            (partial(PfopsConfig, 3, 2, sigma="1"), "sigma"),
            (partial(PfopsConfig, 3, 2, sigma=float("inf")), "sigma"),
            (
                partial(PfopsConfig, 3, 2, scalarization_kind="tchebycheff", utopian=(-1, -1)),
                "scalarization_kind",
            ),
            (
                partial(PfopsConfig, 3, 2, scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
                        utopian=(float("nan"), 0.0)),
                "utopian",
            ),
            (
                partial(PfopsConfig, 3, 2, scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
                        utopian=(-1.0, -1.0, -1.0)),
                "utopian",
            ),
            (partial(replace, PfopsConfig(3, 2), n_targets=1), "n_targets"),
        ],
        ids=[
            "switch-string", "switch-int", "sigma-bool", "sigma-string", "sigma-inf",
            "kind-string", "utopian-nan", "utopian-three", "replace-n_targets",
        ],
    )
    def test_library_input_names_the_field(self, build, field):
        with pytest.raises(InvalidConfigError, match=field):
            build()

    def test_numbers_stored_as_floats(self):
        cfg = PfopsConfig(
            3, 2, sigma=2, scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
            utopian=[-1, np.float32(-2)],
        )
        assert cfg.utopian == (-1.0, -2.0)
        assert all(type(v) is float for v in (cfg.sigma, *cfg.utopian))


class TestInitialize:
    def test_single_particle_in_bounds(self):
        prob = BiObjectiveProblem(
            name="unit", dim=2,
            lower=np.zeros(2), upper=np.ones(2),
            f1=lambda x: x[:, 0], f2=lambda x: x[:, 1],
        )
        pop = initialize(PfopsConfig(2, 1), prob, np.random.default_rng(0))
        assert pop.particles.shape == (1, 2)
        assert np.all((prob.lower <= pop.particles) & (pop.particles <= prob.upper))
        assert pop.incumbent is None

    def test_uniform_coverage(self):
        # CLT: per-coordinate mean of Unif(-5, 10) is 2.5 +- 3 * 4.33/sqrt(n)
        pop = initialize(PfopsConfig(2, 10000), convex_problem(), np.random.default_rng(1))
        assert np.all(np.abs(pop.particles.mean(axis=0) - 2.5) < 0.15)
        assert np.allclose(np.exp(pop.log_weights).sum(), 1.0)

    def test_deterministic(self):
        cfg = PfopsConfig(2, 50)
        a = initialize(cfg, convex_problem(), np.random.default_rng(42))
        b = initialize(cfg, convex_problem(), np.random.default_rng(42))
        np.testing.assert_array_equal(a.particles, b.particles)


class TestUpdateIncumbent:
    def test_lambda0_prefers_f1_minimum(self):
        pop = make_population([[0.0, 0.0], [5.0, 5.0]])
        pop = update_incumbent(pop, weighted_sum(0.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [0.0, 0.0])
        assert pop.incumbent.log_density == 0.0

    def test_lambda1_prefers_f2_minimum(self):
        pop = make_population([[0.0, 0.0], [5.0, 5.0]])
        pop = update_incumbent(pop, weighted_sum(1.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [5.0, 5.0])

    def test_single_particle(self):
        pop = make_population([[1.0, 2.0]])
        pop = update_incumbent(pop, weighted_sum(0.5), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [1.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        # f2(3,4) == f2(4,3) == 5, a tie; the earlier particle must win
        pop = make_population([[3.0, 4.0], [4.0, 3.0]])
        pop = update_incumbent(pop, weighted_sum(1.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [3.0, 4.0])

    def test_incumbent_objectives_cached(self):
        pop = make_population([[2.5, 2.5]])
        pop = update_incumbent(pop, weighted_sum(0.5), convex_problem())
        np.testing.assert_allclose(pop.incumbent.objectives, [12.5, 12.5])


class TestImportanceWeights:
    def test_first_step_hand_values(self):
        # particles at x = 0 and x = ln 3 give log pi = {0, -ln 3} at lambda 0
        prob = line_problem()
        pop = make_population([[0.0], [np.log(3.0)]])
        pop = importance_weights(pop, 1, weighted_sum(0.0), None, prob)
        np.testing.assert_allclose(np.exp(pop.log_weights), [0.75, 0.25])

    def test_unchanged_lambda_gives_uniform(self):
        prob = convex_problem()
        rng = np.random.default_rng(2)
        pop = make_population(rng.uniform(-5, 10, size=(8, 2)))
        s = weighted_sum(0.4)
        pop = importance_weights(pop, 2, s, s, prob)
        np.testing.assert_array_equal(pop.log_weights, np.full(8, -np.log(8)))

    def test_single_particle_gets_weight_one(self):
        pop = make_population([[9.0, 9.0]])
        pop = importance_weights(pop, 1, weighted_sum(0.5), None, convex_problem())
        assert pop.log_weights[0] == 0.0

    def test_degenerate_weights_error(self):
        pop = make_population([[0.5], [0.6]])
        with pytest.raises(DegenerateWeightsError):
            importance_weights(pop, 1, weighted_sum(0.0), None, flat_problem(np.inf))

    def test_step_contract(self):
        pop = make_population([[0.0, 0.0]])
        s = weighted_sum(0.5)
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 0, s, None, convex_problem())
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 2, s, None, convex_problem())
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 1, s, s, convex_problem())

    def test_normalization_over_random_populations(self):
        prob = convex_problem()
        rng = np.random.default_rng(3)
        s2 = weighted_sum(0.7)
        s1 = weighted_sum(0.3)
        for i in range(1000):
            n = int(rng.integers(1, 33))
            pop = make_population(rng.uniform(-5, 10, size=(n, 2)))
            k = 1 if i % 2 == 0 else 2
            out = importance_weights(pop, k, s2, None if k == 1 else s1, prob)
            assert abs(np.exp(out.log_weights).sum() - 1.0) < 1e-9


class TestResample:
    def test_degenerate_weights_copy_single_parent(self):
        pop = make_population([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pop.log_weights = np.array([0.0, -np.inf, -np.inf])
        out = resample(pop, np.random.default_rng(4))
        assert np.all(out.particles == [1.0, 1.0])
        np.testing.assert_array_equal(out.log_weights, np.full(3, -np.log(3)))

    def test_uniform_weights_frequencies(self):
        # 4 distinct parents tiled to N=10000; binomial 4 sigma ~ 173 < 200
        parents = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        pop = make_population(np.tile(parents, (2500, 1)))
        out = resample(pop, np.random.default_rng(5))
        for v in range(4):
            count = int((out.particles[:, 0] == float(v)).sum())
            assert abs(count - 2500) < 200

    def test_deterministic(self):
        rng_pop = np.random.default_rng(6)
        pop = make_population(rng_pop.uniform(-5, 10, size=(64, 2)))
        pop.log_weights = np.log(np.random.default_rng(7).dirichlet(np.ones(64)))
        a = resample(pop, np.random.default_rng(8))
        b = resample(pop, np.random.default_rng(8))
        np.testing.assert_array_equal(a.particles, b.particles)

    def test_same_draw_as_rng_choice(self):
        # random N and weights, zero weights included: the same indices and the
        # same generator state afterwards as rng.choice with p
        cases = np.random.default_rng(20)
        for case in range(400):
            n = int(cases.integers(1, 601))
            log_w = cases.normal(0.0, float(cases.choice([0.1, 1.0, 30.0])), n)
            if case % 5 == 0:
                log_w[cases.random(n) < 0.5] = -np.inf
                log_w[cases.integers(n)] = 0.0
            pop = Population(particles=np.arange(float(n))[:, None], log_weights=log_w)
            rng_new, rng_ref = np.random.default_rng(case), np.random.default_rng(case)
            idx = resample(pop, rng_new).particles[:, 0].astype(int)
            probs = np.exp(log_w - log_w.max())
            probs /= probs.sum()
            ref = rng_ref.choice(n, size=n, replace=True, p=probs)
            np.testing.assert_array_equal(idx, ref)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize(
        "log_weights",
        [[0.0, np.nan, 0.0], [-np.inf, -np.inf, -np.inf], [0.0, np.inf, 0.0], [0.0, 0.0]],
    )
    def test_bad_log_weights_rejected(self, log_weights):
        pop = Population(particles=np.zeros((3, 1)), log_weights=np.array(log_weights))
        with pytest.raises(InvalidInputError, match="log weight"):
            resample(pop, np.random.default_rng(0))


def reference_metropolis_sweep(pop, s, problem, sigma, rng):
    """The sweep as first written, kept as the oracle of the faster one: it
    copies every particle for each dimension's proposals and gathers the
    in-box rows of that copy."""
    particles = pop.particles.copy()
    objectives = problem.evaluate_batch(pop.particles)
    log_pi = np.asarray(s.log_density_values(objectives), dtype=float)
    n = len(particles)

    if pop.incumbent is not None:
        inc = pop.incumbent
    else:
        j = int(np.argmax(log_pi))
        inc = Incumbent(particles[j].copy(), float(log_pi[j]), objectives[j].copy())

    for dim in range(problem.dim):
        proposed_col = particles[:, dim] + sigma * rng.standard_normal(n)
        inside = (proposed_col >= problem.lower[dim]) & (proposed_col <= problem.upper[dim])
        proposals = particles.copy()
        proposals[:, dim] = proposed_col

        prop_obj = np.full((n, 2), np.nan)
        prop_log_pi = np.full(n, -np.inf)
        if inside.any():
            prop_obj[inside] = problem.evaluate_batch(proposals[inside])
            prop_log_pi[inside] = np.asarray(
                s.log_density_values(prop_obj[inside]), dtype=float
            )
        problem.counter.add(2 * int(np.count_nonzero(~inside)))

        best = int(np.argmax(prop_log_pi))
        if prop_log_pi[best] > inc.log_density:
            inc = Incumbent(
                proposals[best].copy(), float(prop_log_pi[best]), prop_obj[best].copy()
            )

        accept = rng.random(n) < np.exp(np.minimum(prop_log_pi - log_pi, 0.0))
        particles[accept, dim] = proposed_col[accept]
        log_pi[accept] = prop_log_pi[accept]

    return replace(pop, particles=particles, incumbent=inc)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestMetropolisSweep:
    @pytest.mark.parametrize("make_problem", [convex_problem, kursawe_problem])
    @pytest.mark.parametrize("sigma", [1e-12, 1.0, 100.0])
    @pytest.mark.parametrize("with_incumbent", [False, True])
    def test_bit_identical_to_reference_sweep(self, make_problem, sigma, with_incumbent):
        for seed in range(6):
            setup = np.random.default_rng(seed)
            n = int(setup.integers(1, 120))
            lam = setup.random()
            s = weighted_sum(lam) if seed % 2 else tchebycheff(lam, (-30.0, -30.0))
            sides = []
            for sweep in (metropolis_sweep, reference_metropolis_sweep):
                prob = make_problem()
                pop = initialize(PfopsConfig(2, n, seed=seed), prob, np.random.default_rng(seed))
                if with_incumbent:
                    pop = update_incumbent(pop, s, prob)
                before = pop.particles.copy()
                start = prob.counter.count
                rng = np.random.default_rng(1000 + seed)
                out = sweep(pop, s, prob, sigma, rng)
                assert_same_bits(pop.particles, before)  # the input is not mutated
                sides.append((out, prob.counter.count - start, rng.bit_generator.state))
            (new, new_evals, new_state), (ref, ref_evals, ref_state) = sides
            assert_same_bits(new.particles, ref.particles)
            assert_same_bits(new.incumbent.decision, ref.incumbent.decision)
            assert_same_bits(new.incumbent.objectives, ref.incumbent.objectives)
            assert new.incumbent.log_density == ref.incumbent.log_density
            assert new_evals == ref_evals == 2 * n * (prob.dim + 1)
            assert new_state == ref_state

    def test_no_proposal_in_box(self):
        # sigma 1e9 on a box 15 wide: every proposal leaves it, so only the
        # population is evaluated, every proposal is still counted and nothing moves
        sides = []
        for sweep in (metropolis_sweep, reference_metropolis_sweep):
            prob = convex_problem()
            pop = initialize(PfopsConfig(2, 40), prob, np.random.default_rng(3))
            pop = update_incumbent(pop, weighted_sum(0.5), prob)
            batches = []

            def counting(points, evaluate_batch=prob.evaluate_batch):
                batches.append(len(points))
                return evaluate_batch(points)

            prob.evaluate_batch = counting
            start = prob.counter.count
            rng = np.random.default_rng(4)
            out = sweep(pop, weighted_sum(0.5), prob, 1e9, rng)
            assert batches == [40]
            assert prob.counter.count - start == 2 * 40 * 3
            assert_same_bits(out.particles, pop.particles)
            assert out.incumbent is pop.incumbent
            sides.append((out, rng.bit_generator.state))
        (new, new_state), (ref, ref_state) = sides
        assert new_state == ref_state

    def test_vanishing_sigma_accepts_everything(self):
        prob = convex_problem()
        rng = np.random.default_rng(10)
        pop = make_population(rng.uniform(-4.9, 9.9, size=(200, 2)))
        out = metropolis_sweep(pop, weighted_sum(0.5), prob, sigma=1e-12, rng=np.random.default_rng(11))
        np.testing.assert_allclose(out.particles, pop.particles, atol=1e-9)
        # ratio ~ 1 so essentially every proposal is accepted: coordinates moved
        assert (out.particles != pop.particles).mean() > 0.99

    def test_improving_proposals_always_accepted(self):
        # replay the generator: proposals that increase log pi must all be taken
        prob = line_problem()
        rng_pop = np.random.default_rng(12)
        particles = rng_pop.uniform(-9, 9, size=(500, 1))
        pop = make_population(particles)
        seed = 13
        out = metropolis_sweep(pop, weighted_sum(0.0), prob, 0.5, np.random.default_rng(seed))
        replay = np.random.default_rng(seed)
        proposed = particles[:, 0] + 0.5 * replay.standard_normal(500)
        improving = (proposed < particles[:, 0]) & (proposed >= -10.0)
        np.testing.assert_array_equal(out.particles[improving, 0], proposed[improving])

    def test_out_of_box_proposals_rejected_but_counted(self):
        prob = convex_problem()
        rng = np.random.default_rng(14)
        pop = make_population(rng.uniform(-5, 10, size=(300, 2)))
        pop = update_incumbent(pop, weighted_sum(0.5), prob)
        before = prob.counter.count
        out = metropolis_sweep(pop, weighted_sum(0.5), prob, sigma=100.0, rng=rng)
        # huge sigma: nearly all proposals leave the box yet each costs 2 calls,
        # on top of the 2 per particle of scoring the population
        assert prob.counter.count - before == 2 * 300 * 3
        inside = np.all(out.particles >= prob.lower, axis=1) & np.all(out.particles <= prob.upper, axis=1)
        assert inside.all()

    def test_tied_best_proposals_first_wins(self):
        # log pi is 0 on (0, 1] and -1 elsewhere in the box; every particle
        # starts at -0.5, so each in-box proposal above 0 ties for the best
        prob = BiObjectiveProblem(
            name="step", dim=1, lower=np.array([-1.0]), upper=np.array([1.0]),
            f1=lambda x: np.where(x[:, 0] > 0.0, 0.0, 1.0),
            f2=lambda x: np.zeros(len(x)),
        )
        pop = update_incumbent(make_population(np.full((20, 1), -0.5)), weighted_sum(0.0), prob)
        assert pop.incumbent.log_density == -1.0
        seed = 4
        out = metropolis_sweep(pop, weighted_sum(0.0), prob, 1.0, np.random.default_rng(seed))
        proposed = -0.5 + np.random.default_rng(seed).standard_normal(20)
        best = np.flatnonzero((proposed > 0.0) & (proposed <= 1.0))
        assert len(best) >= 2 and (np.abs(proposed) > 1.0).any()  # a tie, out-of-box rows
        assert out.incumbent.decision.tolist() == [proposed[best[0]]]
        assert out.incumbent.log_density == 0.0
        assert out.incumbent.objectives.tolist() == [0.0, 0.0]

    def test_incumbent_log_density_never_decreases(self):
        prob = convex_problem()
        rng = np.random.default_rng(15)
        pop = make_population(rng.uniform(-5, 10, size=(50, 2)))
        s = weighted_sum(0.3)
        pop = update_incumbent(pop, s, prob)
        history = [pop.incumbent.log_density]
        for _ in range(20):
            pop = metropolis_sweep(pop, s, prob, 1.0, rng)
            history.append(pop.incumbent.log_density)
        assert np.all(np.diff(history) >= 0.0)

    def test_stationary_distribution_1d(self):
        # uniform start, 200 sweeps at sigma 1: should match a standard normal
        prob = gaussian_problem()
        rng = np.random.default_rng(1)
        pop = make_population(rng.uniform(-10, 10, size=(2000, 1)))
        s = weighted_sum(0.0)
        for _ in range(200):
            pop = metropolis_sweep(pop, s, prob, 1.0, rng)
        x = pop.particles[:, 0]
        assert abs(x.mean()) < 0.1
        assert abs(x.var() - 1.0) < 0.15
        edges = np.concatenate([[-10.0], np.linspace(-2.5, 2.5, 11), [10.0]])
        observed, _ = np.histogram(x, bins=edges)
        cdf = norm.cdf(edges)
        expected = 2000.0 * np.diff(cdf) / (cdf[-1] - cdf[0])
        assert chisquare(observed, expected).pvalue > 0.01


def chain_run(config, problem, rng):
    """``run`` spelled as the chain of public step functions."""
    targets = [config.scalarization(lam) for lam in equal_interval_schedule(config.n_targets)]
    pop = initialize(config, problem, rng)
    decisions, front = [], []
    for k, s_k in enumerate(targets, start=1):
        pop = update_incumbent(pop, s_k, problem)
        pop = importance_weights(pop, k, s_k, targets[k - 2] if k > 1 else None, problem)
        pop = resample(pop, rng)
        if config.metropolis_enabled:
            pop = metropolis_sweep(pop, s_k, problem, config.sigma, rng)
        decisions.append(pop.incumbent.decision)
        front.append(pop.incumbent.objectives)
    decisions, front = np.stack(decisions), np.stack(front)
    keep = nondominated_mask(front) if config.final_filter_enabled else slice(None)
    return ParetoArchive(decisions=decisions[keep], front=front[keep])


def reference_step_log_weights(log_pi, objectives, s_prev):
    """The weighting step as ``run`` first had it: the raw log weights
    normalized in log space (max, exp, sum, log)."""
    log_w = log_pi if s_prev is None else log_pi - s_prev.log_density_values(objectives)
    m = log_w.max()
    if not np.isfinite(m):
        raise DegenerateWeightsError("every particle has zero density under the current target")
    shifted = log_w - m
    shifted -= np.log(np.exp(shifted).sum())
    return shifted


def reference_resample_index(log_weights, n, rng):
    """The resampling draw as ``run`` first had it: the normalized log weights
    turned into probabilities again (max, exp, sum, divide), then their CDF."""
    probs = np.exp(log_weights - log_weights.max())
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


def reference_run(config, problem):
    """``run`` with the two-pass weight step above, kept as the oracle of its
    one-pass inverse CDF."""
    rng = np.random.default_rng(config.seed)
    particles = initialize(config, problem, rng).particles
    decisions, front = [], []
    s_prev = None
    for lam in equal_interval_schedule(config.n_targets):
        s_k = config.scalarization(lam)
        objectives = problem.evaluate_batch(particles)
        log_pi = s_k.log_density_values(objectives)
        j = int(np.argmax(log_pi))
        inc = Incumbent(particles[j].copy(), float(log_pi[j]), objectives[j].copy())
        log_w = reference_step_log_weights(log_pi, objectives, s_prev)
        pop = make_population(particles[reference_resample_index(log_w, len(particles), rng)])
        pop.incumbent = inc
        if config.metropolis_enabled:
            pop = metropolis_sweep(pop, s_k, problem, config.sigma, rng)
        particles = pop.particles
        decisions.append(pop.incumbent.decision)
        front.append(pop.incumbent.objectives)
        s_prev = s_k
    decisions, front = np.stack(decisions), np.stack(front)
    keep = nondominated_mask(front) if config.final_filter_enabled else slice(None)
    return ParetoArchive(decisions=decisions[keep], front=front[keep])


class TestRun:
    @pytest.mark.parametrize("make_problem", [convex_problem, kursawe_problem])
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("moves", [False, True])
    def test_equals_chain_of_step_functions(self, monkeypatch, make_problem, kind, moves):
        # run scores each target once where the chain scores it afresh in every
        # step function, so the counts differ; the archive and stream must not
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        default_rng = np.random.default_rng
        made = []  # the generators run builds

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        for seed in (0, 1, 7):
            cfg = PfopsConfig(
                n_targets=5, n_particles=12, sigma=0.5, metropolis_enabled=moves,
                final_filter_enabled=seed != 1, seed=seed, scalarization_kind=kind,
                utopian=utopian,
            )
            made.clear()
            archive, _ = run(cfg, make_problem())
            rng = default_rng(seed)
            expected = chain_run(cfg, make_problem(), rng)
            assert len(made) == 1
            assert_same_bits(archive.decisions, expected.decisions)
            assert_same_bits(archive.front, expected.front)
            assert made[0].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize(
        "preset, seeds, moves",
        [
            ("pfops-convex-under", range(200), False),
            ("pfops-convex-sufficient", range(10), False),
            ("pfops-convex-under", range(20), True),
            ("pfops-convex-sufficient", range(2), True),
        ],
    )
    def test_equals_two_pass_weight_step(self, monkeypatch, preset, seeds, moves):
        # run draws from the CDF of its raw weights; the seeded archives and
        # the stream must match the normalize-then-renormalize chain bit for bit
        default_rng = np.random.default_rng
        made = []

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        preset = PRESETS[preset]
        for seed in seeds:
            cfg = replace(preset.config, seed=seed, metropolis_enabled=moves)
            made.clear()
            expected = reference_run(cfg, lookup_problem(preset.problem))
            archive, evals = run(cfg, lookup_problem(preset.problem))
            assert len(made) == 2
            assert_same_bits(archive.decisions, expected.decisions)
            assert_same_bits(archive.front, expected.front)
            assert made[0].bit_generator.state == made[1].bit_generator.state
            assert evals == 2 * cfg.n_targets * cfg.n_particles * (1 + 2 * moves)

    def test_examples_k3(self):
        cfg = PfopsConfig(
            n_targets=3, n_particles=10000, metropolis_enabled=False,
            final_filter_enabled=False, seed=0,
        )
        archive, evals = run(cfg, convex_problem())
        assert len(archive) == 3
        # step 1 incumbent: best of 10000 uniform draws under f1
        assert np.linalg.norm(archive.decisions[0]) < 0.2
        assert evals == 2 * 3 * 10000

    def test_eval_count_with_metropolis(self):
        from pfops.problems import kursawe_problem

        cfg = PfopsConfig(n_targets=3, n_particles=7, metropolis_enabled=True, seed=1)
        _, evals = run(cfg, kursawe_problem())
        assert evals == 2 * 3 * 7 + 2 * 3 * 7 * 3

    def test_eval_count_with_metropolis_and_wild_sigma(self):
        # out-of-box proposals keep the accounting exact
        cfg = PfopsConfig(n_targets=4, n_particles=5, sigma=1000.0, seed=2)
        _, evals = run(cfg, convex_problem())
        assert evals == 2 * 4 * 5 + 2 * 4 * 5 * 2

    def test_bit_identical_reruns(self):
        cfg = PfopsConfig(n_targets=10, n_particles=20, seed=123)
        a, ea = run(cfg, convex_problem())
        b, eb = run(cfg, convex_problem())
        np.testing.assert_array_equal(a.decisions, b.decisions)
        np.testing.assert_array_equal(a.front, b.front)
        assert ea == eb

    def test_archive_nondominated_after_filter(self):
        for seed in range(3):
            cfg = PfopsConfig(n_targets=12, n_particles=8, seed=seed)
            archive, _ = run(cfg, convex_problem())
            assert nondominated_mask(archive.front).all()
            assert len(archive) <= 12

    def test_front_matches_decisions(self):
        cfg = PfopsConfig(n_targets=6, n_particles=10, seed=3)
        prob = convex_problem()
        archive, _ = run(cfg, prob)
        recomputed = np.stack([prob.f1(archive.decisions), prob.f2(archive.decisions)], axis=1)
        np.testing.assert_allclose(archive.front, recomputed, rtol=1e-12)

    def test_degenerate_weights_propagate(self):
        cfg = PfopsConfig(n_targets=3, n_particles=4, seed=4)
        with pytest.raises(DegenerateWeightsError):
            run(cfg, flat_problem(np.inf))

    def test_nan_objective_names_the_point(self):
        # NaN on half the box used to surface as "every particle has zero density"
        problem = BiObjectiveProblem(
            name="half-nan",
            dim=1,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
            f1=lambda x: np.where(x[:, 0] > 0.5, np.nan, x[:, 0]),
            f2=lambda x: np.zeros(len(x)),
        )
        cfg = PfopsConfig(n_targets=3, n_particles=20, seed=4)
        with pytest.raises(InvalidInputError, match=r"'half-nan' are NaN at point \[0\.[5-9]"):
            run(cfg, problem)
        assert problem.counter.count == 0

    def test_decisions_within_bounds(self):
        cfg = PfopsConfig(n_targets=8, n_particles=16, seed=5)
        prob = convex_problem()
        archive, _ = run(cfg, prob)
        assert np.all(archive.decisions >= prob.lower) and np.all(archive.decisions <= prob.upper)

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            run(PfopsConfig(n_targets=1, n_particles=4), convex_problem())

    @pytest.mark.parametrize("z", [(5.0, 5.0), (-1.0, 0.0), (0.0, -1.0)])
    def test_utopian_not_below_ideal_rejected(self, z):
        # z = (5, 5) on convex used to run and return an archive
        cfg = PfopsConfig(
            n_targets=4, n_particles=5, scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
            utopian=z,
        )
        problem = convex_problem()
        with pytest.raises(InvalidConfigError, match=r"Utopian point .* ideal point \(0\.0, 0\.0\)"):
            run(cfg, problem)
        assert problem.counter.count == 0

    def test_utopian_unchecked_without_ideal(self):
        cfg = PfopsConfig(
            n_targets=3, n_particles=4, scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
            utopian=(5.0, 5.0),
        )
        _, evals = run(cfg, line_problem())
        assert evals == 2 * 3 * 4 + 2 * 3 * 4

    def test_archive_is_dataclass_with_len(self):
        archive = ParetoArchive(decisions=np.zeros((2, 2)), front=np.zeros((2, 2)))
        assert len(archive) == 2
