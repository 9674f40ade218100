import numpy as np
import pytest
from scipy.stats import chisquare, norm

from pfops.core import (
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
from pfops.pareto import nondominated_mask
from pfops.problems import BiObjectiveProblem, convex_problem
from pfops.scalarize import ScalarizationKind, weighted_sum


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
        PfopsConfig(n_targets=2, n_particles=1).validate()
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=1, n_particles=5).validate()
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=0).validate()
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=5, sigma=0.0).validate()
        with pytest.raises(InvalidConfigError):
            PfopsConfig(
                n_targets=3, n_particles=5,
                scalarization_kind=ScalarizationKind.TCHEBYCHEFF,
            ).validate()
        with pytest.raises(InvalidConfigError):
            PfopsConfig(n_targets=3, n_particles=5, utopian=(0.0, 0.0)).validate()


class TestInitialize:
    def test_single_particle_in_bounds(self):
        prob = BiObjectiveProblem(
            name="unit", dim=2,
            lower=np.zeros(2), upper=np.ones(2),
            f1=lambda x: x[:, 0], f2=lambda x: x[:, 1],
        )
        pop = initialize(PfopsConfig(2, 1), prob, np.random.default_rng(0))
        assert pop.particles.shape == (1, 2)
        assert prob.contains(pop.particles[0])
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

    def test_objectives_cache_follows_particles(self):
        prob = convex_problem()
        pop = make_population([[0.0, 0.0], [5.0, 5.0]])
        pop = update_incumbent(pop, weighted_sum(0.0), prob)
        out = resample(pop, np.random.default_rng(9))
        expected = np.stack([prob.f1(out.particles), prob.f2(out.particles)], axis=1)
        np.testing.assert_allclose(out.objectives, expected)


class TestMetropolisSweep:
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
        # huge sigma: nearly all proposals leave the box yet each costs 2 calls
        assert prob.counter.count - before == 2 * 300 * 2
        inside = np.all(out.particles >= prob.lower, axis=1) & np.all(out.particles <= prob.upper, axis=1)
        assert inside.all()

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


class TestRun:
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

    def test_archive_is_dataclass_with_len(self):
        archive = ParetoArchive(decisions=np.zeros((2, 2)), front=np.zeros((2, 2)))
        assert len(archive) == 2
