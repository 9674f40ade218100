from dataclasses import replace
from functools import partial

import ast
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from exact_stats import chisquare_pvalue, normal_cdf
from pfops.core import (
    Incumbent,
    PfopsConfig,
    Population,
    _incumbent,
    _one_ancestor_steps,
    _raw_log_weights,
    _score,
    _sweep,
    importance_weights,
    initialize,
    metropolis_sweep,
    resample,
    run,
)
from pfops.errors import DegenerateWeightsError, InvalidConfigError, InvalidInputError
from pfops.experiments import PRESETS
from pfops.nsga2 import Nsga2Config, evolve
from pfops.pareto import ParetoArchive, nondominated_mask
from pfops.problems import (
    BiObjectiveProblem,
    CoordinateSum,
    _kursawe_f2_term,
    convex_problem,
    fonseca_fleming_problem,
    kursawe_problem,
    lookup_problem,
)
from pfops.scalarize import (
    Scalarization,
    ScalarizationKind,
    equal_interval_schedule,
    log_density,
)

weighted_sum = partial(Scalarization, ScalarizationKind.WEIGHTED_SUM)


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


def steep_problem():
    """1-D problem whose f1 jumps from -1e308 to 1e308 at x0 = 0.5, f2 = 0:
    at lambda = 0 the two halves' log pi are 2e308 apart, beyond the float
    range."""
    return BiObjectiveProblem(
        name="steep", dim=1, lower=[0.0], upper=[1.0],
        f1=lambda x: np.where(x[:, 0] > 0.5, 1e308, -1e308), f2=lambda x: np.zeros(len(x)),
    )


def edge_values_problem():
    """2-D problem with objective values at -0.0 and at +inf: f1 is +inf
    where x0 > 0.8, which only lambda = 1 drops, and f2 where x1 > 0.8,
    which only lambda = 0 drops; f1 is -0.0 where |x1| < 0.2, f2 where
    |x0| < 0.2."""

    def objective(x, own, other):
        out = x[:, own] * x[:, own] + 1.0
        out[x[:, own] > 0.8] = np.inf
        out[np.abs(x[:, other]) < 0.2] = -0.0
        return out

    return BiObjectiveProblem(
        name="edge-values", dim=2, lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
        f1=partial(objective, own=0, other=1), f2=partial(objective, own=1, other=0),
    )


def make_population(particles):
    particles = np.atleast_2d(np.asarray(particles, dtype=float))
    n = len(particles)
    return Population(particles=particles, log_weights=np.full(n, -np.log(n)))


def set_incumbent(pop, s, problem):
    """``pop`` with the incumbent ``run`` takes at a step: the particle that
    maximizes log pi under ``s``, the first index winning ties. Scoring the
    particles costs 2N evaluations."""
    objectives, log_pi, _ = _score(pop.particles, s, problem)
    return replace(pop, incumbent=_incumbent(pop.particles, log_pi, objectives))


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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0, True, "1"])
    def test_sigma_rule_is_the_sweeps(self, sigma):
        with pytest.raises(InvalidConfigError) as info:
            PfopsConfig(3, 2, sigma=sigma)
        assert str(info.value) == f"sigma must be a finite number > 0, got {sigma!r}"

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
    """The incumbent ``run`` records at a step, through :func:`set_incumbent`."""

    def test_lambda0_prefers_f1_minimum(self):
        pop = make_population([[0.0, 0.0], [5.0, 5.0]])
        pop = set_incumbent(pop, weighted_sum(0.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [0.0, 0.0])
        assert pop.incumbent.log_density == 0.0

    def test_lambda1_prefers_f2_minimum(self):
        pop = make_population([[0.0, 0.0], [5.0, 5.0]])
        pop = set_incumbent(pop, weighted_sum(1.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [5.0, 5.0])

    def test_single_particle(self):
        pop = make_population([[1.0, 2.0]])
        pop = set_incumbent(pop, weighted_sum(0.5), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [1.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        # f2(3,4) == f2(4,3) == 5, a tie; the earlier particle must win
        pop = make_population([[3.0, 4.0], [4.0, 3.0]])
        pop = set_incumbent(pop, weighted_sum(1.0), convex_problem())
        np.testing.assert_array_equal(pop.incumbent.decision, [3.0, 4.0])

    def test_incumbent_objectives_cached(self):
        pop = make_population([[2.5, 2.5]])
        pop = set_incumbent(pop, weighted_sum(0.5), convex_problem())
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
        with pytest.raises(
            DegenerateWeightsError, match=r"^every particle has zero density under the current target$"
        ):
            importance_weights(pop, 1, weighted_sum(0.0), None, flat_problem(np.inf))

    def test_infinite_density_named(self):
        # f1 = -inf on a strip: at lambda = 0 a particle there has log pi = +inf
        problem = BiObjectiveProblem(
            name="sink", dim=2, lower=[-1.0, -1.0], upper=[1.0, 1.0],
            f1=lambda x: np.where(x[:, 0] > 0.9, -np.inf, x[:, 0]), f2=lambda x: x[:, 1].copy(),
        )
        with pytest.raises(
            DegenerateWeightsError, match=r"^a particle's weight is infinite: an infinite density "
            r"under the current target, from an objective at -inf, or zero density under the "
            r"previous one$",
        ):
            run(PfopsConfig(n_targets=5, n_particles=50, seed=0), problem)

    def test_undefined_ratio_named(self):
        # f1 = +inf gives zero density under both targets, and 0/0 is NaN
        pop = make_population([[0.5], [0.6]])
        with pytest.raises(
            DegenerateWeightsError, match=r"^a particle's weight is undefined \(NaN\): a ratio of "
            r"two zero or two infinite densities, or a density at objectives of \+inf and -inf$",
        ):
            importance_weights(pop, 2, weighted_sum(0.75), weighted_sum(0.5), flat_problem(np.inf))

    def test_overflowing_shift_is_a_zero_weight(self):
        # log pi 1e308 and -1e308: shifting the second by the first overflows
        # to -inf, the zero weight it stands for, with no RuntimeWarning (an
        # error under pytest)
        pop = make_population([[0.25], [0.75]])
        pop = importance_weights(pop, 1, weighted_sum(0.0), None, steep_problem())
        np.testing.assert_array_equal(pop.log_weights, [0.0, -np.inf])

    @pytest.mark.parametrize(
        "m, lowest", [(2.0**969, -np.finfo(float).max), (2.0**970, -np.inf)], ids=["2**969", "2**970"]
    )
    def test_shift_overflows_only_from_2_to_the_970(self, m, lowest):
        # the lowest finite raw log weight shifted by a maximum of 2**969
        # rounds back to itself; by 2**970 it rounds to -inf, silently
        log_w = _raw_log_weights(np.array([m, -np.finfo(float).max]), 0.0)
        np.testing.assert_array_equal(log_w, [0.0, lowest])

    def test_step_contract(self):
        pop = make_population([[0.0, 0.0]])
        s = weighted_sum(0.5)
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 0, s, None, convex_problem())
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 2, s, None, convex_problem())
        with pytest.raises(InvalidInputError):
            importance_weights(pop, 1, s, s, convex_problem())

    @pytest.mark.parametrize("k", [True, 1.0, np.float64(1.0)], ids=["bool", "float", "np-float"])
    def test_step_index_not_an_integer_rejected(self, k):
        # each of these used to run as step 1
        pop = make_population([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InvalidInputError, match=r"^step index k must be an integer >= 1, got "):
            importance_weights(pop, k, weighted_sum(0.5), None, convex_problem())

    def test_numpy_integer_step_index_accepted(self):
        pop = make_population([[0.0, 0.0], [1.0, 1.0]])
        s = weighted_sum(0.5)
        expected = importance_weights(pop, 1, s, None, convex_problem())
        out = importance_weights(pop, np.int64(1), s, None, convex_problem())
        np.testing.assert_array_equal(out.log_weights, expected.log_weights)

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

    def test_overflowing_spread_is_a_zero_weight(self):
        # 1e308 apart, -1e308 - 1e308 overflows to -inf: the zero weight it
        # stands for, with no RuntimeWarning (an error under pytest)
        pop = Population(np.arange(2.0)[:, None], np.array([1e308, -1e308]))
        rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        idx = resample(pop, rng_new).particles[:, 0].astype(int)
        np.testing.assert_array_equal(idx, rng_ref.choice(2, size=2, p=[1.0, 0.0]))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize(
        "log_weights",
        [[0.0, np.nan, 0.0], [-np.inf, -np.inf, -np.inf], [0.0, np.inf, 0.0], [0.0, 0.0]],
    )
    def test_bad_log_weights_rejected(self, log_weights):
        pop = Population(particles=np.zeros((3, 1)), log_weights=np.array(log_weights))
        with pytest.raises(InvalidInputError, match="log weight"):
            resample(pop, np.random.default_rng(0))

    def test_list_particles_resample_as_their_float_copy(self):
        # a nested list used to raise a raw TypeError from its fancy index
        particles = np.random.default_rng(9).uniform(-5.0, 10.0, size=(12, 2))
        log_w = np.log(np.random.default_rng(10).dirichlet(np.ones(12)))
        sides = []
        for given in (particles.tolist(), particles):
            rng = np.random.default_rng(11)
            out = resample(Population(given, log_w), rng)
            sides.append((out.particles, rng.bit_generator.state))
        (got, got_state), (want, want_state) = sides
        assert_same_bits(got, want)
        assert got_state == want_state

    @pytest.mark.parametrize("kind", ["list", "strings", "empty", "short"])
    def test_log_weights_read_by_the_array_rule(self, kind):
        # these used to raise a raw AttributeError (a list has no max), a raw
        # UFuncTypeError, numpy's zero-size reduction error, and a text that
        # named neither the field nor the fault
        particles = np.random.default_rng(12).uniform(-5.0, 10.0, size=(12, 2))
        log_w = np.log(np.random.default_rng(13).dirichlet(np.ones(12)))
        given = {"list": log_w.tolist(), "strings": np.array(["a"] * 12), "empty": np.zeros(0),
                 "short": np.zeros(2)}
        if kind == "short":
            particles = particles[:3]
        rng = np.random.default_rng(14)
        state = rng.bit_generator.state
        if kind == "list":
            out = resample(Population(particles, given[kind]), rng)
            rng_ref = np.random.default_rng(14)
            ref = resample(Population(particles, log_w), rng_ref)
            assert_same_bits(out.particles, ref.particles)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        else:
            with pytest.raises(InvalidInputError, match=r"^pop\.log_weights "):
                resample(Population(particles, given[kind]), rng)
            assert rng.bit_generator.state == state


@pytest.mark.parametrize("step", ["importance_weights", "resample", "metropolis_sweep"])
def test_empty_population_refused_before_anything_is_counted(step):
    # each used to escape as a raw numpy ValueError: argmax of an empty
    # sequence, or a reduction of a zero-size array
    problem = convex_problem()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    pop = Population(np.zeros((0, 2)), np.zeros(0))
    calls = {
        "importance_weights": lambda: importance_weights(pop, 1, weighted_sum(0.5), None, problem),
        "resample": lambda: resample(pop, rng),
        "metropolis_sweep": lambda: metropolis_sweep(pop, weighted_sum(0.5), problem, 1.0, rng),
    }
    message = r"^pop\.particles must hold at least one particle, got shape \(0, 2\)$"
    with pytest.raises(InvalidInputError, match=message):
        calls[step]()
    assert problem.counter.count == 0
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("incumbent", [5, (1, 2, 3), 0])
def test_sweep_refuses_an_incumbent_that_is_not_one(incumbent):
    # 5 used to be evaluated, counted and drawn for before a raw
    # AttributeError, and 0 was silently replaced by a fresh incumbent
    problem = convex_problem()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    pop = Population(np.zeros((4, 2)), np.zeros(4), incumbent)
    with pytest.raises(InvalidInputError, match=r"^pop\.incumbent must be None or an Incumbent"):
        metropolis_sweep(pop, weighted_sum(0.5), problem, 1.0, rng)
    assert problem.counter.count == 0
    assert rng.bit_generator.state == state


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
            if seed % 2:
                s = weighted_sum(lam)
            else:
                s = Scalarization(ScalarizationKind.TCHEBYCHEFF, lam, (-30.0, -30.0))
            sides = []
            for sweep in (metropolis_sweep, reference_metropolis_sweep):
                prob = make_problem()
                pop = initialize(PfopsConfig(2, n, seed=seed), prob, np.random.default_rng(seed))
                if with_incumbent:
                    pop = set_incumbent(pop, s, prob)
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
            pop = set_incumbent(pop, weighted_sum(0.5), prob)
            batches = []

            def counting(points, f1=prob.f1):
                batches.append(len(points))
                return f1(points)

            prob.f1 = counting
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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0, True, "1"])
    def test_sigma_checked_before_anything_is_counted(self, sigma):
        # NaN and inf used to charge 2N(1+d) evaluations and move nothing, 0
        # accepted every proposal as the current point, -1 and True ran, and
        # "1" raised numpy's UFuncTypeError
        prob = convex_problem()
        pop = initialize(PfopsConfig(2, 10), prob, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=r"^sigma must be a finite number > 0, got "):
            metropolis_sweep(pop, weighted_sum(0.5), prob, sigma, rng)
        assert prob.counter.count == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "given",
        [lambda p: p, lambda p: p.astype(np.int32), lambda p: p.tolist()],
        ids=["int64", "int32", "nested-list"],
    )
    def test_integer_or_list_particles_sweep_as_their_float_copy(self, given):
        # these used to escape _sweep as a raw TypeError, after the
        # population's 2N evaluations had been counted
        ints = np.random.default_rng(5).integers(-5, 6, size=(40, 3))
        sides = []
        for particles in (given(ints), ints.astype(float)):
            prob = kursawe_problem()
            pop = Population(particles, np.full(40, -np.log(40)))
            rng = np.random.default_rng(6)
            out = metropolis_sweep(pop, weighted_sum(0.5), prob, 1.0, rng)
            sides.append((out, prob.counter.count, rng.bit_generator.state))
        (got, got_count, got_state), (want, want_count, want_state) = sides
        assert_same_bits(got.particles, want.particles)
        assert_same_bits(got.incumbent.decision, want.incumbent.decision)
        assert_same_bits(got.incumbent.objectives, want.incumbent.objectives)
        assert got.incumbent.log_density == want.incumbent.log_density
        assert got_count == want_count == 2 * 40 * 4
        assert got_state == want_state

    @pytest.mark.parametrize(
        "particles, message",
        [
            (np.zeros(3), r"pop\.particles must be an \(N, d\) array, got shape \(3,\)"),
            (np.zeros((2, 4, 3)), r"pop\.particles must be an \(N, d\) array, got shape \(2, 4, 3\)"),
            (np.array([["a", "b", "c"]]), r"pop\.particles must be real numbers, got dtype <U1"),
        ],
    )
    def test_particles_not_a_real_matrix_refused_before_anything_is_counted(
        self, particles, message
    ):
        # a (d,) vector used to be evaluated as one point, counted, then
        # escape _sweep as a raw IndexError
        prob = kursawe_problem()
        pop = Population(particles, np.zeros(1))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            metropolis_sweep(pop, weighted_sum(0.5), prob, 1.0, rng)
        assert prob.counter.count == 0
        assert rng.bit_generator.state == state

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
        pop = set_incumbent(pop, weighted_sum(0.5), prob)
        before = prob.counter.count
        out = metropolis_sweep(pop, weighted_sum(0.5), prob, sigma=100.0, rng=rng)
        # huge sigma: nearly all proposals leave the box yet each costs 2 calls,
        # on top of the 2 per particle of scoring the population
        assert prob.counter.count - before == 2 * 300 * 3
        inside = np.all(out.particles >= prob.lower, axis=1) & np.all(out.particles <= prob.upper, axis=1)
        assert inside.all()

    def test_overflowing_proposals_rejected_but_counted(self):
        # sigma near the float maximum: a proposal that overflows is +-inf,
        # outside the box, so it is rejected and charged like any other
        # out-of-box one, with no RuntimeWarning (an error under pytest)
        prob = convex_problem()
        pop = make_population(np.random.default_rng(15).uniform(-5, 10, size=(50, 2)))
        rng = np.random.default_rng(16)
        out = metropolis_sweep(pop, weighted_sum(0.5), prob, sigma=1.7e308, rng=rng)
        assert (np.abs(np.random.default_rng(16).standard_normal(50)) > 1.06).any()
        assert prob.counter.count == 2 * 50 * (1 + 2)
        assert_same_bits(out.particles, pop.particles)

    def test_tied_best_proposals_first_wins(self):
        # log pi is 0 on (0, 1] and -1 elsewhere in the box; every particle
        # starts at -0.5, so each in-box proposal above 0 ties for the best
        prob = BiObjectiveProblem(
            name="step", dim=1, lower=np.array([-1.0]), upper=np.array([1.0]),
            f1=lambda x: np.where(x[:, 0] > 0.0, 0.0, 1.0),
            f2=lambda x: np.zeros(len(x)),
        )
        pop = set_incumbent(make_population(np.full((20, 1), -0.5)), weighted_sum(0.0), prob)
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
        pop = set_incumbent(pop, s, prob)
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
        cdf = normal_cdf(edges)
        expected = 2000.0 * np.diff(cdf) / (cdf[-1] - cdf[0])
        assert chisquare_pvalue(observed, expected) > 0.01


class TestEvidence:
    """The product over steps j <= k of the mean incremental weight
    pi_j / pi_{j-1} over the particles entering step j, Z_hat_k, is an
    unbiased estimate of Z_k / Z_0 for every N, with or without moves (Del
    Moral 2004, Feynman-Kac Formulae; Del Moral, Doucet & Jasra 2006). A
    wrong weight rule biases it, even one an oracle of the tests shares."""

    REPLICATES, N, K = 120, 50, 11

    @pytest.mark.parametrize("moves", [False, True])
    def test_evidence_estimate_is_unbiased(self, moves):
        # weighted sum, f1 = x and f2 = -x on [-2, 2]: pi_lambda = exp(-r x)
        # with r = 1 - 2 lambda, so against the uniform start's Z_0 = 4,
        # Z(lambda) / Z_0 = sinh(2r) / (2r), and 1 at lambda = 1/2
        problem = BiObjectiveProblem(
            name="slope", dim=1, lower=[-2.0], upper=[2.0],
            f1=lambda x: x[:, 0].copy(), f2=lambda x: -x[:, 0],
        )
        lams = equal_interval_schedule(self.K)
        exact = np.array([np.sinh(t) / t if t else 1.0 for t in 2.0 * (1.0 - 2.0 * lams)])
        targets = [weighted_sum(lam) for lam in lams]
        rng = np.random.default_rng(21)
        log_z = np.zeros((self.REPLICATES, self.K))
        for i in range(self.REPLICATES):
            pop = make_population(rng.uniform(-2.0, 2.0, size=(self.N, 1)))
            total, s_prev = 0.0, None
            for k, s_k in enumerate(targets, start=1):
                f = problem.evaluate_batch(pop.particles)
                log_w = s_k.log_density_values(f)
                if s_prev is not None:
                    log_w -= s_prev.log_density_values(f)
                total += np.log(np.exp(log_w).mean())
                log_z[i, k - 1] = total
                pop = resample(importance_weights(pop, k, s_k, s_prev, problem), rng)
                if moves:
                    pop = metropolis_sweep(pop, s_k, problem, 1.0, rng)
                s_prev = s_k
        ratio = np.exp(log_z) / exact
        z = (ratio.mean(axis=0) - 1.0) / (ratio.std(axis=0, ddof=1) / np.sqrt(self.REPLICATES))
        # with a right weight rule, max |z| over the K steps read at most
        # 4.23 (moves off) and 4.03 (on) over generator seeds 0-399, 99th
        # percentiles 3.01 and 3.26. Over seeds 0-9, a weight that drops
        # log pi_{k-1} read at least 411 and 95, one that subtracts it twice
        # at least 20 and 27
        assert np.abs(z).max() < 5.0, z.round(2).tolist()


def chain_run(config, problem, rng):
    """``run`` spelled as the chain of step functions, each scoring afresh."""
    targets = [config.scalarization(lam) for lam in equal_interval_schedule(config.n_targets)]
    pop = initialize(config, problem, rng)
    decisions, front = [], []
    for k, s_k in enumerate(targets, start=1):
        pop = set_incumbent(pop, s_k, problem)
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


def reference_run(config, problem, sweep=metropolis_sweep):
    """``run`` with the two-pass weight step above, kept as the oracle of its
    one-pass inverse CDF; ``sweep`` is its move step."""
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
            pop = sweep(pop, s_k, problem, config.sigma, rng)
        particles = pop.particles
        decisions.append(pop.incumbent.decision)
        front.append(pop.incumbent.objectives)
        s_prev = s_k
    decisions, front = np.stack(decisions), np.stack(front)
    keep = nondominated_mask(front) if config.final_filter_enabled else slice(None)
    return ParetoArchive(decisions=decisions[keep], front=front[keep])


class LoggedPCG64(np.random.PCG64):
    """PCG64 that logs each ``advance`` in ``draws``, and through
    ``LoggedGenerator`` each ``random`` call's size, in order."""

    def advance(self, delta):
        self.draws.append(("advance", delta))
        return super().advance(delta)


class LoggedGenerator(np.random.Generator):
    def random(self, size=None, *args, **kwargs):
        self.bit_generator.draws.append(("random", size))
        return super().random(size, *args, **kwargs)


def logged_rng(seed):
    """``np.random.default_rng(seed)``'s stream, its draws logged in
    ``.bit_generator.draws``; its state names ``LoggedPCG64``."""
    bits = LoggedPCG64(seed)
    bits.draws = []
    return LoggedGenerator(bits)


class TestRun:
    @pytest.mark.parametrize(
        "make_problem", [convex_problem, fonseca_fleming_problem, kursawe_problem]
    )
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("moves", [False, True])
    def test_equals_chain_of_step_functions(self, monkeypatch, make_problem, kind, moves):
        # run scores each target once where the chain scores it afresh in every
        # step function, so the counts differ; the archive and stream must not
        self._compare_with_chain(monkeypatch, make_problem, kind, moves, 5, 12)

    @pytest.mark.parametrize(
        "make_problem", [convex_problem, fonseca_fleming_problem, kursawe_problem]
    )
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("n_targets, n_particles", [(2, 12), (5, 1), (2, 1)])
    def test_moves_off_carry_equals_chain_at_the_edges(
        self, monkeypatch, make_problem, kind, n_targets, n_particles
    ):
        # with moves off run carries step 1's values where the chain evaluates
        # every step afresh: one later step (K = 2), one particle (N = 1)
        self._compare_with_chain(
            monkeypatch, make_problem, kind, False, n_targets, n_particles
        )

    @staticmethod
    def _compare_with_chain(monkeypatch, make_problem, kind, moves, n_targets, n_particles):
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        default_rng = np.random.default_rng
        made = []  # the generators run builds

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        for seed in (0, 1, 7):
            cfg = PfopsConfig(
                n_targets=n_targets, n_particles=n_particles, sigma=0.5,
                metropolis_enabled=moves, final_filter_enabled=seed != 1, seed=seed,
                scalarization_kind=kind, utopian=utopian,
            )
            made.clear()
            archive, _ = run(cfg, make_problem())
            rng = default_rng(seed)
            expected = chain_run(cfg, make_problem(), rng)
            assert len(made) == 1
            assert_same_bits(archive.decisions, expected.decisions)
            assert_same_bits(archive.front, expected.front)
            assert made[0].bit_generator.state == rng.bit_generator.state

    @staticmethod
    def _recorded(problem):
        """``problem`` with each plain objective, and each CoordinateSum's term,
        behind a recorder; return it and the row counts of each one's calls."""
        rows = {}

        def recorder(name, f):
            rows[name] = []

            def recording(x):
                rows[name].append(len(x))
                return f(x)

            return recording

        for which in ("f1", "f2"):
            f = getattr(problem, which)
            if isinstance(f, CoordinateSum):
                f = CoordinateSum(recorder(f"{which}.term", f.term))
            else:
                f = recorder(which, f)
            setattr(problem, which, f)
        return problem, rows

    @pytest.mark.parametrize(
        "make_problem", [convex_problem, fonseca_fleming_problem, kursawe_problem]
    )
    def test_moves_off_computes_each_objective_once(self, make_problem):
        # every particle after step 1 is a resampled copy of a step-1 one: its
        # values are carried, and each later step's 2N is charged, not computed
        problem, rows = self._recorded(make_problem())
        cfg = PfopsConfig(n_targets=5, n_particles=12, metropolis_enabled=False, seed=3)
        _, evals = run(cfg, problem)
        assert list(rows.values()) == [[12], [12]]
        assert evals == problem.counter.count == 2 * 5 * 12

    @pytest.mark.parametrize(
        "make_problem", [convex_problem, fonseca_fleming_problem, kursawe_problem]
    )
    def test_moves_on_evaluates_every_step(self, make_problem):
        # at this sigma every proposal leaves the box, so each plain objective
        # is called on the K population batches alone; a CoordinateSum's terms
        # are computed at step 1 and carried, as before
        problem, rows = self._recorded(make_problem())
        cfg = PfopsConfig(n_targets=5, n_particles=12, sigma=1e6, seed=3)
        _, evals = run(cfg, problem)
        for name, calls in rows.items():
            assert calls == ([12] if name.endswith(".term") else [12] * 5)
        assert evals == problem.counter.count == 2 * 5 * 12 * (1 + problem.dim)

    @pytest.mark.parametrize(
        "optimize, budget",
        [
            (partial(run, PfopsConfig(4, 6, seed=2)), 2 * 4 * 6 * (1 + 2)),  # d = 2
            (partial(run, PfopsConfig(4, 6, metropolis_enabled=False, seed=2)), 2 * 4 * 6),
            (partial(evolve, Nsga2Config(6, 3, seed=2)), 2 * 6 * (3 + 1)),
        ],
        ids=["pfops-moves-on", "pfops-moves-off", "nsga2"],
    )
    def test_each_run_on_a_reused_problem_counts_its_own_budget(self, optimize, budget):
        # the problem's counter runs on across runs; each run reports its
        # documented budget, not the counter's reading
        problem = convex_problem()
        assert [optimize(problem)[1] for _ in range(2)] == [budget, budget]
        assert problem.counter.count == 2 * budget

    @pytest.mark.parametrize(
        "n_particles, f1_scale", [(6, 1.0), (1, 1.0), (6, 1e6)],
        ids=["stepped", "one-particle", "one-ancestor-after-step-1"],
    )
    def test_later_step_degenerate_weights_moves_off(self, n_particles, f1_scale):
        # lambda = 0 ignores f2 = +inf, so step 1 passes and step 2 meets zero
        # density everywhere; the carried step is charged before the raise.
        # One particle is one ancestor from step 1 on, so its step 2 raises
        # in _one_ancestor_steps, which also computes step 3's -inf - -inf: a
        # RuntimeWarning, an error here, if it surfaced. A steep f1 leaves
        # one ancestor after step 1, and step 2 raises in the per-step loop
        problem = replace(convex_problem(), f2=lambda x: np.full(len(x), np.inf))
        problem.f1 = partial(lambda f1, x: f1_scale * f1(x), problem.f1)  # 1.0 keeps the bits
        cfg = PfopsConfig(n_targets=3, n_particles=n_particles, metropolis_enabled=False, seed=0)
        first = initialize(cfg, problem, np.random.default_rng(cfg.seed)).particles
        f1 = problem.f1(first)
        drawn = np.exp(f1.min() - f1) > 0  # the step-1 weights resampling can draw
        assert drawn.sum() == (1 if f1_scale > 1 else n_particles)
        message = r"^every particle has zero density under the current target$"
        with pytest.raises(DegenerateWeightsError, match=message):
            run(cfg, problem)
        assert problem.counter.count == 2 * 2 * n_particles

    @pytest.mark.parametrize(
        "column",
        [[1.0, 2.0, np.inf, np.nan], [-1.0, -np.inf, -np.inf], [0.5, np.nan, 1.0], [3.0, 1.0, 2.0],
         [1e308, -1e308, 0.0], [-np.inf]],
    )
    def test_one_ancestor_steps_charge_and_raise_as_the_loop(self, column):
        # the whole-array finish against the per-step loop on N copies of one
        # ancestor: the same count, the same error text, and only the raising
        # step's RuntimeWarnings (1e308 - -1e308 overflows; inf - inf and
        # nan arithmetic warn or not as numpy does for one step)
        column, n = np.array(column), 4
        sides = []
        for finish in (self._one_ancestor_loop, _one_ancestor_steps):
            problem = convex_problem()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    finish(column, 0.25, n, problem)
                    error = None
                except DegenerateWeightsError as exc:
                    error = str(exc)
            sides.append((problem.counter.count, error, [str(w.message) for w in caught]))
        assert sides[0] == sides[1]

    @staticmethod
    def _one_ancestor_loop(column, log_pi_prev, n, problem):
        """The per-step loop's charging and weighting, N particles of one ancestor."""
        for log_pi in column:
            problem.counter.add(2 * n)
            _raw_log_weights(np.full(n, log_pi), np.full(n, log_pi_prev))
            log_pi_prev = log_pi

    def test_moves_off_stops_stepping_at_one_ancestor(self, monkeypatch):
        # pfops-convex-under's seed 0 keeps one step-1 ancestor after step 1,
        # so step 2 gives every particle weight 1 and is the last step
        # weighted; the other 18 are finished from that ancestor's column of
        # the score table, drawing only the two weighted steps' uniforms and
        # skipping the rest by one advance, with reference_run's archive,
        # count and stream (both sides' generators logged alike)
        calls = []
        made = []

        def recording(*args):
            calls.append(len(args[0]))
            return _raw_log_weights(*args)

        def recording_rng(seed):
            made.append(logged_rng(seed))
            return made[-1]

        monkeypatch.setattr("pfops.core._raw_log_weights", recording)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        preset = PRESETS["pfops-convex-under"]
        cfg = replace(preset.config, seed=0)
        counts = assert_run_equals_reference(cfg, partial(lookup_problem, preset.problem))
        assert calls == [5, 5]
        assert counts == (2 * 20 * 5,) * 2
        start = ("random", (5, 2))
        assert made[0].bit_generator.draws == [start, ("random", 5), ("random", 5), ("advance", 18 * 5)]
        assert made[1].bit_generator.draws == [start] + [("random", 5)] * 20

    def test_finish_scores_later_blocks_on_one_row(self, monkeypatch):
        # as above, stepping stops at step 2, but at 20 entries a block holds
        # 4 of the 20 steps: only the first block builds a table, and the 16
        # targets of the four later ones are scored once, on the ancestor's
        # row alone, each with the bits of log_density_values there; the
        # archive, the count and the final generator state are reference_run's
        calls = []

        def recording(objectives, lams, *args):
            calls.append((objectives.copy(), lams[:, 0].copy(), log_density(objectives, lams, *args)))
            return calls[-1][2]

        monkeypatch.setattr("pfops.core._BLOCK_ENTRIES", 20)
        monkeypatch.setattr("pfops.core.log_density", recording)
        preset = PRESETS["pfops-convex-under"]
        cfg = replace(preset.config, seed=0)
        counts = assert_run_equals_reference(cfg, partial(lookup_problem, preset.problem))
        assert counts == (2 * 20 * 5,) * 2
        assert [(len(objectives), len(lams)) for objectives, lams, _ in calls] == [(5, 4), (1, 16)]
        lams = np.concatenate([lams for _, lams, _ in calls])
        assert_same_bits(lams, equal_interval_schedule(20))
        problem = lookup_problem(preset.problem)
        first = initialize(cfg, problem, np.random.default_rng(cfg.seed)).particles
        step1 = problem.evaluate_batch(first)
        (objectives, _, _), (row, later, column) = calls
        assert_same_bits(objectives, step1)
        a = [r.tobytes() for r in step1].index(row.tobytes())
        for lam, value in zip(later, column[:, 0]):
            assert_same_bits(value, cfg.scalarization(lam).log_density_values(step1)[a])

    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("n_targets, n_particles", [(2, 12), (3, 12), (200, 1000)])
    def test_scores_each_target_once(self, monkeypatch, kind, n_targets, n_particles):
        # with moves off the population is scored once per target, in order:
        # the rows of score tables of step 1's values, built a block of steps
        # at a time (K = 200, N = 1000 spans four blocks), each row with the
        # bits of log_density_values; no objective is called after step 1.
        # No run here keeps one step-1 particle alone, so every call is a table
        tables = []

        def recording(objectives, lams, *args):
            tables.append((objectives.copy(), lams[:, 0].copy(), log_density(objectives, lams, *args)))
            return tables[-1][2]

        monkeypatch.setattr("pfops.core.log_density", recording)
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        cfg = PfopsConfig(
            n_targets=n_targets, n_particles=n_particles, metropolis_enabled=False, seed=4,
            scalarization_kind=kind, utopian=utopian,
        )
        problem, rows = self._recorded(edge_values_problem())
        run(cfg, problem)
        assert list(rows.values()) == [[n_particles], [n_particles]]
        first = initialize(cfg, problem, np.random.default_rng(cfg.seed)).particles
        step1 = problem.evaluate_batch(first)
        assert len(tables) == (1 if n_targets < 10 else 4)
        lams = np.concatenate([lam for _, lam, _ in tables])
        assert_same_bits(lams, equal_interval_schedule(n_targets))
        for objectives, block, table in tables:
            assert_same_bits(objectives, step1)
            for lam, row in zip(block, table):
                assert_same_bits(row, cfg.scalarization(lam).log_density_values(step1))
        edges = np.concatenate([table[[0, -1]] for _, _, table in tables])
        assert np.isinf(edges).any() and (np.signbit(step1) & (step1 == 0)).any()

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

    @pytest.mark.parametrize("moves", [False, True])
    def test_weight_shift_that_overflows_is_a_zero_weight(self, moves):
        # step 1's raw log weights are 1e308 on x0 < 0.5 and -1e308 beyond:
        # their shift overflows to -inf, the zero weight it stands for, with
        # no RuntimeWarning (an error here), and every incumbent has f1 =
        # -1e308
        archive, evals = run(PfopsConfig(3, 4, metropolis_enabled=moves), steep_problem())
        assert archive.front.tolist() == [[-1e308, 0.0]] * 3
        assert evals == 2 * 3 * 4 * (1 + moves)

    @pytest.mark.parametrize("f1_value", [np.inf, -np.inf])
    def test_moves_off_table_nan_is_never_drawn(self, f1_value):
        # a particle at objectives of +inf and -inf has a NaN in its table
        # column, but step 1 scores it -inf (never drawn) or +inf (the run
        # stops there, as the parent's did); no RuntimeWarning, which is an
        # error here, comes from building the table
        def f1(x):
            out = x[:, 0] * x[:, 0]
            out[x[:, 0] > 5.0] = f1_value
            return out

        def f2(x):
            out = x[:, 1] * x[:, 1]
            out[x[:, 0] > 5.0] = -f1_value
            return out

        cfg = PfopsConfig(n_targets=4, n_particles=6, metropolis_enabled=False, seed=0)
        problem = replace(convex_problem(), f1=f1, f2=f2)
        first = initialize(cfg, problem, np.random.default_rng(0)).particles
        assert 0 < (first[:, 0] > 5.0).sum() < 6
        if f1_value > 0:
            archive, evals = run(cfg, problem)
            expected = reference_run(cfg, replace(convex_problem(), f1=f1, f2=f2))
            assert_same_bits(archive.decisions, expected.decisions)
            assert_same_bits(archive.front, expected.front)
            assert evals == 2 * 4 * 6
        else:
            with pytest.raises(DegenerateWeightsError, match="weight is infinite"):
                run(cfg, problem)
            assert problem.counter.count == 2 * 6

    def test_moves_off_memory_is_blocked(self):
        # the score table is built a block of steps at a time: about 3 MiB at
        # its peak here, where a full float64 table alone would take 15.3 MiB
        cfg = PfopsConfig(n_targets=200, n_particles=10_000, metropolis_enabled=False, seed=0)
        tracemalloc.start()
        try:
            run(cfg, convex_problem())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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

    def test_eval_count_with_overflowing_sigma(self):
        # proposals that overflow to +-inf are out of the box, and charged
        cfg = PfopsConfig(n_targets=3, n_particles=10, sigma=1.7e308)
        _, evals = run(cfg, convex_problem())
        assert evals == 2 * 3 * 10 * (1 + 2)

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

    def test_nsga2_config_rejected(self):
        # used to raise a raw AttributeError naming n_targets
        problem = convex_problem()
        message = r"^run's config must be of type PfopsConfig, got Nsga2Config$"
        with pytest.raises(InvalidConfigError, match=message):
            run(Nsga2Config(4, 1), problem)
        assert problem.counter.count == 0

    def test_problem_name_rejected(self):
        # a problem's registry name is not a problem; it used to raise a raw
        # AttributeError naming dim
        message = r"^run's problem must be of type BiObjectiveProblem, got str$"
        with pytest.raises(InvalidInputError, match=message):
            run(PfopsConfig(n_targets=2, n_particles=4), "convex")

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


def generated_problem(seed, forms):
    """A seeded problem in 1 to 5 dimensions on an asymmetric box, numpy
    alone: each objective, by ``forms``, is a row-wise sum of columns
    ("row"), a CoordinateSum of an elementwise term ("sum") or a BLAS-backed
    ``sin(x @ a) + (x * x).sum(1)`` ("blas"), which may sum a row in
    another order in a batch of another size."""
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 5
    lower = rng.uniform(-4.0, 0.0, dim)
    upper = lower + rng.uniform(0.5, 6.0, dim)

    def objective(form):
        a, c = rng.uniform(0.5, 3.0), rng.uniform(-2.0, 2.0)
        if form == "sum":
            return CoordinateSum(lambda x: np.abs(x - c) ** 1.5 + np.cos(a * x))
        if form == "blas":
            weights = rng.uniform(-a, a, dim)
            return lambda x: np.sin(x @ weights) + (x * x).sum(1)
        scale = rng.uniform(0.5, 2.0, dim)

        def row_wise(x):
            dev = x - c
            t = dev * dev * scale + np.sin(a * x)
            total = t[:, 0]
            for j in range(1, dim):
                total = total + t[:, j]
            return total

        return row_wise

    return BiObjectiveProblem(
        name=f"generated-{seed}", dim=dim, lower=lower, upper=upper,
        f1=objective(forms[0]), f2=objective(forms[1]),
    )


def assert_run_equals_reference(cfg, make_problem, sweep=metropolis_sweep):
    """``run(cfg)`` and ``reference_run(cfg, ..., sweep)``, each on its own
    ``make_problem()``, give the same archive bits and leave their one
    generator each in the same state; return run's evaluation count, and its
    problem's."""
    problem, fresh = make_problem(), make_problem()
    default_rng = np.random.default_rng
    made = []

    def recording_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.random, "default_rng", recording_rng)
        archive, evals = run(cfg, problem)
        expected = reference_run(cfg, fresh, sweep)
    assert len(made) == 2
    assert_same_bits(archive.decisions, expected.decisions)
    assert_same_bits(archive.front, expected.front)
    assert made[0].bit_generator.state == made[1].bit_generator.state
    return evals, problem.counter.count


GENERATED_FORMS = pytest.mark.parametrize(
    "forms", [("row", "row"), ("sum", "row"), ("row", "sum"), ("sum", "sum")], ids="-".join
)


class TestMovesOffDifferential:
    @GENERATED_FORMS
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_equals_fresh_evaluation(self, monkeypatch, forms, kind):
        # the ancestor-index loop against reference_run, which evaluates every
        # step afresh; with 21 table entries a block, K = 2 and 3 fit in one
        # block at every N, and K = 23 crosses at least one boundary
        monkeypatch.setattr("pfops.core._BLOCK_ENTRIES", 21)
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        for seed in range(5):
            for n_targets in (2, 3, 23):
                for n_particles in (1, 2, 7):
                    cfg = PfopsConfig(
                        n_targets=n_targets, n_particles=n_particles,
                        metropolis_enabled=False, final_filter_enabled=seed != 1, seed=seed,
                        scalarization_kind=kind, utopian=utopian,
                    )
                    counts = assert_run_equals_reference(
                        cfg, partial(generated_problem, seed, forms)
                    )
                    assert counts == (2 * n_targets * n_particles,) * 2


class TestMovesOnDifferential:
    @GENERATED_FORMS
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_equals_reference_sweep(self, forms, kind):
        # run against reference_run with the sweep as first written, so the
        # two share neither core._score nor core._sweep; seed s gives
        # d = 1 + s % 5, and each seed meets all nine sigmas from 1e-3
        # (nearly every proposal accepted) to 10 (nearly every one leaves
        # the box), in a rotated order over the (K, N) pairs
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        for seed in range(5):
            sigmas = iter(np.roll(np.geomspace(1e-3, 10.0, 9), seed))
            for n_targets in (2, 3, 7):
                for n_particles in (1, 2, 7):
                    cfg = PfopsConfig(
                        n_targets=n_targets, n_particles=n_particles, sigma=next(sigmas),
                        metropolis_enabled=True, final_filter_enabled=seed != 1, seed=seed,
                        scalarization_kind=kind, utopian=utopian,
                    )
                    make_problem = partial(generated_problem, seed, forms)
                    counts = assert_run_equals_reference(
                        cfg, make_problem, reference_metropolis_sweep
                    )
                    dim = make_problem().dim
                    assert counts == (2 * n_targets * n_particles * (1 + dim),) * 2


def mutually_nondominated(front):
    """True iff no row of ``front`` dominates another, by pairwise comparison."""
    no_worse = (front[:, None, :] <= front[None, :, :]).all(axis=2)
    better = (front[:, None, :] < front[None, :, :]).any(axis=2)
    return not (no_worse & better).any()


def infinite_on_part(make_problem, hits):
    """``make_problem()`` with f1 at +inf where a coordinate lies in the top
    quarter of its range or above: a row-wise f1 on its first coordinate, a
    CoordinateSum's term above one cut, which leaves at most a quarter of
    each coordinate's range. Each call appends whether it gave an +inf."""
    problem = make_problem()
    span = problem.upper - problem.lower

    def infinite(mask, values):
        hits.append(bool(mask.any()))
        return np.where(mask, np.inf, values)

    if isinstance(problem.f1, CoordinateSum):
        cut = (problem.upper - 0.25 * span).max()
        f1 = CoordinateSum(lambda x, term=problem.f1.term: infinite(x > cut, term(x)))
    else:
        cut = problem.upper[0] - 0.25 * span[0]
        f1 = lambda x, f=problem.f1: infinite(x[:, 0] > cut, f(x))  # noqa: E731
    return replace(problem, f1=f1)


class TestRunInvariants:
    """What every archive holds, whatever the oracles above compute: its
    decisions lie in the box, its front has the bits of a fresh evaluation
    of them, and with the final filter on no member dominates another."""

    @staticmethod
    def assert_invariants(cfg, make_problem, ulps=0):
        # ulps > 0: the front within that many spacings of a fresh evaluation
        archive, _ = run(cfg, make_problem())
        problem = make_problem()
        x = archive.decisions
        assert len(archive) and x.shape == (len(archive), problem.dim)
        assert ((problem.lower <= x) & (x <= problem.upper)).all()
        fresh = problem.evaluate_batch(x)
        if ulps:
            assert (np.abs(archive.front - fresh) <= ulps * np.spacing(np.abs(fresh))).all()
        else:
            assert_same_bits(archive.front, fresh)
        if cfg.final_filter_enabled:
            assert mutually_nondominated(archive.front)

    @staticmethod
    def configs(kind, moves):
        # seed s gives d = 1 + s % 5; the filter is off at odd seeds, and the
        # sweep's sigma runs from 1e-3 to 10 over the seeds
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        for seed, sigma in enumerate(np.geomspace(1e-3, 10.0, 10)):
            yield seed, PfopsConfig(
                n_targets=2 + seed % 7, n_particles=1 + 3 * (seed % 4), sigma=sigma,
                metropolis_enabled=moves, final_filter_enabled=seed % 2 == 0, seed=seed,
                scalarization_kind=kind, utopian=utopian,
            )

    @GENERATED_FORMS
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("moves", [False, True], ids=["moves-off", "moves-on"])
    def test_archive_in_box_freshly_evaluated_nondominated(self, forms, kind, moves):
        for seed, cfg in self.configs(kind, moves):
            self.assert_invariants(cfg, partial(generated_problem, seed, forms))

    @pytest.mark.parametrize("forms", [("blas", "row"), ("sum", "blas")], ids="-".join)
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("moves", [False, True], ids=["moves-off", "moves-on"])
    def test_blas_front_within_ulps_of_a_fresh_evaluation(self, forms, kind, moves):
        # a BLAS-backed objective breaks the row-function condition in the
        # last bits (core's module docstring): the front is kept from the
        # batch that scored each incumbent, so it holds within a few ulps
        for seed, cfg in self.configs(kind, moves):
            self.assert_invariants(cfg, partial(generated_problem, seed, forms), ulps=4)

    @GENERATED_FORMS
    @pytest.mark.parametrize("moves", [False, True], ids=["moves-off", "moves-on"])
    def test_weighted_sum_finishes_where_an_objective_is_infinite(self, forms, moves):
        # +inf is a density of zero under every target that weights f1, so
        # those particles are never drawn and their proposals never accepted.
        # The run stops only when every first-step particle is at +inf (here
        # a lone particle, at 2 of 10 seeds at most), and says so
        hits = []
        finished = 0
        for seed, cfg in self.configs(ScalarizationKind.WEIGHTED_SUM, moves):
            make_problem = partial(infinite_on_part, partial(generated_problem, seed, forms), hits)
            try:
                self.assert_invariants(cfg, make_problem)
                finished += 1
            except DegenerateWeightsError as exc:
                assert str(exc) == "every particle has zero density under the current target"
                problem = make_problem()
                first = initialize(cfg, problem, np.random.default_rng(cfg.seed)).particles
                assert np.isinf(problem.evaluate_batch(first)[:, 0]).all()
        assert any(hits) and finished >= 8


def sum_problem_1d():
    """Both objectives CoordinateSums in one variable: each move replaces the
    only term."""
    return BiObjectiveProblem(
        name="sum-1d", dim=1, lower=[-3.0], upper=[3.0],
        f1=CoordinateSum(lambda x: x * x + np.sin(3.0 * x)),
        f2=CoordinateSum(lambda x: np.abs(x - 1.0) ** 0.8),
    )


def sum_problem_5d():
    """Both objectives CoordinateSums in five variables, f2 Kursawe's."""
    return BiObjectiveProblem(
        name="sum-5d", dim=5, lower=np.full(5, -5.0), upper=np.full(5, 5.0),
        f1=CoordinateSum(lambda x: np.abs(x) ** 0.5 + np.cos(2.0 * x)),
        f2=CoordinateSum(_kursawe_f2_term),
    )


def generic_copy(problem):
    """``problem`` with each objective behind a plain function computing the
    same values, so that every evaluation takes the full, generic path."""
    return replace(
        problem, f1=lambda x, f=problem.f1: f(x), f2=lambda x, f=problem.f2: f(x)
    )


class TestCoordinateSumPath:
    @pytest.mark.parametrize("make_problem", [kursawe_problem, sum_problem_1d, sum_problem_5d])
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_equals_generic_path(self, monkeypatch, make_problem, kind):
        # a proposal's CoordinateSum value from its row's carried terms and one
        # new term must have the bits of a full evaluation of the row
        self._compare_with_generic(monkeypatch, make_problem, kind, moves=True)

    @pytest.mark.parametrize("make_problem", [kursawe_problem, sum_problem_1d, sum_problem_5d])
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_equals_generic_path_moves_off(self, monkeypatch, make_problem, kind):
        # with moves off the terms are computed at step 1 alone, and each later
        # step's values are step 1's, carried through resampling
        self._compare_with_generic(monkeypatch, make_problem, kind, moves=False)

    @staticmethod
    def _compare_with_generic(monkeypatch, make_problem, kind, moves):
        assert isinstance(make_problem().f2, CoordinateSum)
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        default_rng = np.random.default_rng
        made = []

        def recording_rng(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        for seed in range(20):
            cfg = PfopsConfig(
                n_targets=4, n_particles=10, sigma=1.5, seed=seed, metropolis_enabled=moves,
                final_filter_enabled=seed % 2 == 0, scalarization_kind=kind, utopian=utopian,
            )
            sides = []
            for problem in (make_problem(), generic_copy(make_problem())):
                made.clear()
                archive, evals = run(cfg, problem)
                assert len(made) == 1
                sides.append((archive, evals, made[0].bit_generator.state))
            (new, new_evals, new_state), (ref, ref_evals, ref_state) = sides
            assert_same_bits(new.decisions, ref.decisions)
            assert_same_bits(new.front, ref.front)
            assert new_evals == ref_evals == 2 * 4 * 10 * (1 + problem.dim if moves else 1)
            assert new_state == ref_state

    @staticmethod
    def _moves_problem(term):
        return BiObjectiveProblem(
            name="moves", dim=2, lower=[0.0, 0.0], upper=[1.0, 1.0],
            f1=lambda x: x[:, 0].copy(), f2=CoordinateSum(term),
        )

    def _sweep_raises(self, term, message):
        # the particles lie in [0, 0.5]^2, so their own evaluation passes and
        # only a proposal can meet the term's fault
        problem = self._moves_problem(term)
        pop = make_population(np.random.default_rng(2).uniform(0.0, 0.5, size=(30, 2)))
        with pytest.raises(InvalidInputError, match=message) as err:
            metropolis_sweep(pop, weighted_sum(0.5), problem, 0.5, np.random.default_rng(3))
        assert problem.counter.count == 2 * 30  # the population's evaluation alone
        return problem, str(err.value)

    def test_nan_at_a_proposal_names_the_point(self):
        problem, message = self._sweep_raises(
            lambda x: np.where(x > 0.5, np.nan, x), r"^objectives of problem 'moves' are NaN at point "
        )
        point = ast.literal_eval(re.search(r"at point (\[[^]]*\])", message).group(1))
        assert max(point) > 0.5
        # the same message as a full evaluation of that point, which counts nothing either
        with pytest.raises(InvalidInputError) as fresh:
            problem.evaluate_batch(point)
        assert str(fresh.value) == message
        assert problem.counter.count == 2 * 30

    def test_complex_term_at_proposals_refused(self):
        self._sweep_raises(
            lambda x: x + 0j if x.ndim == 1 else x,
            r"^the term of objective f2 of problem 'moves' must be real numbers, "
            r"got dtype complex128$",
        )

    def test_wrong_shape_term_at_proposals_refused(self):
        self._sweep_raises(
            lambda x: x[:, None] if x.ndim == 1 else x,
            r"^the term of objective f2 of problem 'moves' must return one value per "
            r"coordinate, shape \(\d+,\), got \(\d+, 1\)$",
        )


class TestSweepCommit:
    """``_sweep`` commits each dimension from full-length proposal buffers
    that hold only the in-box batch's entries, so what it carries must be
    what a fresh scoring of the swept particles gives."""

    @pytest.mark.parametrize("make_problem", [sum_problem_5d, kursawe_problem])
    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 100.0])
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_carried_scores_equal_a_fresh_scoring(self, make_problem, sigma, kind):
        # at sigma = 100 most proposals leave the box [-5, 5]^d, so a commit
        # that read a buffer entry outside the batch would carry a stale value
        utopian = (-30.0, -30.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        moved = 0
        for seed in range(4):
            problem = make_problem()
            rng = np.random.default_rng(seed)
            particles = initialize(PfopsConfig(2, 80), problem, rng).particles
            s = Scalarization(kind, rng.random(), utopian)
            objectives, log_pi, terms = _score(particles, s, problem)
            before = particles.copy()
            _sweep(particles, log_pi, terms, _incumbent(particles, log_pi, objectives),
                   s, problem, sigma, rng)
            moved += int((particles != before).sum())
            _, fresh_log_pi, fresh_terms = _score(particles, s, problem)
            assert_same_bits(log_pi, fresh_log_pi)
            assert len(terms) == len(fresh_terms) == sum(
                isinstance(f, CoordinateSum) for f in (problem.f1, problem.f2)
            )
            for carried, fresh in zip(terms, fresh_terms):
                assert_same_bits(carried, fresh)
        assert moved  # some proposal was accepted at every sigma


class TestScoreKernel:
    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_log_pi_is_log_density_values(self, kind, lam):
        # _score calls the kernel on the evaluation's own array; its log pi
        # must have the bits of the checked public call
        utopian = (-3.0, -3.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        s = Scalarization(kind, lam, utopian)
        problem = edge_values_problem()
        grid = np.linspace(-1.0, 1.0, 21)
        x = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        values = problem.evaluate_batch(x)
        assert np.isposinf(values).any() and (np.signbit(values) & (values == 0)).any()
        expected = s.log_density_values(values)
        assert np.isneginf(expected).any() and np.isfinite(expected).any()
        objectives, log_pi, terms = _score(x, s, problem)
        assert_same_bits(objectives, values)
        assert_same_bits(log_pi, expected)
        assert terms == []
