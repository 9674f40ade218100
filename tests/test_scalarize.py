import numpy as np
import pytest

from pfops.errors import InvalidConfigError, InvalidInputError
from pfops.problems import convex_problem
from pfops.scalarize import (
    Scalarization,
    ScalarizationKind,
    equal_interval_schedule,
    tchebycheff,
    weighted_sum,
)


def analytic_weighted_sum_minimizer_convex(lam: float) -> np.ndarray:
    """Exact minimizer of the weighted-sum scalarized convex benchmark.

    Minimizing (1-lam)(x1^2 + x2^2) + lam((x1-5)^2 + (x2-5)^2): the gradient
    vanishes at x_j = 5 lam in each coordinate, and the quadratic is strictly
    convex, so (5 lam, 5 lam) is the unique minimizer.
    """
    if not 0.0 <= lam <= 1.0:
        raise InvalidInputError(f"lambda must lie in [0, 1], got {lam}")
    return np.array([5.0 * lam, 5.0 * lam])


class TestSchedule:
    def test_k2_endpoints(self):
        assert equal_interval_schedule(2).tolist() == [0.0, 1.0]

    def test_k3(self):
        assert equal_interval_schedule(3).tolist() == [0.0, 0.5, 1.0]

    def test_k5(self):
        assert equal_interval_schedule(5).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_k_too_small(self):
        with pytest.raises(InvalidConfigError):
            equal_interval_schedule(1)


class TestScalarizationConstruction:
    def test_lambda_range(self):
        with pytest.raises(InvalidConfigError):
            weighted_sum(-0.01)
        with pytest.raises(InvalidConfigError):
            weighted_sum(1.01)

    def test_tchebycheff_needs_utopian(self):
        with pytest.raises(InvalidConfigError):
            Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.5)

    def test_weighted_sum_takes_no_utopian(self):
        with pytest.raises(InvalidConfigError):
            Scalarization(ScalarizationKind.WEIGHTED_SUM, 0.5, utopian=(0.0, 0.0))

    @pytest.mark.parametrize(
        "utopian", [(float("nan"), 0.0), (0.0, float("-inf")), ("-1", 0.0), (True, 0.0), (0.0,)]
    )
    def test_utopian_must_be_two_finite_numbers(self, utopian):
        with pytest.raises(InvalidConfigError, match="utopian"):
            tchebycheff(0.5, utopian)


class TestLogDensity:
    def test_weighted_sum_at_f1_minimum(self):
        f = convex_problem().evaluate((0.0, 0.0))
        assert weighted_sum(0.0).log_density_values(f) == 0.0

    def test_weighted_sum_midpoint(self):
        # -[0.5 * 0 + 0.5 * 50]
        f = convex_problem().evaluate((0.0, 0.0))
        assert weighted_sum(0.5).log_density_values(f) == pytest.approx(-25.0)

    def test_tchebycheff_hand_value(self):
        s = tchebycheff(0.5, utopian=(0.0, 0.0))
        # -max{0.5 * |1 - 0|, 0.5 * |3 - 0|}
        assert s.log_density_values(np.array([1.0, 3.0])) == pytest.approx(-1.5)

    def test_vectorized_matches_scalar(self):
        s = tchebycheff(0.25, utopian=(-1.0, -2.0))
        batch = np.array([[0.0, 1.0], [3.0, 2.0], [0.5, 0.25]])
        singles = [s.log_density_values(row) for row in batch]
        np.testing.assert_allclose(s.log_density_values(batch), singles)


class TestDensityProperties:
    def test_lambda0_ignores_f2(self):
        s = weighted_sum(0.0)
        rng = np.random.default_rng(0)
        f = rng.normal(size=(100, 2))
        bumped = f.copy()
        bumped[:, 1] += rng.exponential(size=100)
        np.testing.assert_array_equal(
            s.log_density_values(f), s.log_density_values(bumped)
        )

    def test_lambda1_ignores_f1(self):
        s = weighted_sum(1.0)
        rng = np.random.default_rng(1)
        f = rng.normal(size=(100, 2))
        bumped = f.copy()
        bumped[:, 0] += rng.exponential(size=100)
        np.testing.assert_array_equal(
            s.log_density_values(f), s.log_density_values(bumped)
        )

    def test_argmax_tracks_analytic_minimizer(self):
        problem = convex_problem()
        step = 0.05
        axis = np.arange(-5.0, 10.0 + step / 2, step)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([g1.ravel(), g2.ravel()], axis=1)
        values = np.stack([problem.f1(grid), problem.f2(grid)], axis=1)
        for lam in np.linspace(0.0, 1.0, 11):
            best = grid[np.argmax(weighted_sum(lam).log_density_values(values))]
            assert np.max(np.abs(best - 5.0 * lam)) <= step + 1e-12

    def test_tchebycheff_nonpositive_above_utopian(self):
        s = tchebycheff(0.7, utopian=(-1.0, -0.5))
        rng = np.random.default_rng(2)
        f = np.stack([rng.uniform(-1.0, 10.0, 500), rng.uniform(-0.5, 10.0, 500)], axis=1)
        assert np.all(s.log_density_values(f) <= 0.0)

    def test_translation_monotonicity(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(200, 2))
        for lam in (0.0, 0.3, 0.99):
            s = weighted_sum(lam)
            shifted = f + np.array([0.8, 0.0])
            assert np.all(s.log_density_values(shifted) < s.log_density_values(f))


class TestAnalyticMinimizer:
    def test_endpoints(self):
        np.testing.assert_allclose(analytic_weighted_sum_minimizer_convex(0.0), [0.0, 0.0])
        np.testing.assert_allclose(analytic_weighted_sum_minimizer_convex(1.0), [5.0, 5.0])

    def test_midpoint(self):
        np.testing.assert_allclose(analytic_weighted_sum_minimizer_convex(0.5), [2.5, 2.5])

    def test_lambda_validation(self):
        with pytest.raises(InvalidInputError):
            analytic_weighted_sum_minimizer_convex(1.5)

    def test_grid_search_cross_check(self):
        # independent brute force at step 0.01 over the full box
        problem = convex_problem()
        step = 0.01
        axis = np.arange(-5.0, 10.0 + step / 2, step)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([g1.ravel(), g2.ravel()], axis=1)
        f1 = problem.f1(grid)
        f2 = problem.f2(grid)
        for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
            best = grid[np.argmin((1.0 - lam) * f1 + lam * f2)]
            expected = analytic_weighted_sum_minimizer_convex(lam)
            assert np.max(np.abs(best - expected)) <= step / 2 + 1e-9
