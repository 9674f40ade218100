import itertools
import re
from functools import partial

import numpy as np
import pytest

from pfops.errors import InvalidConfigError, InvalidInputError
from pfops.problems import convex_problem
from pfops.scalarize import (
    Scalarization,
    ScalarizationKind,
    equal_interval_schedule,
    log_density,
)

weighted_sum = partial(Scalarization, ScalarizationKind.WEIGHTED_SUM)


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

    @pytest.mark.parametrize("k", [2.7, 3.0, True, "3", None])
    def test_k_not_an_integer_rejected(self, k):
        # 2.7 used to give two targets
        with pytest.raises(InvalidConfigError, match="integer of at least 2 targets"):
            equal_interval_schedule(k)

    def test_numpy_integer_k_accepted(self):
        assert equal_interval_schedule(np.int64(3)).tolist() == [0.0, 0.5, 1.0]


class TestScalarizationConstruction:
    def test_lambda_range(self):
        with pytest.raises(InvalidConfigError):
            weighted_sum(-0.01)
        with pytest.raises(InvalidConfigError):
            weighted_sum(1.01)

    @pytest.mark.parametrize("lam", [True, False, "0.5", None, float("nan"), [0.5]])
    def test_lambda_not_a_number_rejected(self, lam):
        # True used to build, and "0.5" to raise a raw TypeError
        with pytest.raises(InvalidConfigError, match="lambda must be a number in"):
            Scalarization(ScalarizationKind.WEIGHTED_SUM, lam)
        with pytest.raises(InvalidConfigError, match="lambda must be a number in"):
            Scalarization(ScalarizationKind.TCHEBYCHEFF, lam, (0.0, 0.0))

    @pytest.mark.parametrize("lam", [0, 1, 0.5, np.float64(0.25), np.float32(0.75), np.int64(1)])
    def test_lambda_numbers_accepted(self, lam):
        assert weighted_sum(lam).lam == lam

    def test_tchebycheff_needs_utopian(self):
        with pytest.raises(InvalidConfigError):
            Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.5)

    def test_weighted_sum_takes_no_utopian(self):
        with pytest.raises(InvalidConfigError):
            Scalarization(ScalarizationKind.WEIGHTED_SUM, 0.5, utopian=(0.0, 0.0))

    @pytest.mark.parametrize(
        "args", [("weighted-sum", 0.5), ("tchebycheff", 0.5, (0, 0))], ids=["ws", "tch"]
    )
    def test_kind_string_rejected(self, args):
        # the first used to build and then raise a raw TypeError when scored; the
        # second failed with "the weighted-sum scalarization takes no utopian"
        with pytest.raises(
            InvalidConfigError,
            match=rf"^scalarization_kind must be a ScalarizationKind, got '{args[0]}'$",
        ):
            Scalarization(*args)

    @pytest.mark.parametrize(
        "utopian",
        [(float("nan"), 0.0), (0.0, float("-inf")), ("-1", 0.0), (True, 0.0), (0.0,), np.array(0.0)],
    )
    def test_utopian_must_be_two_finite_numbers(self, utopian):
        with pytest.raises(InvalidConfigError, match="utopian"):
            Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.5, utopian)


class TestLogDensity:
    def test_weighted_sum_at_f1_minimum(self):
        f = convex_problem().evaluate_batch((0.0, 0.0))
        assert weighted_sum(0.0).log_density_values(f).tolist() == [0.0]

    def test_weighted_sum_midpoint(self):
        # -[0.5 * 0 + 0.5 * 50]
        f = convex_problem().evaluate_batch((0.0, 0.0))
        assert weighted_sum(0.5).log_density_values(f) == pytest.approx([-25.0])

    def test_tchebycheff_hand_value(self):
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.5, utopian=(0.0, 0.0))
        # -max{0.5 * |1 - 0|, 0.5 * |3 - 0|}
        assert s.log_density_values(np.array([[1.0, 3.0]])) == pytest.approx([-1.5])

    def test_tchebycheff_hand_value_at_a_nonzero_utopian(self):
        # -max{0.5 * |1 - (-1)|, 0.5 * |1 - (-2)|}; adding z would give -0.5
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.5, utopian=(-1.0, -2.0))
        assert s.log_density_values([[1.0, 1.0]]).tolist() == [-1.5]
        # the score table's path: a row per lambda of a column
        table = log_density(
            np.array([[1.0, 1.0], [3.0, -1.0]]), np.array([[0.0], [0.5], [1.0]]),
            ScalarizationKind.TCHEBYCHEFF, (-1.0, -2.0),
        )
        assert table.tolist() == [[-2.0, -4.0], [-1.5, -2.0], [-3.0, -1.0]]

    def test_vectorized_matches_scalar(self):
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.25, utopian=(-1.0, -2.0))
        batch = np.array([[0.0, 1.0], [3.0, 2.0], [0.5, 0.25]])
        singles = [s.log_density_values(row[np.newaxis])[0] for row in batch]
        np.testing.assert_allclose(s.log_density_values(batch), singles)

    @pytest.mark.parametrize(
        "s",
        [weighted_sum(0.3), Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.3, (-1.0, -2.0))],
        ids=["weighted-sum", "tchebycheff"],
    )
    @pytest.mark.parametrize("shape", [(7, 2), (2,)])
    def test_input_never_written(self, s, shape):
        # the arithmetic runs in place, but only on its own temporaries; a
        # single (2,) point is not a batch, and is rejected untouched
        objectives = np.random.default_rng(4).normal(size=shape)
        before = objectives.copy()
        if shape == (2,):
            with pytest.raises(InvalidInputError, match=r"shape \(n, 2\), got \(2,\)"):
                s.log_density_values(objectives)
        else:
            assert s.log_density_values(objectives).shape == (7,)
        assert objectives.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "s",
        [weighted_sum(0.3), Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.3, (-1.0, -2.0))],
        ids=["weighted-sum", "tchebycheff"],
    )
    @pytest.mark.parametrize("shape", [(2,), (3,), (5, 3), (2, 3, 2), (), (5, 1)])
    def test_shape_other_than_n_by_2_rejected(self, s, shape):
        # (3,) and (5, 3) used to be scored from their first two columns
        objectives = np.ones(shape)
        with pytest.raises(InvalidInputError, match=rf"got {re.escape(str(shape))}$"):
            s.log_density_values(objectives)

    @pytest.mark.parametrize(
        "objectives, dtype",
        [
            (np.array([[1 + 2j, 3]]), "complex128"),
            ([["1", "2"]], "<U1"),
            ([[None, 1]], "object"),
            ([[1 + 2j, 3]], "complex128"),
            ([[1, 2], [3]], None),
        ],
        ids=["complex-array", "strings", "none", "python-complex", "ragged"],
    )
    def test_non_real_dtype_rejected(self, objectives, dtype):
        # these used to score -2.0 (the imaginary part dropped), -1.5 (the
        # strings parsed) and NaN, or to raise a raw TypeError, and a ragged
        # nesting numpy's raw ValueError
        fault = (
            rf"must be real numbers, got dtype {re.escape(dtype)}$" if dtype
            else "cannot be read as an array: setting an array element with a sequence"
        )
        with pytest.raises(InvalidInputError, match=f"^objective values {fault}"):
            weighted_sum(0.5).log_density_values(objectives)

    def test_real_dtypes_scored_as_floats(self):
        s = weighted_sum(0.5)
        for objectives in ([[1, 2]], [[1.0, 2.0]], np.array([[1, 2]], dtype=np.uint8),
                           np.array([[1, 2]], dtype=np.float32)):
            assert s.log_density_values(objectives).tolist() == [-1.5]
        assert s.log_density_values(np.array([[True, False]])).tolist() == [-0.5]


class TestLogDensityTable:
    # rows of +-inf and of +-0.0 in each objective: a zero weight must make
    # its term an exact +0, never a product (0 * inf is NaN)
    EDGES = np.array(
        [[np.inf, 2.0], [-np.inf, 2.0], [2.0, np.inf], [2.0, -np.inf],
         [-0.0, 3.0], [3.0, -0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -4.25]]
    )

    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    @pytest.mark.parametrize(
        "lams",
        [equal_interval_schedule(2), equal_interval_schedule(3), [0.75, 1.0, 0.0, 0.25, 1.0]],
        ids=["K=2", "K=3", "edges-inside"],
    )
    def test_rows_are_log_density_values(self, kind, lams):
        # each row has the bits of its scalarization's values, wherever a
        # lambda of exactly 0 or 1 sits among the rows
        utopian = (-0.5, -5.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        lams = np.asarray(lams, dtype=float)
        for objectives in (self.EDGES, np.random.default_rng(0).normal(size=(50, 2))):
            for lam, row in zip(lams, log_density(objectives, lams[:, None], kind, utopian)):
                expected = Scalarization(kind, lam, utopian).log_density_values(objectives)
                assert row.tobytes() == expected.tobytes()
                assert not np.isnan(row).any()

    @pytest.mark.parametrize("kind", list(ScalarizationKind))
    def test_one_zero_weight_rule_for_floats_and_rows(self, kind):
        # a zero-weighted term is +0 and +0 + -0.0 is +0, so the weighted sum
        # gives -0.0 at lambda 1 for f2 = -0.0 and at lambda 0 for f1 = -0.0
        # (a dropped term gave +0.0); a table row follows the same rule
        # wherever 0 and 1 sit among the lambdas
        utopian = (-0.5, -5.0) if kind is ScalarizationKind.TCHEBYCHEFF else None
        if kind is ScalarizationKind.WEIGHTED_SUM:
            for lam, objectives in ((1.0, [[2.0, -0.0]]), (0.0, [[-0.0, 2.0]])):
                value = weighted_sum(lam).log_density_values(objectives)
                assert value.tolist() == [0.0] and np.signbit(value).tolist() == [True]
        for i, j in itertools.permutations(range(4), 2):
            lams = np.array([0.3, 0.5, 0.9, 0.1])
            lams[i], lams[j] = 0.0, 1.0
            for lam, row in zip(lams, log_density(self.EDGES, lams[:, None], kind, utopian)):
                expected = Scalarization(kind, lam, utopian).log_density_values(self.EDGES)
                assert row.tobytes() == expected.tobytes()


def assert_ignores_objective(s, ignored, seed):
    """log pi under ``s`` does not move when objective ``ignored`` is bumped
    or made infinite (either sign): the result is never NaN, and no
    RuntimeWarning (an error under pytest) comes from ``0 * inf``."""
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(100, 2))
    expected = s.log_density_values(f)
    bumped = f.copy()
    bumped[:, ignored] += rng.exponential(size=100)
    np.testing.assert_array_equal(s.log_density_values(bumped), expected)
    infinite = f.copy()
    infinite[::2, ignored] = np.inf
    infinite[1::2, ignored] = -np.inf
    np.testing.assert_array_equal(s.log_density_values(infinite), expected)
    # the other objective still counts: +inf there is -inf, never NaN
    both = np.zeros((2, 2))
    both[:, 1 - ignored] = np.inf
    both[:, ignored] = [np.inf, -np.inf]
    assert s.log_density_values(both).tolist() == [-np.inf, -np.inf]


TCHEBYCHEFF_Z = (-1.0, -0.5)


class TestDensityProperties:
    def test_lambda0_ignores_f2(self):
        assert_ignores_objective(weighted_sum(0.0), 1, seed=0)

    def test_lambda1_ignores_f1(self):
        assert_ignores_objective(weighted_sum(1.0), 0, seed=1)

    def test_tchebycheff_lambda0_ignores_f2(self):
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.0, utopian=TCHEBYCHEFF_Z)
        assert_ignores_objective(s, 1, seed=4)

    def test_tchebycheff_lambda1_ignores_f1(self):
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 1.0, utopian=TCHEBYCHEFF_Z)
        assert_ignores_objective(s, 0, seed=5)

    def test_single_vector_with_ignored_infinity(self):
        assert weighted_sum(0.0).log_density_values([[3.0, np.inf]]).tolist() == [-3.0]
        assert weighted_sum(1.0).log_density_values([[-np.inf, 2.0]]).tolist() == [-2.0]

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
        s = Scalarization(ScalarizationKind.TCHEBYCHEFF, 0.7, utopian=(-1.0, -0.5))
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
