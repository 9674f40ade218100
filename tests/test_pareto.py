import numpy as np
import pytest
from scipy.spatial.distance import cdist

from pfops.errors import InvalidInputError, NotFoundError
from pfops.pareto import (
    as_front,
    dominates,
    hypervolume_2d,
    igd,
    nondominated_filter,
    nondominated_mask,
    peel_fronts,
    read_front_csv,
    reference_front,
    write_front_csv,
)
from pfops.problems import fonseca_fleming_problem


def brute_force_mask(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and np.all(points[j] <= points[i]) and np.any(points[j] < points[i]):
                mask[i] = False
                break
    return mask


def repeated_mask_peel(points):
    """Rank by re-filtering what is left: one nondominated_mask per front."""
    points = np.asarray(points, dtype=float)
    remaining = np.arange(len(points))
    fronts = []
    while len(remaining):
        on_front = nondominated_mask(points[remaining])
        fronts.append(remaining[on_front])
        remaining = remaining[~on_front]
    return fronts


class TestDominates:
    def test_strict_both(self):
        assert dominates((1.0, 2.0), (2.0, 3.0))

    def test_equal_vectors(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable(self):
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        assert not dominates((3.0, 1.0), (1.0, 3.0))

    def test_weak_one_coordinate(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 5, size=(1000, 3, 2)).astype(float)
        for a, b, c in pts:
            assert not dominates(a, a)  # irreflexive
            if dominates(a, b):
                assert not dominates(b, a)  # antisymmetric
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)  # transitive


class TestNondominatedFilter:
    def test_hand_example(self):
        pts = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(
            nondominated_filter(pts), [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]]
        )

    def test_empty(self):
        assert nondominated_filter(np.zeros((0, 2))).shape == (0, 2)

    def test_identical_points_all_retained(self):
        pts = np.ones((5, 2))
        assert len(nondominated_filter(pts)) == 5

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 2))
        once = nondominated_filter(pts)
        np.testing.assert_array_equal(nondominated_filter(once), once)

    def test_order_preserved(self):
        pts = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        np.testing.assert_array_equal(nondominated_filter(pts), pts)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(12)
        for _ in range(250):
            n = int(rng.integers(1, 65))
            pts = rng.integers(0, 6, size=(n, 2)).astype(float)  # many ties
            np.testing.assert_array_equal(nondominated_mask(pts), brute_force_mask(pts))
        for _ in range(250):
            n = int(rng.integers(1, 65))
            pts = rng.normal(size=(n, 2))
            np.testing.assert_array_equal(nondominated_mask(pts), brute_force_mask(pts))

    def test_nan_row_rejected(self):
        # a NaN would poison the sweep's running minimum and keep (2, 2) alive
        with pytest.raises(InvalidInputError, match="row 1"):
            nondominated_mask([[0.0, 1.0], [1.0, np.nan], [2.0, 2.0]])

    def test_infinite_values_ranked(self):
        pts = np.array(
            [[np.inf, 0.0], [0.0, np.inf], [-np.inf, 5.0], [1.0, 1.0], [np.inf, np.inf]]
        )
        np.testing.assert_array_equal(nondominated_mask(pts), brute_force_mask(pts))

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, np.inf]],
            [[0.0, np.inf], [0.0, np.inf], [1.0, np.inf]],
            [[-np.inf, np.inf], [0.0, np.inf], [np.inf, np.inf]],
        ],
    )
    def test_infinite_f2_in_smallest_f1_group_survives(self, pts):
        # the first group's "no earlier group" sentinel is +inf; it must not
        # mark a point whose own f2 is +inf as dominated
        np.testing.assert_array_equal(nondominated_mask(pts), brute_force_mask(pts))
        assert nondominated_mask(pts)[0]


class TestPeelFronts:
    @pytest.mark.parametrize(
        "grid, seed",
        [
            (np.arange(5.0), 40),
            (np.array([-np.inf, 0.0, 1.0, 2.0, np.inf]), 41),
            (np.array([-np.inf, np.inf]), 42),
        ],
    )
    def test_equals_repeated_mask_peel(self, grid, seed):
        # tie-heavy integer grids, so exact duplicates and equal f1 or f2 abound
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            pts = grid[rng.integers(0, len(grid), size=(n, 2))]
            fronts = list(peel_fronts(pts))
            expected = repeated_mask_peel(pts)
            assert len(fronts) == len(expected)
            for front, want in zip(fronts, expected):
                assert front.dtype.kind == "i"
                np.testing.assert_array_equal(front, want)

    def test_empty_and_single_point(self):
        assert list(peel_fronts(np.zeros((0, 2)))) == []
        assert [f.tolist() for f in peel_fronts([3.0, 4.0])] == [[0]]

    def test_nan_row_rejected_before_any_front(self):
        fronts = peel_fronts([[0.0, 0.0], [1.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(InvalidInputError, match="row 2"):
            next(fronts)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (4, 1), (2, 2, 2)])
    def test_wrong_shape_named(self, shape):
        with pytest.raises(InvalidInputError, match=rf"shape \({shape[0]},"):
            as_front(np.ones(shape))

    def test_mask_rejects_a_single_vector(self):
        # a mask has one entry per input row; a (2,) vector has no rows
        with pytest.raises(InvalidInputError, match=r"shape \(2,\)"):
            nondominated_mask([1.0, 2.0])


class TestIgd:
    def test_identical_fronts(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(pts, pts) == 0.0

    def test_single_pair(self):
        assert igd(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)
        assert igd(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == 5.0  # (2,) is one point

    def test_mean_over_reference(self):
        ref = np.array([[0.0, 0.0], [2.0, 0.0]])
        est = np.array([[0.0, 0.0]])
        assert igd(est, ref) == pytest.approx(1.0)

    def test_empty_is_error(self):
        with pytest.raises(InvalidInputError):
            igd(np.zeros((0, 2)), np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            igd(np.array([[0.0, 0.0]]), np.zeros((0, 2)))

    def test_zero_iff_reference_covered(self):
        rng = np.random.default_rng(8)
        ref = rng.normal(size=(20, 2))
        est = np.vstack([ref, rng.normal(size=(5, 2))])
        assert igd(est, ref) == 0.0
        assert igd(ref[:-1], ref) > 0.0

    @pytest.mark.parametrize(
        "name, resolution", [("convex", 100), ("fonseca", 200), ("kursawe", 201)]
    )
    def test_bit_identical_to_cdist(self, name, resolution):
        ref = reference_front(name, resolution)
        rng = np.random.default_rng(len(ref))
        for n in [1, 2, 3, 17, 200, *rng.integers(1, 201, size=40)]:
            for scale in [0.0, 1e-3, 1.0, 1e6]:
                est = ref[rng.integers(len(ref), size=n)] + scale * rng.normal(size=(n, 2))
                expected = float(cdist(ref, est).min(axis=1).mean())
                assert igd(est, ref) == expected, (name, n, scale)
        est = ref[:5].copy()
        est[0, 0] = np.inf
        est[1, 1] = -np.inf
        assert igd(est, ref) == float(cdist(ref, est).min(axis=1).mean())
        est[2, 0] = np.nan
        assert np.isnan(igd(est, ref)) and np.isnan(cdist(ref, est).min(axis=1).mean())

    @pytest.mark.parametrize(
        "estimate, reference",
        [
            (np.zeros((4, 3)), np.zeros((5, 2))),  # would read the first two columns
            (np.zeros((4, 1)), np.zeros((5, 2))),
            (np.zeros((4, 2)), np.zeros((5, 3))),
            (np.zeros((4, 3)), np.zeros((5, 3))),  # matching, but not objective pairs
            (np.zeros(3), np.zeros((5, 2))),
            (np.zeros((2, 4, 2)), np.zeros((5, 2))),
        ],
    )
    def test_fronts_must_be_n_by_2(self, estimate, reference):
        with pytest.raises(InvalidInputError, match=r"estimate shape \(.*\) and reference shape"):
            igd(estimate, reference)


class TestHypervolume:
    def test_unit_square(self):
        assert hypervolume_2d(np.array([[0.0, 0.0]]), (1.0, 1.0)) == pytest.approx(1.0)

    def test_two_strips(self):
        front = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert hypervolume_2d(front, (1.0, 1.0)) == pytest.approx(0.75)

    def test_empty_front(self):
        assert hypervolume_2d(np.zeros((0, 2)), (1.0, 1.0)) == 0.0

    def test_non_dominating_point_is_error(self):
        with pytest.raises(InvalidInputError, match=r"\[2.0, 0.5\]"):
            hypervolume_2d(np.array([[0.0, 0.0], [2.0, 0.5]]), (1.0, 1.0))

    def test_three_column_front_rejected(self):
        # reshape(-1, 2) used to re-pair [[1, 2, 3], [4, 5, 6]] as three points
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            hypervolume_2d(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), (10.0, 10.0))

    def test_single_vector_is_one_point(self):
        assert hypervolume_2d(np.array([0.0, 0.0]), (1.0, 1.0)) == 1.0

    def test_duplicates_and_dominated_add_nothing(self):
        base = np.array([[0.0, 0.5], [0.5, 0.0]])
        padded = np.vstack([base, base, [[0.6, 0.6]]])
        assert hypervolume_2d(padded, (1.0, 1.0)) == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "ref_point",
        [[1.0], [np.nan, 1.0], (1.0, np.inf), (1.0, 1.0, 1.0), "ab", 1.0, [[1.0], [1.0]], (True, 1.0)],
    )
    def test_bad_reference_point_rejected(self, ref_point):
        # [1] used to raise a raw IndexError and [nan, 1] to blame the front
        with pytest.raises(InvalidInputError, match="ref_point must be two finite numbers"):
            hypervolume_2d(np.array([[0.0, 0.0]]), ref_point)

    def test_reference_point_as_array(self):
        assert hypervolume_2d(np.array([[0.0, 0.0]]), np.array([2, 3])) == 6.0

    def test_monotone_under_new_nondominated_point(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            front = rng.uniform(0.0, 0.9, size=(6, 2))
            extra = rng.uniform(0.0, 0.9, size=(1, 2))
            before = hypervolume_2d(front, (1.0, 1.0))
            after = hypervolume_2d(np.vstack([front, extra]), (1.0, 1.0))
            assert after >= before - 1e-12


class TestReferenceFronts:
    def test_convex_resolution_3(self):
        np.testing.assert_allclose(
            reference_front("convex", 3), [[0.0, 50.0], [12.5, 12.5], [50.0, 0.0]]
        )

    def test_convex_curve_identity(self):
        front = reference_front("convex", 100)
        lhs = np.sqrt(front[:, 0] / 50.0) + np.sqrt(front[:, 1] / 50.0)
        np.testing.assert_allclose(lhs, 1.0, atol=1e-9)

    def test_fonseca_endpoints(self):
        front = reference_front("fonseca", 200)
        hi = 1.0 - np.exp(-4.0)
        np.testing.assert_allclose(front[0], [0.0, hi], atol=1e-12)
        np.testing.assert_allclose(front[-1], [hi, 0.0], atol=1e-12)

    def test_fonseca_matches_grid_oracle(self):
        # brute force: dense grid + non-dominated filter
        problem = fonseca_fleming_problem()
        axis = np.linspace(-4.0, 4.0, 401)
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([g1.ravel(), g2.ravel()], axis=1)
        values = np.stack([problem.f1(grid), problem.f2(grid)], axis=1)
        brute = values[nondominated_mask(values)]
        parametric = reference_front("fonseca", 200)
        assert igd(parametric, brute) < 0.01
        assert igd(brute, parametric) < 0.01

    def test_kursawe_cached_front(self):
        front = reference_front("kursawe", 201)
        assert len(front) > 50
        assert np.all(np.diff(front[:, 0]) >= 0)  # sorted by f1
        assert nondominated_mask(front).all()
        assert front[:, 0].min() >= -20.0 - 1e-9 and front[:, 0].max() <= -14.25
        assert front[:, 1].min() >= -12.0 and front[:, 1].max() <= 0.1
        # the all-zero decision gives (-20, 0), the f1-optimal member
        assert np.any(np.all(np.isclose(front, [-20.0, 0.0]), axis=1))

    def test_kursawe_small_grid_computed_on_the_fly(self):
        front = reference_front("kursawe", 21)
        assert nondominated_mask(front).all()
        assert np.all(np.diff(front[:, 0]) >= 0)
        assert np.isfinite(front).all()

    @pytest.mark.parametrize("name, resolution", [("convex", 50), ("fonseca", 40), ("kursawe", 201)])
    def test_loaded_once_and_read_only(self, name, resolution):
        first = reference_front(name, resolution)
        second = reference_front(name, resolution)
        np.testing.assert_array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            second[0, 0] = 0.0

    def test_unknown_name(self):
        with pytest.raises(NotFoundError):
            reference_front("zdt1", 10)

    @pytest.mark.parametrize("name", [["convex"], {"convex": 1}, None, 3])
    def test_name_not_a_string_is_not_found(self, name):
        # a list used to escape the cache as a raw TypeError: unhashable type
        with pytest.raises(NotFoundError, match="no reference front for"):
            reference_front(name, 10)

    def test_resolution_validation(self):
        with pytest.raises(InvalidInputError):
            reference_front("convex", 1)

    @pytest.mark.parametrize(
        "name, resolution",
        [("convex", 10.5), ("kursawe", 10.0), ("convex", "10"), ("fonseca", True), ("convex", [3])],
    )
    def test_non_integer_resolution_rejected(self, name, resolution):
        # these used to escape as raw TypeErrors from np.linspace or `<`
        with pytest.raises(InvalidInputError, match="resolution must be an integer"):
            reference_front(name, resolution)

    def test_numpy_integer_resolution_accepted(self):
        assert reference_front("convex", np.int64(50)) is reference_front("convex", 50)


class TestFrontCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        front = rng.normal(size=(40, 2)) * np.array([1e-7, 1e9])
        path = tmp_path / "front.csv"
        write_front_csv(front, path)
        back = read_front_csv(path)
        np.testing.assert_array_equal(back, front[np.argsort(front[:, 0], kind="stable")])

    def test_integral_values_have_no_decimal_point(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(np.array([[50.0, 0.0], [0.0, 50.0]]), path)
        assert path.read_text() == "f1,f2\n0,50\n50,0\n"

    def test_three_column_front_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            write_front_csv(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), tmp_path / "f.csv")

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            read_front_csv(path)
