import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from exact_stats import cdist
import pfops.pareto as pareto
from pfops.errors import InvalidInputError, NotFoundError
from pfops.nsga2 import crowding_distance
from pfops.pareto import (
    BENCHMARKS,
    as_front,
    dominates,
    hypervolume_2d,
    igd,
    nondominated_mask,
    peel_fronts,
    reference_front,
    write_front_csv,
)
from pfops.problems import PROBLEM_FACTORIES, fonseca_fleming_problem, kursawe_problem


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

    @pytest.mark.parametrize(
        "a, b, shapes",
        [([1, 2], [1, 2, 3], "(2,) and (3,)"), ([[0, 0]], [[1, 1], [2, 2]], "(1, 2) and (2, 2)")],
        ids=["lengths", "broadcast"],
    )
    def test_shapes_must_match(self, a, b, shapes):
        # the first used to raise numpy's raw broadcast ValueError, and the
        # second to broadcast one vector against two and return True
        message = rf"^a and b must have the same shape, got {re.escape(shapes)}$"
        with pytest.raises(InvalidInputError, match=message):
            dominates(a, b)
        assert dominates([0, 0, 0], [1, 1, 1])  # vectors of any one length

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
    """The non-dominated filter is ``points[nondominated_mask(points)]``."""

    def test_hand_example(self):
        pts = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(nondominated_mask(pts), [True, True, True, False])

    def test_empty(self):
        assert nondominated_mask(np.zeros((0, 2))).shape == (0,)

    def test_identical_points_all_retained(self):
        assert nondominated_mask(np.ones((5, 2))).all()

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 2))
        once = pts[nondominated_mask(pts)]
        assert nondominated_mask(once).all()

    def test_order_preserved(self):
        # one entry per input row, whatever the sort order inside
        pts = np.array([[3.0, 0.0], [0.0, 3.0], [1.0, 1.0], [4.0, 4.0], [0.5, 2.0]])
        np.testing.assert_array_equal(nondominated_mask(pts), [True, True, True, False, True])

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

    def test_front_rule_on_a_single_vector_and_infinities(self):
        # a (2,) vector is one row, NaN rule included; infinities of either sign pass
        with pytest.raises(InvalidInputError, match=r"^row 0 contains NaN: \[nan, nan\]$"):
            as_front([np.nan, np.nan])
        front = as_front([[np.inf, -np.inf], [0.0, 1.0]])
        assert front.tolist() == [[np.inf, -np.inf], [0.0, 1.0]]

    def test_mask_rejects_a_single_vector(self):
        # a mask has one entry per input row; a (2,) vector has no rows
        with pytest.raises(InvalidInputError, match=r"shape \(2,\)"):
            nondominated_mask([1.0, 2.0])


# the front rule and each reader of a front, which refuses a NaN row by it
FRONT_READERS = {
    "as_front": as_front,
    "peel_fronts": lambda front: list(peel_fronts(front)),
    "nondominated_mask": nondominated_mask,
    "crowding_distance": crowding_distance,
    "igd-estimate": lambda front: igd(front, [[0.0, 0.0]]),
    "igd-reference": lambda front: igd([[0.0, 0.0]], front),
    "hypervolume_2d": lambda front: hypervolume_2d(front, (10.0, 10.0)),
}


@pytest.mark.parametrize("read", FRONT_READERS.values(), ids=FRONT_READERS)
@pytest.mark.parametrize(
    "front, text",
    [
        ([[0.0, 1.0], [np.nan, 0.0]], "row 1 contains NaN: [nan, 0.0]"),
        ([[0.0, 1.0], [1.0, 0.0], [2.0, np.nan], [np.nan, 3.0]], "row 2 contains NaN: [2.0, nan]"),
        ([[np.nan, np.inf]], "row 0 contains NaN: [nan, inf]"),
    ],
)
def test_front_readers_refuse_a_nan_row_with_one_text(read, front, text):
    with pytest.raises(InvalidInputError) as info:
        read(np.array(front))
    assert str(info.value) == text


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

    @pytest.mark.parametrize("side", ["estimate", "reference"])
    def test_nan_row_named_before_an_empty_front(self, side):
        # each front is read by as_front, NaN rule included, before the
        # emptiness check; it used to say "igd requires non-empty ..."
        fronts = {"estimate": np.zeros((0, 2)), "reference": np.zeros((0, 2))}
        fronts[side] = np.array([[np.nan, 0.0]])
        with pytest.raises(InvalidInputError, match=r"^row 0 contains NaN: \[nan, 0\.0\]$"):
            igd(fronts["estimate"], fronts["reference"])

    @pytest.mark.parametrize("side", ["estimate", "reference"])
    def test_nan_row_rejected(self, side):
        # igd([[nan, 0]], [[0, 0]]) used to return nan
        fronts = {"estimate": np.array([[0.0, 0.0]]), "reference": np.array([[1.0, 1.0]])}
        fronts[side] = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(InvalidInputError, match=r"^row 1 contains NaN: \[nan, 0\.0\]$"):
            igd(fronts["estimate"], fronts["reference"])

    @pytest.mark.parametrize("n_ref, n_est", [(1000, 37), (5, 9000), (8193, 1), (300, 300), (1, 1)])
    def test_blocks_give_the_full_arrays_bits(self, n_ref, n_est):
        # igd works a block of reference rows at a time (8193 x 1 spans two
        # blocks, 1000 x 37 five, 5 x 9000 five of one row); each block runs
        # the per-entry float operations of the full (n_ref, n_est) arrays, so
        # the bits are theirs
        rng = np.random.default_rng(n_ref + n_est)
        est, ref = rng.normal(size=(n_est, 2)), rng.normal(size=(n_ref, 2))
        d1 = ref[:, 0, None] - est[:, 0]
        d2 = ref[:, 1, None] - est[:, 1]
        full = float(np.sqrt((d1 * d1 + d2 * d2).min(axis=1)).mean())
        assert igd(est, ref).hex() == full.hex()

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
        # cdist gives NaN for a NaN row; igd rejects it, as the ranking does
        est[2, 0] = np.nan
        with pytest.raises(InvalidInputError, match=r"^row 2 contains NaN"):
            igd(est, ref)

    @pytest.mark.parametrize(
        "estimate, reference, where",
        [
            ([[np.inf, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [1.0, 1.0]],
             "column 0: estimate row 0 and reference row 0 both hold inf"),
            ([[0.0, 1.0], [1.0, -np.inf], [2.0, -np.inf]], [[2.0, 2.0], [0.0, 0.0], [3.0, -np.inf]],
             "column 1: estimate row 1 and reference row 2 both hold -inf"),
            ([[np.inf, -np.inf]], [[-np.inf, 0.0], [0.0, -np.inf]],
             "column 1: estimate row 0 and reference row 1 both hold -inf"),
        ],
    )
    def test_one_infinity_in_both_fronts_rejected(self, estimate, reference, where):
        # the first case used to return NaN, with a RuntimeWarning from inf - inf
        with pytest.raises(InvalidInputError) as info:
            igd(estimate, reference)
        assert str(info.value) == f"igd cannot measure a distance in {where} there"

    def test_infinities_of_opposite_signs_are_an_infinite_distance(self):
        # one infinity on one side only is test_bit_identical_to_cdist's case
        assert igd([[np.inf, 0.0]], [[-np.inf, 0.0]]) == np.inf
        assert igd([[0.0, -np.inf], [1.0, 0.0]], [[0.0, np.inf]]) == np.inf

    def test_far_finite_fronts_give_their_finite_distance(self):
        # the squares overflow: this used to warn "overflow encountered in
        # multiply", an error here, and return inf
        assert igd([[1e200, 0.0]], [[-1e200, 0.0]]) == 2e200
        assert igd([[0.0, 3e200]], [[4e200, -1e153]]) == math.hypot(4e200, 3e200 + 1e153)

    def test_rows_measured_again_leave_the_others_bits(self):
        # one reference row's squares overflow and it is measured by hypot;
        # the other rows keep the bits of the square root of their squares
        rng = np.random.default_rng(3)
        est, ref = rng.normal(size=(9, 2)), rng.normal(size=(40, 2))
        d1 = ref[:, 0, None] - est[:, 0]
        d2 = ref[:, 1, None] - est[:, 1]
        near = np.sqrt((d1 * d1 + d2 * d2).min(axis=1))
        far = np.vstack([ref, [[-1e200, 5.0]]])
        expected = np.append(near, np.hypot(-1e200 - est[:, 0], 5.0 - est[:, 1]).min()).mean()
        assert igd(est, far).hex() == float(expected).hex()
        assert igd(est, ref).hex() == float(near.mean()).hex()

    def test_mean_of_distances_near_the_float_maximum_is_finite(self):
        # the plain mean's sum overflows: this used to warn "overflow
        # encountered in reduce", an error here, and return inf
        assert igd([[0.0, 0.0]], [[1.5e308, 0.0], [1.5e308, 0.0]]) == 1.5e308
        assert igd([[0.0, 0.0]], [[1.5e308, 0.0], [0.0, -1e308]]) == pytest.approx(1.25e308)
        # a distance from an infinite coordinate is a real infinity
        assert igd([[0.0, 0.0]], [[1.5e308, 0.0], [0.0, np.inf]]) == np.inf
        assert igd([[np.inf, 0.0]], [[1.5e308, 0.0], [0.0, 0.0]]) == np.inf

    def test_tiny_distances_are_not_rounded_to_zero(self):
        # the squares underflow: the first two used to return 0.0
        assert igd([[1e-200, 0.0]], [[0.0, 0.0]]) == 1e-200
        assert igd([[1e300, 1e-300]], [[1e300, 2e-300]]) == 1e-300
        rng = np.random.default_rng(5)
        fronts = [
            rng.normal(size=(30, 2)),
            np.repeat(rng.normal(size=(4, 2)), 3, axis=0),  # duplicated rows
            np.array([[5e-324, 0.0], [0.0, -5e-324], [1e-160, 1e160]]),
        ]
        for front in fronts:
            assert igd(front, front) == 0.0
        assert igd([[1e200, 0.0]], [[-1e200, 0.0]]) == 2e200
        # one reference row lies 5e-180 from the estimate point at the
        # origin and is measured by hypot; the others keep their bits
        est = np.vstack([rng.normal(size=(8, 2)), [[0.0, 0.0]]])
        ref = rng.normal(size=(40, 2))
        near = np.sqrt(((ref[:, None, :] - est) ** 2).sum(axis=2).min(axis=1))
        close = np.vstack([ref, [[3e-180, -4e-180]]])
        expected = np.append(near, np.hypot(3e-180, -4e-180)).mean()
        assert igd(est, close).hex() == float(expected).hex()

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
        with pytest.raises(InvalidInputError, match=r"^expected an \(n, 2\) array, got shape"):
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

    def test_nan_row_rejected(self):
        # a NaN point used to be blamed for not dominating the reference point
        with pytest.raises(InvalidInputError, match=r"^row 1 contains NaN: \[0.5, nan\]$"):
            hypervolume_2d(np.array([[0.0, 0.5], [0.5, np.nan]]), (2.0, 2.0))

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
        [[1.0], [np.nan, 1.0], (1.0, np.inf), (1.0, 1.0, 1.0), "ab", 1.0, [[1.0], [1.0]], (True, 1.0),
         np.array(1.0)],
    )
    def test_bad_reference_point_rejected(self, ref_point):
        # [1] used to raise a raw IndexError, [nan, 1] to blame the front and a
        # 0-d array a raw TypeError
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
        with pytest.raises(NotFoundError, match="^unknown benchmark "):
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

    @pytest.mark.parametrize("name, resolution", [("convex", 50), ("fonseca", 40), ("kursawe", 21)])
    def test_rebuild_gives_a_new_writable_copy(self, name, resolution):
        cached = reference_front(name, resolution)
        rebuilt = reference_front(name, resolution, rebuild=True)
        assert rebuilt is not cached and rebuilt.flags.writeable
        np.testing.assert_array_equal(rebuilt, cached)

    @pytest.mark.parametrize(
        "name, resolution, error",
        [("zdt1", 10, NotFoundError), ("convex", 1, InvalidInputError),
         ("kursawe", 10.0, InvalidInputError)],
    )
    def test_rebuild_checks_like_the_cached_call(self, name, resolution, error):
        with pytest.raises(error) as cached:
            reference_front(name, resolution)
        with pytest.raises(error, match=f"^{re.escape(str(cached.value))}$"):
            reference_front(name, resolution, rebuild=True)

    # the largest resolution whose build numpy can size: its largest array
    # holds resolution ** grid_axes rows of row_items float64 values
    _LARGEST = {
        "convex": np.iinfo(np.intp).max // (2 * 8),
        "fonseca": np.iinfo(np.intp).max // (2 * 8),
        "kursawe": math.isqrt(np.iinfo(np.intp).max // (3 * 8)),
    }

    def _unbuildable(self, monkeypatch, name):
        """Replace ``name``'s builder by one that records each call and builds nothing."""
        calls = []

        def front(resolution):
            calls.append(resolution)
            return np.zeros((0, 2))

        monkeypatch.setitem(BENCHMARKS, name, dataclasses.replace(BENCHMARKS[name], front=front))
        return calls

    @pytest.mark.parametrize("rebuild", [False, True])
    @pytest.mark.parametrize("name", tuple(BENCHMARKS))
    def test_unsizable_resolution_rejected_before_building(self, monkeypatch, name, rebuild):
        # np.linspace used to refuse 10**20 points with a bare ValueError
        calls = self._unbuildable(monkeypatch, name)
        for resolution in (99999999999999999999, self._LARGEST[name] + 1):
            with pytest.raises(InvalidInputError, match="^resolution is too large: numpy cannot size "):
                reference_front(name, resolution, rebuild=rebuild)
        assert calls == []

    @pytest.mark.parametrize("name", tuple(BENCHMARKS))
    def test_largest_sizable_resolution_reaches_the_builder(self, monkeypatch, name):
        calls = self._unbuildable(monkeypatch, name)
        reference_front(name, np.int64(self._LARGEST[name]), rebuild=True)
        assert calls == [self._LARGEST[name]]

    @pytest.mark.parametrize("name", tuple(BENCHMARKS))
    def test_one_more_point_is_what_numpy_cannot_size(self, name):
        # numpy refuses this shape before allocating anything
        record = BENCHMARKS[name]
        shape = ((self._LARGEST[name] + 1) ** record.grid_axes, record.row_items)
        with pytest.raises(ValueError, match="array is too big"):
            np.empty(shape)


def kursawe_grid_front_by_f2_calls(resolution):
    """The oracle of the Kursawe grid front: each x1-slice's f2 by a full
    ``problem.f2`` call on the slice, where the builder sums per-value terms."""
    problem = kursawe_problem()
    g = np.linspace(problem.lower[0], problem.upper[0], resolution)
    g2, g3 = np.meshgrid(g, g, indexing="ij")
    cols23 = np.stack([g2.ravel(), g3.ravel()], axis=1)
    survivors = []
    for x1 in g:
        chunk = np.column_stack([np.full(len(cols23), x1), cols23])
        values = np.stack([problem.f1(chunk), problem.f2(chunk)], axis=1)
        survivors.append(values[nondominated_mask(values)])
    candidates = np.concatenate(survivors)
    front = candidates[nondominated_mask(candidates)]
    return front[np.argsort(front[:, 0], kind="stable")]


@pytest.mark.parametrize("resolution", [2, 3, 17, 50])
def test_kursawe_grid_f2_terms_give_the_bits_of_f2_calls(resolution):
    rebuilt = reference_front("kursawe", resolution, rebuild=True)
    expected = kursawe_grid_front_by_f2_calls(resolution)
    assert rebuilt.dtype == expected.dtype and rebuilt.shape == expected.shape
    assert rebuilt.tobytes() == expected.tobytes()


class TestBenchmarks:
    """The scoring record of each built-in benchmark."""

    def test_one_record_per_registered_problem(self):
        assert tuple(BENCHMARKS) == tuple(PROBLEM_FACTORIES)

    @pytest.mark.parametrize("name", tuple(PROBLEM_FACTORIES))
    def test_resolution_is_an_integer_of_at_least_two(self, name):
        resolution = BENCHMARKS[name].resolution
        assert type(resolution) is int and resolution >= 2

    @pytest.mark.parametrize("name", tuple(PROBLEM_FACTORIES))
    def test_scored_front_lies_strictly_below_the_hv_reference(self, name):
        # else the hypervolume would leave reference points out of the area
        record = BENCHMARKS[name]
        front = reference_front(name, record.resolution)
        assert np.all(front < np.asarray(record.hv_ref, dtype=float))


class TestFrontCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        front = rng.normal(size=(40, 2)) * np.array([1e-7, 1e9])
        path = tmp_path / "front.csv"
        write_front_csv(front, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(back, front[np.argsort(front[:, 0], kind="stable")])

    def test_integral_values_have_no_decimal_point(self, tmp_path):
        path = tmp_path / "front.csv"
        write_front_csv(np.array([[50.0, 0.0], [0.0, 50.0]]), path)
        assert path.read_text() == "f1,f2\n0,50\n50,0\n"

    def test_three_column_front_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            write_front_csv(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), tmp_path / "f.csv")

    def test_nan_row_refused_and_no_file_written(self, tmp_path):
        # used to write "nan", which every front reader refuses
        path = tmp_path / "f.csv"
        with pytest.raises(InvalidInputError, match=r"^row 1 contains NaN: \[nan, 2\.0\]$"):
            write_front_csv(np.array([[1.0, 1.0], [np.nan, 2.0]]), path)
        assert not path.exists()

    def test_shipped_kursawe_front_read_exactly(self):
        path = Path(pareto.__file__).parent / "data" / "kursawe_front_201.csv"
        # each value parsed by Python's float, which rounds correctly
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "f1,f2"
        expected = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        front = reference_front("kursawe", 201)
        assert front.shape == expected.shape == (151, 2)
        assert front.tobytes() == expected.tobytes()
