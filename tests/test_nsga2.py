import warnings
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import pfops.nsga2 as nsga2
from pfops.errors import InvalidConfigError, InvalidInputError
from pfops.nsga2 import (
    Nsga2Config,
    _environmental_selection,
    crowding_distance,
    evolve,
)
from pfops.pareto import hypervolume_2d, igd, nondominated_mask, peel_fronts, reference_front
from pfops.problems import BiObjectiveProblem, convex_problem


def dense_peel_fronts(points):
    """O(n^2) reference ranking: count each point's dominators, then peel
    the points whose count reaches zero, front by front."""
    points = np.asarray(points, dtype=float)
    a = points[:, None, :]
    b = points[None, :, :]
    dom = np.all(a <= b, axis=2) & np.any(a < b, axis=2)  # dom[i, j]: i dominates j
    dom_count = dom.sum(axis=0)
    fronts = []
    assigned = np.zeros(len(points), dtype=bool)
    while not assigned.all():
        current = np.flatnonzero((dom_count == 0) & ~assigned)
        fronts.append(current.tolist())
        assigned[current] = True
        dom_count = dom_count - dom[current].sum(axis=0)
    return fronts


def ranked_fronts(points):
    """NSGA-II's ranking: the fronts ``peel_fronts`` yields, as index lists."""
    return [front.tolist() for front in peel_fronts(points)]


def rank_and_crowding(objectives):
    """Per-front oracle: each row's front index, and its crowding within that
    front, in row order."""
    ranks = np.empty(len(objectives), dtype=int)
    crowd = np.empty(len(objectives))
    for r, front in enumerate(peel_fronts(objectives)):
        ranks[front] = r
        crowd[front] = crowding_distance(objectives[front])
    return ranks, crowd


def tie_heavy_objectives(grid, rng):
    """2 to 60 points drawn from ``grid`` in both objectives: many exact duplicates."""
    n = int(rng.integers(2, 61))
    return grid[rng.integers(0, len(grid), size=(n, 2))]


GRIDS = [(np.arange(5.0), 30), (np.array([-np.inf, 0.0, 1.0, 2.0, np.inf]), 31)]


class TestConfig:
    def test_validation(self):
        Nsga2Config(pop_size=4, generations=1)
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=5, generations=1)
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=0, generations=1)
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=4, generations=0)

    @pytest.mark.parametrize(
        "build, field",
        [(partial(replace, Nsga2Config(4, 1), pop_size=3), "pop_size")],
        ids=["replace-pop_size"],
    )
    def test_library_input_names_the_field(self, build, field):
        with pytest.raises(InvalidConfigError, match=field):
            build()

    def test_fields_are_sizes_and_seed(self):
        # the variation operators run at Deb et al. 2002's fixed settings
        assert [f.name for f in fields(Nsga2Config)] == ["pop_size", "generations", "seed"]
        with pytest.raises(TypeError, match="crossover_prob"):
            Nsga2Config(4, 2, crossover_prob=0.9)


class TestFastNondominatedSort:
    """Ranking through :func:`ranked_fronts`: each front in ascending index order."""

    def test_hand_example(self):
        fronts = ranked_fronts(np.array([[0.0, 2.0], [2.0, 0.0], [2.0, 2.0]]))
        assert fronts == [[0, 1], [2]]

    def test_all_nondominated(self):
        fronts = ranked_fronts(np.array([[0.0, 3.0], [1.0, 2.0], [3.0, 0.0]]))
        assert fronts == [[0, 1, 2]]

    def test_total_order_chain(self):
        fronts = ranked_fronts(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        assert fronts == [[0], [1], [2]]

    def test_matches_dense_peel_on_tie_heavy_sets(self):
        self._check_against_dense_peel(np.arange(5.0), seed=20)

    def test_matches_dense_peel_with_infinities(self):
        self._check_against_dense_peel(np.array([-np.inf, 0.0, 1.0, 2.0, np.inf]), seed=22)

    @staticmethod
    def _check_against_dense_peel(grid, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            n = int(rng.integers(1, 61))
            pts = grid[rng.integers(0, len(grid), size=(n, 2))]  # many exact duplicates
            fronts = ranked_fronts(pts)
            assert fronts == dense_peel_fronts(pts)
            assert all(front == sorted(front) for front in fronts)

    @pytest.mark.parametrize(
        "pts, expected",
        [
            ([[0.0, np.inf]], [[0]]),
            ([[0.0, 0.0], [1.0, np.inf]], [[0], [1]]),
            ([[1.0, np.inf], [0.0, np.inf], [0.0, np.inf]], [[1, 2], [0]]),
        ],
    )
    def test_infinite_f2_terminates(self, pts, expected):
        assert ranked_fronts(np.array(pts)) == expected

    def test_three_column_points_rejected(self):
        # reshape(-1, 2) used to re-pair [[1, 2, 3], [4, 5, 6]] as three points
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            ranked_fronts(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    def test_empty_and_single_vector(self):
        assert ranked_fronts(np.zeros((0, 2))) == []
        assert ranked_fronts(np.array([1.0, 2.0])) == [[0]]

    def test_partition_is_complete(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(40, 2))
        fronts = ranked_fronts(pts)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(40))


class TestCrowdingDistance:
    def test_two_points_both_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_hand_example(self):
        d = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_three_column_front_rejected(self):
        with pytest.raises(InvalidInputError, match=r"shape \(2, 3\)"):
            crowding_distance(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    def test_empty_and_single_vector(self):
        assert crowding_distance(np.zeros((0, 2))).shape == (0,)
        np.testing.assert_array_equal(crowding_distance(np.array([1.0, 2.0])), [np.inf])

    @pytest.mark.parametrize(
        "pts, row",
        [
            ([[np.nan, 1.0], [0.0, 0.0], [1.0, 1.0]], 0),
            ([[0.0, 0.0], [1.0, 1.0], [2.0, np.nan], [3.0, 3.0]], 2),
            ([[0.0, np.nan]], 0),
        ],
    )
    def test_nan_row_rejected(self, pts, row):
        # a NaN used to give every member infinite crowding
        with pytest.raises(InvalidInputError, match=rf"^row {row} contains NaN: "):
            crowding_distance(np.array(pts))

    def test_degenerate_objective_range(self):
        pts = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        d = crowding_distance(pts)
        assert np.isfinite(d[1]) and np.isfinite(d[2])  # no division by zero

    @pytest.mark.parametrize(
        "pts",
        [
            [[0.0, np.inf], [1.0, np.inf], [2.0, np.inf]],
            [[-np.inf, 2.0], [0.0, 1.0], [np.inf, 0.0]],
        ],
        ids=["both-ends-inf", "inf-to-inf"],
    )
    def test_infinite_objective_range_skipped(self, pts):
        # inf - inf used to give NaN crowding, which tournaments and selection misorder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = crowding_distance(np.array(pts))
        np.testing.assert_array_equal(d, [np.inf, 1.0, np.inf])


class TestEnvironmentalSelection:
    @pytest.mark.parametrize("grid, seed", GRIDS)
    def test_survivors_keep_rank_and_crowding(self, grid, seed):
        # survivors' ranks and crowding must equal a fresh ranking of them
        rng = np.random.default_rng(seed)
        cases = {"fill": 0, "cut front 0": 0, "cut later front": 0}
        for _ in range(300):
            obj = tie_heavy_objectives(grid, rng)
            n = len(obj)
            fronts = dense_peel_fronts(obj)
            assert ranked_fronts(obj) == fronts
            ends = np.cumsum([len(f) for f in fronts])
            sizes = {"fill": int(ends[rng.integers(len(ends))])}
            if len(fronts[0]) > 1:
                sizes["cut front 0"] = int(rng.integers(1, len(fronts[0])))
            later = [r for r in range(1, len(fronts)) if len(fronts[r]) > 1]
            if later:
                r = later[rng.integers(len(later))]
                sizes["cut later front"] = int(ends[r - 1] + rng.integers(1, len(fronts[r])))
            for case, pop_size in sizes.items():
                cases[case] += 1
                idx, ranks, crowd = _environmental_selection(obj, pop_size)
                assert len(idx) == pop_size
                assert len(np.unique(idx)) == pop_size and idx.min() >= 0 and idx.max() < n
                kept_obj = obj[idx]
                fresh_ranks, fresh_crowd = rank_and_crowding(kept_obj)
                np.testing.assert_array_equal(ranks, fresh_ranks)
                np.testing.assert_array_equal(crowd, fresh_crowd)
                assert not np.isnan(crowd).any()
                assert np.flatnonzero(ranks == 0).tolist() == dense_peel_fronts(kept_obj)[0]
        assert min(cases.values()) >= 50, cases

    @pytest.mark.parametrize("grid, seed", GRIDS)
    def test_full_size_ranks_every_row(self, grid, seed):
        # evolve ranks its first population this way: nothing is cut, and the
        # ranks and crowding scattered back to row order are the per-front ones
        rng = np.random.default_rng(seed)
        for _ in range(300):
            obj = tie_heavy_objectives(grid, rng)
            idx, kept_ranks, kept_crowd = _environmental_selection(obj, len(obj))
            assert sorted(idx.tolist()) == list(range(len(obj)))
            ranks = np.empty(len(obj), dtype=int)
            crowd = np.empty(len(obj))
            ranks[idx] = kept_ranks
            crowd[idx] = kept_crowd
            expected_ranks, expected_crowd = rank_and_crowding(obj)
            np.testing.assert_array_equal(ranks, expected_ranks)
            np.testing.assert_array_equal(crowd, expected_crowd)

    def test_stops_peeling_when_front_0_fills(self, monkeypatch):
        taken = []
        peel = nsga2.peel_fronts

        def counting_peel(points):
            for front in peel(points):
                taken.append(len(front))
                yield front

        monkeypatch.setattr(nsga2, "peel_fronts", counting_peel)
        # six mutually non-dominated points on front 0, two dominated behind them
        obj = np.array([[float(i), 5.0 - i] for i in range(6)] + [[9.0, 9.0], [8.0, 8.0]])
        for pop_size in (4, 6):
            taken.clear()
            _, ranks, _ = _environmental_selection(obj, pop_size)
            assert taken == [6]
            assert (ranks == 0).all()


class TestEvolve:
    def test_convex_quality(self):
        config = Nsga2Config(pop_size=100, generations=100, seed=0)
        archive, _ = evolve(config, convex_problem())
        assert igd(archive.front, reference_front("convex", 100)) < 0.5

    def test_eval_count_exact(self):
        config = Nsga2Config(pop_size=12, generations=7, seed=1)
        _, evals = evolve(config, convex_problem())
        assert evals == 2 * 12 * (7 + 1)

    def test_tiny_run_structure(self):
        config = Nsga2Config(pop_size=4, generations=1, seed=2)
        archive, _ = evolve(config, convex_problem())
        assert 1 <= len(archive) <= 4
        assert nondominated_mask(archive.front).all()

    def test_deterministic(self):
        config = Nsga2Config(pop_size=20, generations=10, seed=3)
        a, ea = evolve(config, convex_problem())
        b, eb = evolve(config, convex_problem())
        np.testing.assert_array_equal(a.decisions, b.decisions)
        np.testing.assert_array_equal(a.front, b.front)
        assert ea == eb

    def test_offspring_respect_bounds(self):
        problem = convex_problem()
        config = Nsga2Config(pop_size=30, generations=15, seed=4)
        archive, _ = evolve(config, problem)
        assert np.all(archive.decisions >= problem.lower)
        assert np.all(archive.decisions <= problem.upper)

    def test_front_matches_decisions(self):
        problem = convex_problem()
        config = Nsga2Config(pop_size=10, generations=3, seed=5)
        archive, _ = evolve(config, problem)
        recomputed = np.stack(
            [problem.f1(archive.decisions), problem.f2(archive.decisions)], axis=1
        )
        np.testing.assert_allclose(archive.front, recomputed, rtol=1e-12)

    def test_elitism_hypervolume_mostly_nondecreasing(self):
        # same seed replays the same stream, so a g-generation run is a
        # prefix of the (g+1)-generation run; compare successive fronts
        ref_point = np.array([60.0, 60.0])
        transitions = 0
        good = 0
        for seed in range(10):
            hv = []
            for gens in range(1, 9):
                config = Nsga2Config(pop_size=40, generations=gens, seed=seed)
                archive, _ = evolve(config, convex_problem())
                inside = archive.front[np.all(archive.front < ref_point, axis=1)]
                hv.append(hypervolume_2d(inside, ref_point))
            steps = np.diff(hv)
            transitions += len(steps)
            good += int((steps >= -1e-9).sum())
        assert good / transitions >= 0.95

    def test_nan_objective_names_the_point(self):
        problem = BiObjectiveProblem(
            name="half-nan",
            dim=2,
            lower=np.zeros(2),
            upper=np.ones(2),
            f1=lambda x: np.where(x[:, 0] > 0.5, np.nan, x[:, 0]),
            f2=lambda x: 1.0 - x[:, 0],
        )
        with pytest.raises(InvalidInputError, match=r"'half-nan' are NaN at point \[0\.[5-9]"):
            evolve(Nsga2Config(pop_size=10, generations=2, seed=0), problem)
        assert problem.counter.count == 0
