import numpy as np
import pytest

from pfops.errors import InvalidConfigError
from pfops.nsga2 import (
    Nsga2Config,
    crowding_distance,
    evolve,
    fast_nondominated_sort,
)
from pfops.pareto import hypervolume_2d, igd, nondominated_mask, reference_front
from pfops.problems import convex_problem


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


class TestConfig:
    def test_validation(self):
        Nsga2Config(pop_size=4, generations=1).validate()
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=5, generations=1).validate()
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=0, generations=1).validate()
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=4, generations=0).validate()
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=4, generations=1, crossover_prob=1.2).validate()
        with pytest.raises(InvalidConfigError):
            Nsga2Config(pop_size=4, generations=1, mutation_index=0.0).validate()


class TestFastNondominatedSort:
    def test_hand_example(self):
        fronts = fast_nondominated_sort(np.array([[0.0, 2.0], [2.0, 0.0], [2.0, 2.0]]))
        assert fronts == [[0, 1], [2]]

    def test_all_nondominated(self):
        fronts = fast_nondominated_sort(np.array([[0.0, 3.0], [1.0, 2.0], [3.0, 0.0]]))
        assert fronts == [[0, 1, 2]]

    def test_total_order_chain(self):
        fronts = fast_nondominated_sort(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
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
            fronts = fast_nondominated_sort(pts)
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
        assert fast_nondominated_sort(np.array(pts)) == expected

    def test_partition_is_complete(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(40, 2))
        fronts = fast_nondominated_sort(pts)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(40))


class TestCrowdingDistance:
    def test_two_points_both_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))))

    def test_hand_example(self):
        d = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_degenerate_objective_range(self):
        pts = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        d = crowding_distance(pts)
        assert np.isfinite(d[1]) and np.isfinite(d[2])  # no division by zero


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
