import concurrent.futures

import numpy as np
import pytest

from pfops.errors import BoundsError, NotFoundError
from pfops.problems import (
    EvalCounter,
    available_problems,
    convex_problem,
    fonseca_fleming_problem,
    kursawe_problem,
    lookup_problem,
)


def test_convex_values():
    p = convex_problem()
    assert p.evaluate((0.0, 0.0)) == pytest.approx([0.0, 50.0])
    assert p.evaluate((5.0, 5.0)) == pytest.approx([50.0, 0.0])
    assert p.evaluate((2.5, 2.5)) == pytest.approx([12.5, 12.5])
    assert p.dim == 2
    assert p.lower.tolist() == [-5.0, -5.0]
    assert p.upper.tolist() == [10.0, 10.0]


def test_fonseca_values():
    p = fonseca_fleming_problem()
    a = 1.0 / np.sqrt(2.0)
    assert p.evaluate((a, a))[0] == pytest.approx(0.0, abs=1e-12)
    assert p.evaluate((-a, -a))[1] == pytest.approx(0.0, abs=1e-12)
    # sum of squared deviations from (1/sqrt2, 1/sqrt2) at the origin is 1
    assert p.evaluate((0.0, 0.0))[0] == pytest.approx(1.0 - np.exp(-1.0))
    assert p.lower.tolist() == [-4.0, -4.0]
    assert p.upper.tolist() == [4.0, 4.0]


def test_kursawe_values():
    p = kursawe_problem()
    assert p.evaluate((0.0, 0.0, 0.0)) == pytest.approx([-20.0, 0.0])
    expected_f1 = -20.0 * np.exp(-0.2 * np.sqrt(2.0))
    assert p.evaluate((1.0, 1.0, 1.0))[0] == pytest.approx(expected_f1)
    assert p.dim == 3
    assert p.lower.tolist() == [-5.0] * 3
    assert p.upper.tolist() == [5.0] * 3


def test_lookup_registry():
    assert available_problems() == ("convex", "fonseca", "kursawe")
    assert lookup_problem("convex").name == "convex"
    assert lookup_problem("kursawe").dim == 3
    with pytest.raises(NotFoundError, match="convex, fonseca, kursawe"):
        lookup_problem("zdt1")


def test_fresh_instances_have_independent_counters():
    a = lookup_problem("convex")
    b = lookup_problem("convex")
    a.evaluate((0.0, 0.0))
    assert a.counter.count == 2
    assert b.counter.count == 0


@pytest.mark.parametrize("name", ["convex", "fonseca", "kursawe"])
def test_objectives_finite_on_uniform_samples(name):
    p = lookup_problem(name)
    rng = np.random.default_rng(7)
    pts = p.lower + (p.upper - p.lower) * rng.random((1000, p.dim))
    values = p.evaluate_batch(pts)
    assert np.isfinite(values).all()


def test_evaluation_counting():
    p = convex_problem()
    p.evaluate((0.0, 0.0))
    assert p.counter.count == 2
    p.evaluate((1.0, 1.0))
    assert p.counter.count == 4
    pts = np.zeros((25, 2))
    p.evaluate_batch(pts)
    assert p.counter.count == 4 + 2 * 25
    p.counter.reset()
    assert p.counter.count == 0


def test_out_of_bounds_rejected_and_uncounted():
    p = convex_problem()
    with pytest.raises(BoundsError, match="convex"):
        p.evaluate((11.0, 0.0))
    with pytest.raises(BoundsError):
        p.evaluate_batch([[0.0, 0.0], [0.0, -5.0001]])
    assert p.counter.count == 0


def test_bounds_are_inclusive():
    p = convex_problem()
    p.evaluate((-5.0, 10.0))  # corners are valid
    assert p.contains((10.0, 10.0))
    assert not p.contains((10.0001, 0.0))


def test_dimension_mismatch():
    p = convex_problem()
    with pytest.raises(ValueError, match="dimension"):
        p.evaluate((0.0, 0.0, 0.0))


def test_convex_symmetry():
    # f1(x1, x2) == f2(5 - x1, 5 - x2), a direct identity of the two quadratics
    p = convex_problem()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(200, 2))  # keep 5 - x inside the box too
    mirrored = 5.0 - pts
    np.testing.assert_allclose(p.f1(pts), p.f2(mirrored), rtol=1e-12)


def test_counter_tolerates_concurrent_increments():
    counter = EvalCounter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: counter.add(1), range(4000)))
    assert counter.count == 4000
