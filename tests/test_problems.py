import numpy as np
import pytest

from pfops.errors import BoundsError, InvalidInputError, NotFoundError
from pfops.problems import (
    BiObjectiveProblem,
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
    with pytest.raises(NotFoundError, match="unknown problem"):
        lookup_problem(["convex"])  # unhashable: no raw TypeError


def test_not_found_message_is_plain():
    # KeyError's str() would quote the message
    with pytest.raises(NotFoundError) as excinfo:
        lookup_problem("zdt1")
    assert isinstance(excinfo.value, KeyError)
    assert str(excinfo.value) == "unknown problem 'zdt1'; available: convex, fonseca, kursawe"


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


@pytest.mark.parametrize(
    "name, minimizers",
    [
        ("convex", [(0.0, 0.0), (5.0, 5.0)]),
        ("fonseca", [(2**-0.5, 2**-0.5), (-(2**-0.5), -(2**-0.5))]),
        ("kursawe", [(0.0, 0.0, 0.0), (-1.152741,) * 3]),
    ],
)
def test_ideal_point_bounds_the_objectives(name, minimizers):
    p = lookup_problem(name)
    ideal = np.array(p.ideal)
    rng = np.random.default_rng(8)
    pts = p.lower + (p.upper - p.lower) * rng.random((20000, p.dim))
    assert (p.f1(pts) >= ideal[0]).all() and (p.f2(pts) >= ideal[1]).all()
    # each objective reaches its ideal value at a known minimizer
    at = np.array(minimizers)
    reached = np.array([p.f1(at[:1])[0], p.f2(at[1:])[0]])
    assert (reached >= ideal).all()
    np.testing.assert_allclose(reached, ideal, atol=1e-6)


def _zero(x):
    return np.zeros(len(x))


@pytest.mark.parametrize("ideal", [(0.0,), (0.0, np.nan), (0.0, 1.0, 2.0)])
def test_ideal_must_be_two_finite_numbers(ideal):
    with pytest.raises(ValueError, match="ideal"):
        BiObjectiveProblem("p", 1, [0.0], [1.0], _zero, _zero, ideal=ideal)


def test_evaluation_counting():
    p = convex_problem()
    p.evaluate((0.0, 0.0))
    assert p.counter.count == 2
    p.evaluate((1.0, 1.0))
    assert p.counter.count == 4
    pts = np.zeros((25, 2))
    p.evaluate_batch(pts)
    assert p.counter.count == 4 + 2 * 25


def test_out_of_bounds_rejected_and_uncounted():
    p = convex_problem()
    with pytest.raises(BoundsError, match="convex"):
        p.evaluate((11.0, 0.0))
    with pytest.raises(BoundsError):
        p.evaluate_batch([[0.0, 0.0], [0.0, -5.0001]])
    # several bad rows, the first below the box and a later one above it:
    # the message names the first
    with pytest.raises(BoundsError, match=r"point \[0\.0, -6\.0\] is outside"):
        p.evaluate_batch([[0.0, 0.0], [0.0, -6.0], [11.0, 0.0], [12.0, 12.0]])
    with pytest.raises(BoundsError, match=r"point \[11\.0, 0\.0\] is outside"):
        p.evaluate_batch([[0.0, 0.0], [11.0, 0.0], [0.0, -6.0]])
    # a NaN coordinate is outside the box, whatever the other rows hold
    with pytest.raises(BoundsError, match=r"point \[nan, 1\.0\] is outside"):
        p.evaluate_batch([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(BoundsError, match=r"point \[0\.0, nan\] is outside"):
        p.evaluate((0.0, np.nan))
    # so is an infinite one, of either sign
    with pytest.raises(BoundsError, match=r"point \[inf, 0\.0\] is outside"):
        p.evaluate_batch([[0.0, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    with pytest.raises(BoundsError, match=r"point \[0\.0, -inf\] is outside"):
        p.evaluate_batch([[1.0, 1.0], [0.0, -np.inf], [np.inf, 0.0]])
    with pytest.raises(BoundsError, match=r"point \[-inf, 1\.0\] is outside"):
        p.evaluate((-np.inf, 1.0))
    assert p.counter.count == 0


@pytest.mark.parametrize(
    "f1, f2",
    [
        (lambda x: 1.0, lambda x: x[:, 0].copy()),  # a scalar
        (lambda x: np.ones(1), lambda x: np.ones(1)),  # one value for two rows
        (lambda x: x.copy(), lambda x: x[:, 0].copy()),  # a column, not a vector
    ],
)
def test_objective_of_wrong_shape_rejected_and_uncounted(f1, f2):
    p = BiObjectiveProblem(
        name="shape", dim=1, lower=np.array([0.0]), upper=np.array([1.0]), f1=f1, f2=f2
    )
    with pytest.raises(InvalidInputError, match=r"'shape' must return shape \(2,\)"):
        p.evaluate_batch([[0.25], [0.75]])
    assert p.counter.count == 0


@pytest.mark.parametrize(
    "x", [[[0.0, 0.0], [5.0, 5.0]], [[0.0, 0.0]], 0.0, [0.0, 0.0, 0.0], [[[0.0, 0.0]]]]
)
def test_evaluate_takes_exactly_one_point(x):
    # a batch used to be evaluated whole, answered with its first row and
    # counted as one point
    p = convex_problem()
    with pytest.raises(InvalidInputError, match=r"shape \(2,\).*'convex', got shape"):
        p.evaluate(x)
    assert p.counter.count == 0


@pytest.mark.parametrize(
    "f1",
    [lambda x: 1.0, lambda x: x.copy()],  # a scalar; a column, not a vector
)
def test_evaluate_shares_the_objective_shape_check(f1):
    p = BiObjectiveProblem(
        name="shape",
        dim=1,
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        f1=f1,
        f2=lambda x: x[:, 0].copy(),
    )
    with pytest.raises(InvalidInputError, match=r"'shape' must return shape \(1,\)"):
        p.evaluate((0.25,))
    assert p.counter.count == 0


def test_nan_objective_rejected_and_uncounted():
    p = BiObjectiveProblem(
        name="nan-right",
        dim=1,
        lower=np.array([0.0]),
        upper=np.array([1.0]),
        f1=lambda x: np.where(x[:, 0] > 0.5, np.nan, np.inf),
        f2=lambda x: x[:, 0].copy(),
    )
    with pytest.raises(InvalidInputError, match=r"'nan-right' are NaN at point \[0\.75\]"):
        p.evaluate((0.75,))
    with pytest.raises(InvalidInputError, match=r"point \[0\.75\]"):
        p.evaluate_batch([[0.25], [0.75], [1.0]])
    assert p.counter.count == 0
    assert np.isinf(p.evaluate_batch([[0.25]])).any()  # infinite values pass
    assert p.counter.count == 2


def test_bounds_are_inclusive():
    p = convex_problem()
    p.evaluate((-5.0, 10.0))  # corners are valid
    p.evaluate((10.0, 10.0))
    with pytest.raises(BoundsError):
        p.evaluate((10.0001, 0.0))


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

