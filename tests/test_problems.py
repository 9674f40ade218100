from functools import partial

import numpy as np
import pytest

from pfops.core import PfopsConfig, initialize, metropolis_sweep, run
from pfops.errors import BoundsError, InvalidInputError, NotFoundError
from pfops.nsga2 import Nsga2Config, evolve
from pfops.problems import (
    PROBLEM_FACTORIES,
    BiObjectiveProblem,
    CoordinateSum,
    EvalCounter,
    _kursawe_f2_term,
    convex_problem,
    fonseca_fleming_problem,
    kursawe_problem,
    lookup_problem,
)
from pfops.scalarize import Scalarization, ScalarizationKind

weighted_sum = partial(Scalarization, ScalarizationKind.WEIGHTED_SUM)


def test_convex_values():
    p = convex_problem()
    assert p.evaluate_batch((0.0, 0.0))[0] == pytest.approx([0.0, 50.0])
    assert p.evaluate_batch((5.0, 5.0))[0] == pytest.approx([50.0, 0.0])
    assert p.evaluate_batch((2.5, 2.5))[0] == pytest.approx([12.5, 12.5])
    assert p.evaluate_batch((2.5, 2.5)).shape == (1, 2)  # one point is a one-row batch
    assert p.dim == 2
    assert p.lower.tolist() == [-5.0, -5.0]
    assert p.upper.tolist() == [10.0, 10.0]


def test_fonseca_values():
    p = fonseca_fleming_problem()
    a = 1.0 / np.sqrt(2.0)
    assert p.evaluate_batch((a, a))[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert p.evaluate_batch((-a, -a))[0, 1] == pytest.approx(0.0, abs=1e-12)
    # sum of squared deviations from (1/sqrt2, 1/sqrt2) at the origin is 1
    assert p.evaluate_batch((0.0, 0.0))[0, 0] == pytest.approx(1.0 - np.exp(-1.0))
    assert p.lower.tolist() == [-4.0, -4.0]
    assert p.upper.tolist() == [4.0, 4.0]


def test_kursawe_values():
    p = kursawe_problem()
    assert p.evaluate_batch((0.0, 0.0, 0.0))[0] == pytest.approx([-20.0, 0.0])
    expected_f1 = -20.0 * np.exp(-0.2 * np.sqrt(2.0))
    assert p.evaluate_batch((1.0, 1.0, 1.0))[0, 0] == pytest.approx(expected_f1)
    assert p.dim == 3
    assert p.lower.tolist() == [-5.0] * 3
    assert p.upper.tolist() == [5.0] * 3


def test_lookup_registry():
    assert tuple(PROBLEM_FACTORIES) == ("convex", "fonseca", "kursawe")
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
    a.evaluate_batch((0.0, 0.0))
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


@pytest.mark.parametrize(
    "ideal",
    [(0.0,), (0.0, np.nan), (0.0, 1.0, 2.0), ("a", 0.0), range(2), np.array(0.0), np.zeros((2, 1))],
)
def test_ideal_must_be_two_finite_numbers(ideal):
    with pytest.raises(InvalidInputError, match="^ideal must be two finite numbers"):
        BiObjectiveProblem("p", 1, [0.0], [1.0], _zero, _zero, ideal=ideal)


@pytest.mark.parametrize("dim", [0, -1, 1.5, 2.0, True, "2", None])
def test_dim_must_be_a_positive_integer(dim):
    # dim=0 used to build, and dim=1.5 to fail with "bounds must have shape (1.5,)"
    with pytest.raises(InvalidInputError, match=r"dim must be an integer >= 1"):
        BiObjectiveProblem("p", dim, [0.0], [1.0], _zero, _zero)


@pytest.mark.parametrize(
    "lower, upper",
    [([0.0, 0.0], [1.0]), ([0.0], [[1.0]]), ([], []), (["a"], [1.0])],
)
def test_bounds_of_the_wrong_shape_rejected(lower, upper):
    with pytest.raises(InvalidInputError, match="lower"):
        BiObjectiveProblem("p", 1, lower, upper, _zero, _zero)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("lower", {"lower": ["-5"], "upper": [5.0]}),
        ("upper", {"lower": [-5.0], "upper": ["5"]}),
        ("lower", {"lower": [True], "upper": [5.0]}),
        ("upper", {"lower": [-5.0], "upper": np.array([True])}),
        ("ideal", {"lower": [-5.0], "upper": [5.0], "ideal": ("0", "0")}),
        ("ideal", {"lower": [-5.0], "upper": [5.0], "ideal": (True, 0)}),
        ("ideal", {"lower": [-5.0], "upper": [5.0], "ideal": (0.0, np.True_)}),
        ("lower", {"lower": [1j], "upper": [5.0]}),
        ("lower", {"lower": [None], "upper": [5.0]}),
        ("lower", {"lower": [np.zeros((2, 2)), np.zeros((2, 3))], "upper": [5.0]}),
    ],
)
def test_bounds_and_ideal_that_are_not_numbers_rejected(field, kwargs):
    # "-5" used to be parsed into -5.0, and True read as 1.0
    rule = "two finite numbers" if field == "ideal" else "integers or floats"
    with pytest.raises(InvalidInputError, match=rf"^{field} must be {rule}"):
        BiObjectiveProblem("s", 1, f1=_zero, f2=_zero, **kwargs)


def test_ragged_bounds_rejected():
    # a nesting numpy cannot stack is read as no number at all
    with pytest.raises(InvalidInputError) as info:
        BiObjectiveProblem("s", 2, [[1, 2], [3]], [5.0, 5.0], _zero, _zero)
    assert str(info.value) == "lower must be integers or floats, got [[1, 2], [3]]"


@pytest.mark.parametrize(
    "lower, upper, ideal",
    [
        ([-5], [5], (0, 0)),
        (np.array([-5], dtype=np.int32), np.array([5.0], dtype=np.float32), np.array([0, 1])),
        ([np.int64(-5)], [np.float32(5.0)], (np.float64(0.5), 2**70)),
    ],
)
def test_integer_and_float_bounds_accepted(lower, upper, ideal):
    p = BiObjectiveProblem("s", 1, lower, upper, _zero, _zero, ideal=ideal)
    assert p.lower.dtype == p.upper.dtype == np.float64
    assert (p.lower.tolist(), p.upper.tolist()) == ([-5.0], [5.0])
    assert p.ideal == (float(ideal[0]), float(ideal[1]))
    assert all(type(v) is float for v in p.ideal)


@pytest.mark.parametrize("lower, upper", [([1.0], [0.0]), ([0.0], [0.0]), ([np.nan], [1.0])])
def test_bounds_out_of_order_rejected(lower, upper):
    with pytest.raises(InvalidInputError, match="strictly below its upper bound"):
        BiObjectiveProblem("p", 1, lower, upper, _zero, _zero)


@pytest.mark.parametrize(
    "lower, upper, field",
    [
        ([-np.inf], [1.0], "lower"),
        ([0.0], [np.inf], "upper"),
        ([-np.inf], [np.inf], "lower"),
        ([0.0, -np.inf], [1.0, 1.0], "lower"),
        ([np.inf], [np.inf], "lower"),
    ],
)
def test_infinite_bounds_rejected(lower, upper, field):
    # no box to sample: both algorithms would draw NaN points and blame them
    # with a BoundsError
    with pytest.raises(InvalidInputError, match=rf"^{field} must be finite"):
        BiObjectiveProblem("p", len(lower), lower, upper, _zero, _zero)


@pytest.mark.parametrize(
    "lower, upper",
    [([-1e308], [1e308]), ([0.0, -1e308], [1.0, 1e308]), ([-1.5e308], [0.3e308])],
)
def test_overflowing_span_rejected(lower, upper):
    # upper - lower is inf: both algorithms would draw inf or NaN points and
    # blame them with a BoundsError; no RuntimeWarning on the way
    with pytest.raises(InvalidInputError, match=r"^upper - lower must be finite") as excinfo:
        BiObjectiveProblem("wide", len(lower), lower, upper, _zero, _zero)
    assert f"lower={np.array(lower).tolist()}" in str(excinfo.value)
    assert f"upper={np.array(upper).tolist()}" in str(excinfo.value)


def test_widest_finite_span_accepted():
    p = BiObjectiveProblem("wide", 1, [-8e307], [8e307], _zero, _zero)
    assert p.evaluate_batch([[-8e307], [8e307]]).shape == (2, 2)


def test_counter_is_not_an_argument():
    with pytest.raises(TypeError, match="counter"):
        BiObjectiveProblem("p", 1, [0.0], [1.0], _zero, _zero, counter=EvalCounter())
    p = BiObjectiveProblem("p", 1, [0.0], [1.0], _zero, _zero)
    p.evaluate_batch([[0.5]])
    assert p.counter.count == 2


def test_evaluation_counting():
    p = convex_problem()
    p.evaluate_batch((0.0, 0.0))
    assert p.counter.count == 2
    p.evaluate_batch((1.0, 1.0))
    assert p.counter.count == 4
    pts = np.zeros((25, 2))
    p.evaluate_batch(pts)
    assert p.counter.count == 4 + 2 * 25


def test_out_of_bounds_rejected_and_uncounted():
    p = convex_problem()
    with pytest.raises(BoundsError, match="convex"):
        p.evaluate_batch((11.0, 0.0))
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
        p.evaluate_batch((0.0, np.nan))
    # so is an infinite one, of either sign
    with pytest.raises(BoundsError, match=r"point \[inf, 0\.0\] is outside"):
        p.evaluate_batch([[0.0, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    with pytest.raises(BoundsError, match=r"point \[0\.0, -inf\] is outside"):
        p.evaluate_batch([[1.0, 1.0], [0.0, -np.inf], [np.inf, 0.0]])
    with pytest.raises(BoundsError, match=r"point \[-inf, 1\.0\] is outside"):
        p.evaluate_batch((-np.inf, 1.0))
    assert p.counter.count == 0


def test_box_per_coordinate_and_empty_batch():
    # bounds that differ by coordinate: a row outside the cube every
    # coordinate admits, [0, 1]^2, may still be in the box, and a row inside
    # the cube spanned by all the bounds, [-10, 10]^2, may be outside it
    p = BiObjectiveProblem("box", 2, [0.0, -10.0], [1.0, 10.0], _first, _first)
    assert p.evaluate_batch([[0.5, 0.5], [1.0, -10.0], [0.0, 10.0]]).shape == (3, 2)
    with pytest.raises(BoundsError, match=r"point \[5\.0, 0\.0\] is outside"):
        p.evaluate_batch([[0.5, 0.5], [5.0, 0.0]])
    with pytest.raises(BoundsError, match=r"point \[0\.5, -10\.5\] is outside"):
        p.evaluate_batch((0.5, -10.5))
    assert p.counter.count == 6
    # an empty batch is in the box and holds no NaN: no values, nothing counted
    assert p.evaluate_batch(np.empty((0, 2))).shape == (0, 2)
    assert p.counter.count == 6


def _first(x):
    return x[:, 0].copy()


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
    # one (d,) point is a one-row batch and meets the same check
    with pytest.raises(InvalidInputError, match=r"'shape' must return shape \(1,\)"):
        p.evaluate_batch((0.25,))
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
        p.evaluate_batch((0.75,))
    with pytest.raises(InvalidInputError, match=r"point \[0\.75\]"):
        p.evaluate_batch([[0.25], [0.75], [1.0]])
    assert p.counter.count == 0
    assert np.isinf(p.evaluate_batch([[0.25]])).any()  # infinite values pass
    assert p.counter.count == 2


def test_opposite_infinities_are_not_nan():
    # +inf and -inf in one row: a NaN test that summed the values would
    # see inf + -inf = NaN; the row passes and is counted
    p = BiObjectiveProblem(
        name="inf", dim=1, lower=[0.0], upper=[1.0],
        f1=lambda x: np.full(len(x), np.inf), f2=lambda x: np.full(len(x), -np.inf),
    )
    assert p.evaluate_batch((0.5,)).tolist() == [[np.inf, -np.inf]]
    assert p.counter.count == 2


@pytest.mark.parametrize(
    "f2, dtype",
    [
        (lambda x: x[:, 0] + 0j, "complex128"),  # imaginary part 0: still not real
        (lambda x: x[:, 0] * (1 + 1j), "complex128"),
        (lambda x: np.full(len(x), "1.5"), "<U3"),
        (lambda x: [str(v) for v in x[:, 0]], "<U4"),
        (lambda x: np.full(len(x), None), "object"),
        (lambda x: [[0.5, 1.0], [2.0]], None),  # ragged: used to raise numpy's raw ValueError
    ],
)
def test_non_real_objective_rejected_and_uncounted(f2, dtype):
    p = BiObjectiveProblem("odd", 1, [0.0], [1.0], lambda x: x[:, 0].copy(), f2)
    fault = (
        f"must be real numbers, got dtype {dtype}$" if dtype
        else "cannot be read as an array: setting an array element with a sequence"
    )
    message = rf"^the output of objective f2 of problem 'odd' {fault}"
    with pytest.raises(InvalidInputError, match=message):
        p.evaluate_batch([[0.25], [0.75]])
    # the first objective is named too
    q = BiObjectiveProblem("odd", 1, [0.0], [1.0], f2, lambda x: x[:, 0].copy())
    with pytest.raises(InvalidInputError, match=r"^the output of objective f1 of problem 'odd'"):
        q.evaluate_batch([[0.25], [0.75]])
    assert p.counter.count == q.counter.count == 0


@pytest.mark.parametrize(
    "f2, expected",
    [
        (lambda x: x[:, 0] > 0.5, [0.0, 1.0]),
        (lambda x: np.arange(len(x)), [0.0, 1.0]),
        (lambda x: np.arange(len(x), dtype=np.uint8), [0.0, 1.0]),
        (lambda x: x[:, 0].astype(np.float32), [0.25, 0.75]),
        (lambda x: list(x[:, 0]), [0.25, 0.75]),
    ],
)
def test_real_objective_dtypes_accepted(f2, expected):
    p = BiObjectiveProblem("real", 1, [0.0], [1.0], lambda x: x[:, 0].copy(), f2)
    values = p.evaluate_batch([[0.25], [0.75]])
    assert values.dtype == np.float64
    assert values[:, 1].tolist() == expected
    assert p.counter.count == 4


def test_bounds_are_inclusive():
    p = convex_problem()
    p.evaluate_batch((-5.0, 10.0))  # corners are valid
    p.evaluate_batch((10.0, 10.0))
    with pytest.raises(BoundsError):
        p.evaluate_batch((10.0001, 0.0))


def test_dimension_mismatch():
    p = convex_problem()
    with pytest.raises(ValueError, match=r"\(n, 2\) batch"):
        p.evaluate_batch((0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "batch, shape",
    [
        # a 3-D batch used to pass the check, and the objectives got the blame
        (np.zeros((2, 2, 2)), r"\(2, 2, 2\)"),
        (np.zeros((3, 3)), r"\(3, 3\)"),  # used to be a bare ValueError
        ([0.0, 0.0, 0.0], r"\(1, 3\)"),
    ],
)
def test_batch_of_the_wrong_shape_names_it_and_is_uncounted(batch, shape):
    p = convex_problem()
    with pytest.raises(InvalidInputError, match=rf"\(n, 2\) batch .*'convex', got shape {shape}"):
        p.evaluate_batch(batch)
    assert p.counter.count == 0


def test_convex_symmetry():
    # f1(x1, x2) == f2(5 - x1, 5 - x2), a direct identity of the two quadratics
    p = convex_problem()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(200, 2))  # keep 5 - x inside the box too
    mirrored = 5.0 - pts
    np.testing.assert_allclose(p.f1(pts), p.f2(mirrored), rtol=1e-12)


_C = 1.0 / np.sqrt(2.0)

# The objectives as reductions over axis 1: the built-in kernels add their
# columns instead and must stay bit-identical to these.
REFERENCE_OBJECTIVES = {
    "fonseca": (
        lambda x: 1.0 - np.exp(-np.sum((x - _C) ** 2, axis=1)),
        lambda x: 1.0 - np.exp(-np.sum((x + _C) ** 2, axis=1)),
    ),
    "kursawe": (
        lambda x: np.sum(-10.0 * np.exp(-0.2 * np.sqrt(x[:, :-1] ** 2 + x[:, 1:] ** 2)), axis=1),
        lambda x: np.sum(np.abs(x) ** 0.8 + 5.0 * np.sin(x**3), axis=1),
    ),
}


def _kernel_batch(p, rows):
    """Uniform rows in the box, with corners, signed zeros and tiny values."""
    rng = np.random.default_rng(14)
    x = p.lower + (p.upper - p.lower) * rng.random((rows, p.dim))
    special = np.concatenate(
        [p.lower, p.upper, [0.0, -0.0, 1e-300, -1e-300, 5e-324, -2.5e-301, 1e-150, -1e-100]]
    )
    x[: rows // 10] = rng.choice(special, size=(rows // 10, p.dim))
    return x


@pytest.mark.parametrize("name", sorted(REFERENCE_OBJECTIVES))
def test_kernels_bit_identical_to_axis_reductions(name):
    p = lookup_problem(name)
    x = _kernel_batch(p, 120_000)
    for rows in (x, x[:1], x[:0]):
        for kernel, reference in zip((p.f1, p.f2), REFERENCE_OBJECTIVES[name]):
            got, want = kernel(rows), reference(rows)
            assert got.shape == want.shape == (len(rows),)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
    # nor do a kernel's bits depend on the batch's memory layout: Kursawe's f1
    # copies the batch to coordinate rows, which a Fortran-ordered batch or a
    # strided view of rows must reach with the same values
    for kernel in (p.f1, p.f2):
        want = kernel(x)
        assert kernel(np.asfortranarray(x)).tobytes() == want.tobytes()
        assert kernel(x[::3]).tobytes() == want[::3].tobytes()


def test_kursawe_term_is_elementwise():
    # a Metropolis proposal's f2 adds one column's new term to the row's
    # carried terms; that holds bit for bit only if each column of the term
    # matrix equals the term of that column alone
    p = kursawe_problem()
    assert isinstance(p.f2, CoordinateSum)
    x = _kernel_batch(p, 120_000)
    t = p.f2.term(x)
    assert t.shape == x.shape
    for j in range(p.dim):
        assert t[:, j].tobytes() == p.f2.term(np.ascontiguousarray(x[:, j])).tobytes()


def test_coordinate_sum_term_of_the_wrong_shape_rejected_and_uncounted():
    # a term that reduces each row is not elementwise; both calls refuse it
    p = BiObjectiveProblem(
        "rowwise", 2, [0.0, 0.0], [1.0, 1.0],
        lambda x: x[:, 0].copy(), CoordinateSum(lambda x: x.sum(axis=1)),
    )
    message = r"^the term of objective f2 of problem 'rowwise' .* \(1, 2\), got \(1,\)$"
    with pytest.raises(InvalidInputError, match=message):
        p.evaluate_batch((0.25, 0.75))
    with pytest.raises(InvalidInputError, match=message):
        p._evaluate_terms([[0.25, 0.75]])
    assert p.counter.count == 0


# a term's output that the array rule refuses, and the end of the message
_BAD_TERMS = {
    "ragged": (lambda x: [[0.0, 0.0], [0.0]], r" cannot be read as an array: .*inhomogeneous"),
    "none": (lambda x: [None] * len(x), r" must be real numbers, got dtype object"),
    "strings": (lambda x: x.astype(str), r" must be real numbers, got dtype <U\d+"),
    "complex": (lambda x: x + 0j, r" must be real numbers, got dtype complex128"),
}


@pytest.mark.parametrize("case", list(_BAD_TERMS))
def test_term_read_by_the_array_rule(case):
    # a ragged list and None values used to escape as numpy's raw ValueError
    # and TypeError, and strings were concatenated before the output check
    bad, ending = _BAD_TERMS[case]
    p = BiObjectiveProblem("t", 2, [0.0, 0.0], [1.0, 1.0], lambda x: x[:, 0].copy(),
                           CoordinateSum(bad))
    with pytest.raises(InvalidInputError, match=rf"^the term of objective f2 of problem 't'{ending}"):
        p.evaluate_batch([[0.5, 0.5], [0.2, 0.2]])
    assert p.counter.count == 0
    with pytest.raises(InvalidInputError, match=rf"^the term of a CoordinateSum{ending}"):
        p.f2(np.array([[0.5, 0.5], [0.2, 0.2]]))


@pytest.mark.parametrize("case", list(_BAD_TERMS))
def test_term_at_proposals_read_by_the_array_rule(case):
    # the term is sound on the whole population and faulty on the one column
    # a Metropolis proposal moves, so run reaches the one-column path; the
    # refused batch is not counted
    class Stop(Exception):
        pass

    def make(on_column):
        def term(x):
            return on_column(x) if x.ndim == 1 else np.cos(x)
        return BiObjectiveProblem("t", 2, [0.0, 0.0], [1.0, 1.0], lambda x: x[:, 0].copy(),
                                  CoordinateSum(term))

    def stop(x):
        raise Stop

    cfg = PfopsConfig(n_targets=3, n_particles=8, sigma=1e-3, metropolis_enabled=True)
    stopped = make(stop)
    with pytest.raises(Stop):
        run(cfg, stopped)
    bad, ending = _BAD_TERMS[case]
    p = make(bad)
    with pytest.raises(InvalidInputError, match=rf"^the term of objective f2 of problem 't'{ending}"):
        run(cfg, p)
    assert p.counter.count == stopped.counter.count > 0


@pytest.mark.parametrize("big, small, dtype", [(1.0, 2.0**-30, np.float32), (2**53, 1, np.int64)])
def test_term_summed_in_float64(big, small, dtype):
    # a float32 or integer term is read as float64 before its columns are
    # added, so the sum differs from the one in the term's own dtype
    def term(x):
        return np.where(x > 0.5, big, small).astype(dtype)

    x = np.array([[0.75, 0.25, 0.25]])
    t = term(x)
    native = float(t[0, 0] + t[0, 1] + t[0, 2])
    wide = t.astype(float)
    expected = float(wide[0, 0] + wide[0, 1] + wide[0, 2])
    assert native != expected
    f2 = CoordinateSum(term)
    p = BiObjectiveProblem("t", 3, [0.0] * 3, [1.0] * 3, lambda x: x[:, 0].copy(), f2)
    for values in (f2(x), p.evaluate_batch(x)[:, 1]):
        assert values.dtype == np.float64 and values.tolist() == [expected]


def _one_message_from_every_caller(f1, f2):
    """The one error text that evaluate_batch, NSGA-II, PFOPS's run and the
    Metropolis sweep raise for problem 'moves' with objectives f1 and f2, each
    with the counter unmoved, and the first point of their first batch: the 8
    points that run and evolve draw at seed 0."""
    def make():
        return BiObjectiveProblem("moves", 2, [0.0, 0.0], [1.0, 1.0], f1, f2)

    config = PfopsConfig(n_targets=2, n_particles=8)
    first = initialize(config, make(), np.random.default_rng(0))
    calls = [
        lambda p: p.evaluate_batch(first.particles),
        lambda p: evolve(Nsga2Config(pop_size=8, generations=1), p),
        lambda p: run(config, p),
        lambda p: metropolis_sweep(first, weighted_sum(0.5), p, 0.1, np.random.default_rng(1)),
    ]
    messages = set()
    for call in calls:
        p = make()
        with pytest.raises(InvalidInputError) as err:
            call(p)
        assert p.counter.count == 0
        messages.add(str(err.value))
    assert len(messages) == 1
    return messages.pop(), first.particles[0]


def test_wrong_shape_term_gets_one_message_from_every_caller():
    message, _ = _one_message_from_every_caller(
        lambda x: x[:, 0].copy(), CoordinateSum(lambda x: x.sum(axis=1))
    )
    assert message == (
        "the term of objective f2 of problem 'moves' must return one value per "
        "coordinate, shape (8, 2), got (8,)"
    )


@pytest.mark.parametrize(
    "f1, expected",
    [
        (
            lambda x: np.full(len(x), np.nan),
            "objectives of problem 'moves' are NaN at point {point}: [nan, {value}]",
        ),
        (
            lambda x: x[:, 0] + 1j,
            "the output of objective f1 of problem 'moves' must be real numbers, "
            "got dtype complex128",
        ),
        (
            lambda x: x[1:, 0],
            "objectives of problem 'moves' must return shape (8,) for 8 points, "
            "got (7,) and (8,)",
        ),
    ],
    ids=["nan", "complex", "output-shape"],
)
def test_plain_objective_fault_gets_one_message_from_every_caller(f1, expected):
    # a plain objective takes the one evaluation path a CoordinateSum takes
    message, point = _one_message_from_every_caller(f1, lambda x: x[:, 1].copy())
    assert message == expected.format(point=point.tolist(), value=point[1])


def _sums_problem():
    """Both objectives CoordinateSums, so two term matrices are carried."""
    return BiObjectiveProblem(
        "sums", 3, np.full(3, -5.0), np.full(3, 5.0),
        CoordinateSum(lambda x: np.abs(x) ** 0.5), CoordinateSum(_kursawe_f2_term),
    )


def test_move_mode_writes_nothing_it_is_given():
    p = _sums_problem()
    x = _kernel_batch(p, 50)
    _, terms = p._evaluate_terms(x)
    assert [t.shape for t in terms] == [(50, 3), (50, 3)]
    moved = x.copy()
    moved[:, 1] = np.random.default_rng(15).uniform(-5.0, 5.0, 50)
    given = [t.copy() for t in terms]
    values, columns = p._evaluate_terms(moved, 1, given)
    for t, g in zip(terms, given):
        assert g.tobytes() == t.tobytes()
    assert values.tobytes() == p.evaluate_batch(moved).tobytes()
    for f, col in zip((p.f1, p.f2), columns):
        assert col.tobytes() == f.term(np.ascontiguousarray(moved[:, 1])).tobytes()


@pytest.mark.parametrize("make", [kursawe_problem, _sums_problem])
def test_carried_terms_give_the_values_of_a_full_evaluation(make):
    # given the term matrices computed at the very rows, the call computes no
    # term and adds their columns: the bytes and the count of evaluate_batch
    p = make()
    x = _kernel_batch(p, 50)
    expected, terms = p._evaluate_terms(x)
    assert expected.tobytes() == p.evaluate_batch(x).tobytes()
    for f in (p.f1, p.f2):
        if isinstance(f, CoordinateSum):
            f.term = None  # a call would fail
    given = [t.copy() for t in terms]
    start = p.counter.count
    values, returned = p._evaluate_terms(x, None, given)
    assert p.counter.count - start == 2 * 50
    assert values.tobytes() == expected.tobytes()
    for t, g, r in zip(terms, given, returned):
        assert g.tobytes() == t.tobytes()
        assert r.tobytes() == t.tobytes()


def test_carried_terms_out_of_box_row_rejected_and_uncounted():
    p = _sums_problem()
    x = _kernel_batch(p, 20)
    _, terms = p._evaluate_terms(x)
    start = p.counter.count
    x[7, 2] = 5.5
    with pytest.raises(BoundsError, match=r"^point \[.*5\.5\] is outside the box of problem 'sums'"):
        p._evaluate_terms(x, None, terms)
    assert p.counter.count == start


def test_carried_nan_term_names_the_point_and_is_uncounted():
    def term(x):
        return np.where(x > 0.5, np.nan, x)

    p = BiObjectiveProblem("nan-term", 2, [0.0, 0.0], [1.0, 1.0], lambda x: x[:, 0].copy(),
                           CoordinateSum(term))
    x = np.array([[0.25, 0.25], [0.25, 0.75], [0.75, 0.25]])
    with pytest.raises(InvalidInputError) as carried:
        p._evaluate_terms(x, None, [term(x)])
    assert str(carried.value).startswith(
        "objectives of problem 'nan-term' are NaN at point [0.25, 0.75]"
    )
    with pytest.raises(InvalidInputError) as fresh:
        p.evaluate_batch(x)
    assert str(carried.value) == str(fresh.value)
    assert p.counter.count == 0


@pytest.mark.parametrize("moves", [True, False])
def test_run_computes_each_term_once_per_coordinate_value(moves):
    # the step's evaluation adds the carried term matrix, so the term runs on
    # the whole population at step 1 only, and then only on the sweep's
    # proposals: one (in-box) column per dimension per step
    shapes = []

    def counting_term(x):
        shapes.append(x.shape)
        return np.cos(3.0 * x)

    p = BiObjectiveProblem("counted", 2, [0.0, 0.0], [1.0, 1.0],
                           lambda x: x[:, 0] * x[:, 1], CoordinateSum(counting_term))
    k, n = 5, 20
    # sigma is so small that every sweep keeps some proposal in the box
    cfg = PfopsConfig(n_targets=k, n_particles=n, sigma=1e-3, metropolis_enabled=moves, seed=3)
    _, evals = run(cfg, p)
    assert shapes[0] == (n, 2)
    assert all(len(s) == 1 for s in shapes[1:])
    assert len(shapes) == (1 + k * p.dim if moves else 1)
    assert evals == 2 * k * n * (1 + p.dim if moves else 1)
