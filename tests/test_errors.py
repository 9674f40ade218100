"""The input rules in pfops.errors, run through every entry point that uses them."""

import re

import numpy as np
import pytest

from pfops import errors
from pfops.core import PfopsConfig
from pfops.errors import InvalidConfigError, InvalidInputError, NotFoundError, check_sizable
from pfops.experiments import PRESETS, compare, emit_front_svg, get_preset, run_preset
from pfops.nsga2 import crowding_distance
from pfops.pareto import (
    BENCHMARKS,
    dominates,
    hypervolume_2d,
    igd,
    nondominated_mask,
    reference_front,
    write_front_csv,
)
from pfops.problems import PROBLEM_FACTORIES, BiObjectiveProblem, convex_problem, lookup_problem
from pfops.scalarize import equal_interval_schedule, weighted_sum


def _zero(x):
    return np.zeros(len(x))


BELOW_MINIMUM = object()  # stands for each entry point's minimum - 1

# (entry point, its minimum, the error class it raises, a word of its message
# that names the field)
INTEGER_ENTRY_POINTS = {
    "config-count": (lambda v: PfopsConfig(n_targets=2, n_particles=v), 1, InvalidConfigError,
                     "n_particles"),
    "schedule": (equal_interval_schedule, 2, InvalidConfigError, "targets"),
    "reference-resolution": (lambda v: reference_front("convex", v), 2, InvalidInputError,
                             "resolution"),
    "problem-dim": (lambda v: BiObjectiveProblem("p", v, [0.0], [1.0], _zero, _zero), 1,
                    InvalidInputError, "dim"),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize(
    "value", [True, 2.0, "3", None, BELOW_MINIMUM], ids=["bool", "float", "str", "none", "below"]
)
def test_integer_rule_rejects(entry, value):
    build, minimum, error, field = INTEGER_ENTRY_POINTS[entry]
    if value is BELOW_MINIMUM:
        value = minimum - 1
    with pytest.raises(error, match=rf"{field}.*got {re.escape(repr(value))}") as info:
        build(value)
    assert type(info.value) is error


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_rule_accepts_plain_and_numpy_integers(entry):
    build, minimum, _, _ = INTEGER_ENTRY_POINTS[entry]
    build(minimum)
    build(np.int64(minimum))


def test_sizable_rule_is_numpys_limit():
    # numpy sizes a shape iff its byte count fits in an intp
    rows = np.iinfo(np.intp).max // (3 * 8)
    check_sizable("n_particles", rows, 3)
    with pytest.raises(InvalidConfigError, match=rf"^n_particles is too large: .* {rows + 1} x 3 "):
        check_sizable("n_particles", rows + 1, 3)
    # a numpy integer count is not multiplied in (wrapping) int64
    with pytest.raises(InvalidConfigError, match="pop_size"):
        check_sizable("pop_size", np.int64(2**62), np.int64(6))


# (entry point, what it names in its message, the table it looks the name up in)
KEY_ENTRY_POINTS = {
    "problem": (lookup_problem, "problem", PROBLEM_FACTORIES),
    "preset": (get_preset, "preset", PRESETS),
    "run-preset": (lambda name: run_preset(name, 0), "preset", PRESETS),
    "compare": (lambda name: compare(name, "pfops-convex-under", [0]), "preset", PRESETS),
    "benchmark": (lambda name: reference_front(name, 10), "benchmark", BENCHMARKS),
}


@pytest.mark.parametrize("entry", KEY_ENTRY_POINTS)
@pytest.mark.parametrize(
    "name", ["nope", ["x"], {"a": 1}, None, 3], ids=["str", "list", "dict", "none", "int"]
)
def test_lookup_rule_refuses(entry, name):
    # an unhashable preset name used to escape as a raw TypeError
    lookup, what, table = KEY_ENTRY_POINTS[entry]
    with pytest.raises(NotFoundError) as info:
        lookup(name)
    assert str(info.value) == f"unknown {what} '{name}'; available: {', '.join(table)}"


# (entry point taking an array, a scratch directory and a problem, what its
# message names the array)
ARRAY_ENTRY_POINTS = {
    "evaluate-batch": (lambda x, _, problem: problem.evaluate_batch(x),
                       "points for problem 'convex'"),
    "log-density-values": (lambda x, *_: weighted_sum(0.5).log_density_values(x),
                           "objective values"),
    "dominates-a": (lambda x, *_: dominates(x, [0, 0]), "a"),
    "dominates-b": (lambda x, *_: dominates([0, 0], x), "b"),
    "nondominated-mask": (lambda x, *_: nondominated_mask(x), "points"),
    "igd-estimate": (lambda x, *_: igd(x, [[0, 0]]), "front"),
    "igd-reference": (lambda x, *_: igd([[0, 0]], x), "front"),
    "hypervolume": (lambda x, *_: hypervolume_2d(x, (5, 5)), "front"),
    "crowding": (lambda x, *_: crowding_distance(x), "front"),
    "write-csv": (lambda x, out, _: write_front_csv(x, out / "front.csv"), "front"),
    "svg": (lambda x, out, _: emit_front_svg({"a": x}, [[0, 1], [1, 0]], out / "front.svg"),
            "front 'a': front"),
}


class _NoArray:
    def __array__(self, dtype=None, copy=None):
        raise TypeError("no array here")


# (value, the rest of the message)
NON_REAL_ARRAYS = {
    "strings": ([["1", "2"]], "must be real numbers, got dtype <U1$"),
    "letters": ([["a", "b"]], "must be real numbers, got dtype <U1$"),
    "complex-array": (np.array([[1 + 2j, 3]]), "must be real numbers, got dtype complex128$"),
    "python-complex": ([[1 + 2j, 3]], "must be real numbers, got dtype complex128$"),
    "none": (None, "must be real numbers, got dtype object$"),
    "objects": ([[object(), 1]], "must be real numbers, got dtype object$"),
    "ragged": ([[1, 2], [3]], "cannot be read as an array: setting an array element with a seq"),
    "no-array": (_NoArray(), "cannot be read as an array: no array here$"),
}


@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
@pytest.mark.parametrize("case", NON_REAL_ARRAYS)
def test_array_rule_refuses(entry, case, tmp_path):
    # strings used to be parsed, a complex array to lose its imaginary part
    # with a ComplexWarning, and the rest to escape as numpy's raw ValueError
    # or TypeError (or, for None, as a shape error)
    call, name = ARRAY_ENTRY_POINTS[entry]
    value, fault = NON_REAL_ARRAYS[case]
    problem = convex_problem()
    with pytest.raises(InvalidInputError, match=rf"^{re.escape(name)} {fault}"):
        call(value, tmp_path, problem)
    assert not any(tmp_path.iterdir())  # nothing written
    assert problem.counter.count == 0  # nothing counted


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_, np.float32])
def test_array_rule_keeps_the_bits_of_real_inputs(dtype):
    # bool, integer and float32 values are read as the float64 array of their
    # values, so they give that array's bits
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 6.0, size=(40, 2)).astype(dtype)
    as_float = values.astype(float)
    problem = convex_problem()
    expected = problem.evaluate_batch(as_float).tobytes()
    assert problem.evaluate_batch(values).tobytes() == expected
    assert problem.evaluate_batch(values.tolist()).tobytes() == expected
    reference = as_float[::-1] + 0.5
    assert igd(values, reference) == igd(as_float, reference)
    assert igd(reference, values) == igd(reference, as_float)
    assert nondominated_mask(values).tolist() == nondominated_mask(as_float).tolist()


def test_array_rule_gives_a_float64_array_back_as_is():
    array = np.ones((3, 2))
    assert errors.as_real_array("x", array) is array


@pytest.mark.parametrize("value", ["nope", "", 3, None, ["x"], "x" * 58, ("a", 1.5)])
def test_shown_keeps_a_short_input_whole(value):
    assert errors.shown(value) == repr(value)
    assert errors.shown(value, quote=True) == f"'{value}'"


def test_shown_cuts_a_long_input_to_its_start_and_length():
    assert errors.shown("x" * 5000, quote=True) == f"'{'x' * 60}...' (5000 characters)"
    assert errors.shown("x" * 61, quote=True) == f"'{'x' * 60}...' (61 characters)"
    assert errors.shown([1] * 3000) == f"{repr([1] * 30)[:60]}... (9000 characters)"
    assert errors.shown("x" * 5000) == f"'{'x' * 60}...' (5000 characters)"
    assert errors.shown("x" * 61) == f"'{'x' * 60}...' (61 characters)"
    assert errors.shown("x" * 60) == repr("x" * 60)
    assert errors.shown("it's" * 30) == '"' + "it's" * 15 + '..." (120 characters)'
