"""The input rules in pfops.errors, run through every entry point that uses them."""

import re

import numpy as np
import pytest

from pfops.core import PfopsConfig
from pfops.errors import InvalidConfigError, InvalidInputError, NotFoundError, check_sizable
from pfops.experiments import PRESETS, compare, get_preset, run_preset
from pfops.pareto import BENCHMARKS, reference_front
from pfops.problems import PROBLEM_FACTORIES, BiObjectiveProblem, lookup_problem
from pfops.scalarize import equal_interval_schedule


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
