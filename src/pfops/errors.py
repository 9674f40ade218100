"""Exception types and the input rules shared across the package.

Each rule is a predicate that its callers wrap in their own error class and
message; :func:`check_integer` is the config form of :func:`is_integer`, and
:func:`check_sizable` bounds a config count by the arrays it sizes.
"""

import math
import numbers

import numpy as np


class PfopsError(Exception):
    """Base class for all library errors."""


class NotFoundError(PfopsError, KeyError):
    """A name was not found in a registry (problems, presets)."""

    def __str__(self) -> str:
        # KeyError's str() is the repr of its key; this one is a message
        return Exception.__str__(self)


class InvalidConfigError(PfopsError, ValueError):
    """A configuration object violates its own constraints."""


class InvalidInputError(PfopsError, ValueError):
    """An operation received arguments outside its contract."""


class BoundsError(PfopsError, ValueError):
    """A decision vector lies outside the problem's box bounds."""


class DegenerateWeightsError(PfopsError, RuntimeError):
    """A step's importance weights have no finite maximum: every particle has
    zero density under the current target, a weight is infinite, or one is
    NaN; the message says which."""


def is_integer(value: object, minimum: int) -> bool:
    """An integer >= ``minimum``; numpy integers count, a bool does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum


def check_integer(name: str, value: object, minimum: int) -> None:
    """Reject a config count or seed that is not an integer >= ``minimum``."""
    if not is_integer(value, minimum):
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_sizable(name: str, count: int, row_items: int) -> None:
    """Reject a config count whose array of ``count`` rows of ``row_items``
    float64 values numpy cannot size: numpy refuses such a shape with a bare
    ValueError before it allocates anything."""
    if int(count) * int(row_items) * 8 > np.iinfo(np.intp).max:  # no numpy int overflow
        raise InvalidConfigError(
            f"{name} is too large: numpy cannot size {count} x {row_items} float64 values"
        )


def is_finite_number(value: object) -> bool:
    """A finite real number; an int counts, a bool does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def is_finite_pair(value: object) -> bool:
    """A tuple or list of two finite real numbers, or a (2,) array of them."""
    if isinstance(value, np.ndarray):
        is_pair = value.shape == (2,)  # len() of a 0-d array raises TypeError
    else:
        is_pair = isinstance(value, (tuple, list)) and len(value) == 2
    return is_pair and all(map(is_finite_number, value))
