"""Exception types and the input rules shared across the package.

Each rule is a predicate that its callers wrap in their own error class and
message; :func:`check_integer` is the config form of :func:`is_integer`,
:func:`check_sizable` bounds a config count by the arrays it sizes,
:func:`check_instance` checks an argument's type and :func:`check_key` a registry name.
"""

import math
import numbers
from collections.abc import Mapping
from typing import TypeVar

import numpy as np

_V = TypeVar("_V")


class PfopsError(Exception):
    """Base class for all library errors."""


class NotFoundError(PfopsError, KeyError):
    """A name was not found in a registry (problems, presets, benchmarks)."""

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


def check_integer(name: str, value: object, minimum: int) -> int:
    """A config count or seed as a plain int; one not an integer >= ``minimum`` is rejected."""
    if not is_integer(value, minimum):
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_sizable(name: str, count: int, row_items: int) -> None:
    """Reject a config count whose array of ``count`` rows of ``row_items``
    float64 values numpy cannot size: numpy refuses such a shape with a bare
    ValueError before it allocates anything."""
    if int(count) * int(row_items) * 8 > np.iinfo(np.intp).max:  # no numpy int overflow
        raise InvalidConfigError(
            f"{name} is too large: numpy cannot size {count} x {row_items} float64 values"
        )


def check_instance(error: type[PfopsError], name: str, value: object, cls: type) -> None:
    """Raise ``error`` naming ``name`` and ``cls`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise error(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def check_key(
    table: Mapping[str, _V], name: object, what: str, error: type[PfopsError] = NotFoundError
) -> _V:
    """``table[name]``; any other name, an unhashable one included, raises ``error`` naming it."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise error(f"unknown {what} '{name}'; available: {', '.join(table)}") from None


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
