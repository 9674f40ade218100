"""Exception types and the input rules shared across the package.

Each rule is a predicate that its callers wrap in their own error class and
message; :func:`check_integer` is the config form of :func:`is_integer`,
:func:`check_sizable` bounds a count by the arrays it sizes,
:func:`check_instance` checks an argument's type and :func:`check_key` a registry name.
:func:`as_real_array` is the one rule for array inputs at the public boundary.
:func:`shown` is the one rule for quoting a user's input in an error text.
"""

import math
import numbers
from collections.abc import Mapping
from typing import TypeVar

import numpy as np

_V = TypeVar("_V")

# characters of a user's input that an error text quotes
_SHOWN_CHARS = 60


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


def shown(value: object, quote: bool = False) -> str:
    """A user's input as an error text quotes it: ``repr(value)`` or, with
    ``quote``, ``str(value)`` between single quotes. A text of more than 60
    characters keeps its first 60, marked by '...', and is followed by its
    length, as in ``'xxxx...' (5000 characters)``: a message about a
    5000-character input stays short. A string's repr is cut inside its
    quotes and counted by the string's own length."""
    if quote:
        mark, text = "'", str(value)
    elif isinstance(value, str):
        text = repr(value)
        mark, text = text[0], text[1:-1]
    else:
        mark, text = "", repr(value)
    if len(text) <= _SHOWN_CHARS:
        return f"{mark}{text}{mark}"
    size = len(value) if isinstance(value, str) else len(text)
    return f"{mark}{text[:_SHOWN_CHARS]}...{mark} ({size} characters)"


def is_integer(value: object, minimum: int) -> bool:
    """An integer >= ``minimum``; numpy integers count, a bool does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum


def check_integer(name: str, value: object, minimum: int) -> int:
    """A config count or seed as a plain int; one not an integer >= ``minimum`` is rejected."""
    if not is_integer(value, minimum):
        raise InvalidConfigError(f"{name} must be an integer >= {minimum}, got {shown(value)}")
    return int(value)


def check_sizable(
    name: str, count: int, row_items: int, error: type[PfopsError] = InvalidConfigError
) -> None:
    """Raise ``error`` for a count whose array of ``count`` rows of ``row_items``
    float64 values numpy cannot size: numpy refuses such a shape with a bare
    ValueError before it allocates anything."""
    if int(count) * int(row_items) * 8 > np.iinfo(np.intp).max:  # no numpy int overflow
        raise error(
            f"{name} is too large: numpy cannot size {count} x {row_items} float64 values"
        )


def check_instance(error: type[PfopsError], name: str, value: object, cls: type) -> None:
    """Raise ``error`` naming ``name`` and ``cls`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise error(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")


def check_key(
    table: Mapping[str, _V], name: object, what: str, error: type[PfopsError] = NotFoundError
) -> _V:
    """``table[name]``; any other name, an unhashable one included, raises ``error`` naming it.
    When :func:`shown` cuts the name, the available names start a second
    line: the preset table's alone take 150 characters."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        sep = "\n" if len(str(name)) > _SHOWN_CHARS else " "
        raise error(
            f"unknown {what} {shown(name, quote=True)};{sep}available: {', '.join(table)}"
        ) from None


def as_real_array(name: str, value: object) -> np.ndarray:
    """``value`` as a float64 array, the same object if it is one already.
    What numpy cannot stack (a ragged nesting, say) or of a dtype other than
    bool, integer or float raises InvalidInputError naming ``name``: a cast
    would parse strings and drop an imaginary part."""
    try:
        array = np.asarray(value)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"{name} cannot be read as an array: {exc}") from None
    if array.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


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
