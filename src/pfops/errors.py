"""Exception types shared across the package."""


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
    """Every particle has zero density under the current target."""
