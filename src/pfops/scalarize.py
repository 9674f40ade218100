"""Scalarized target densities and the balance-parameter schedule.

A run simulates a sequence of unnormalized densities pi_k over the decision
space, each collapsing the two objectives into one scalar with a balance
parameter lambda_k that sweeps from 0 (pure f1) to 1 (pure f2):

    weighted-sum:  pi_k(x) = exp(-[(1 - lambda_k) f1(x) + lambda_k f2(x)])
    Tchebycheff:   pi_k(x) = exp(-max{(1 - lambda_k) |f1(x) - z1|,
                                      lambda_k |f2(x) - z2|})

where z = (z1, z2) is a Utopian point strictly below each objective's
minimum. Normalizing constants are never computed: every consumer works
with ratios of pi_k, where they cancel, and all arithmetic stays in log
space (raw densities underflow: the convex benchmark reaches exp(-225)
at the far corner of its box).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError


def is_finite_number(value: object) -> bool:
    """A finite real number; an int counts, a bool does not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def is_finite_pair(value: object) -> bool:
    """A tuple, list or 1-D array of two finite real numbers."""
    return (
        isinstance(value, (tuple, list, np.ndarray))
        and len(value) == 2
        and all(map(is_finite_number, value))
    )


class ScalarizationKind(enum.Enum):
    WEIGHTED_SUM = "weighted-sum"
    TCHEBYCHEFF = "tchebycheff"


@dataclass(frozen=True)
class Scalarization:
    """One member of the target-density family.

    Attributes:
        kind: weighted-sum or Tchebycheff.
        lam: balance parameter in [0, 1].
        utopian: (z1, z2), two finite numbers, required iff kind is
            Tchebycheff; stored as a float tuple.
    """

    kind: ScalarizationKind
    lam: float
    utopian: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        z = self.utopian
        if self.kind is ScalarizationKind.TCHEBYCHEFF:
            if z is None:
                raise InvalidConfigError("utopian is required by the Tchebycheff scalarization")
            if not is_finite_pair(z):
                raise InvalidConfigError(f"utopian must be two finite numbers, got {z!r}")
            object.__setattr__(self, "utopian", (float(z[0]), float(z[1])))
        elif z is not None:
            raise InvalidConfigError(f"the weighted-sum scalarization takes no utopian, got {z!r}")

    def log_density_values(self, objectives: np.ndarray) -> np.ndarray | float:
        """log pi at pre-computed objective values.

        Args:
            objectives: (..., 2) array of (f1, f2) values.

        Returns:
            log pi with the leading shape of ``objectives``; a float for a
            single (2,) input.
        """
        obj = np.asarray(objectives, dtype=float)
        f1 = obj[..., 0]
        f2 = obj[..., 1]
        if self.kind is ScalarizationKind.WEIGHTED_SUM:
            out = -((1.0 - self.lam) * f1 + self.lam * f2)
        else:
            z1, z2 = self.utopian  # type: ignore[misc]
            out = -np.maximum(
                (1.0 - self.lam) * np.abs(f1 - z1), self.lam * np.abs(f2 - z2)
            )
        return float(out) if out.ndim == 0 else out


def weighted_sum(lam: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_SUM, lam)


def tchebycheff(lam: float, utopian: tuple[float, float]) -> Scalarization:
    return Scalarization(ScalarizationKind.TCHEBYCHEFF, lam, utopian)


def equal_interval_schedule(k_targets: int) -> np.ndarray:
    """Balance parameters lambda_k = (k-1)/(K-1) for k = 1..K.

    Raises:
        InvalidConfigError: if K < 2; a single lambda cannot be both the
            required first value 0 and last value 1.
    """
    if k_targets < 2:
        raise InvalidConfigError(
            f"need at least 2 targets to span lambda from 0 to 1, got {k_targets}"
        )
    return np.linspace(0.0, 1.0, int(k_targets))
