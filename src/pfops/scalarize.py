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
at the far corner of its box). Lambda, the Utopian point and the target
count are checked by the shared rules of :mod:`pfops.errors`; a kind must be
a ScalarizationKind member, not its string value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, is_finite_number, is_finite_pair, is_integer


class ScalarizationKind(enum.Enum):
    WEIGHTED_SUM = "weighted-sum"
    TCHEBYCHEFF = "tchebycheff"


@dataclass(frozen=True)
class Scalarization:
    """One member of the target-density family.

    Attributes:
        kind: a ScalarizationKind, weighted-sum or Tchebycheff (its string
            value is not one).
        lam: balance parameter, a number in [0, 1] (a bool is not one).
        utopian: (z1, z2), two finite numbers, required iff kind is
            Tchebycheff; stored as a float tuple.
    """

    kind: ScalarizationKind
    lam: float
    utopian: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ScalarizationKind):
            raise InvalidConfigError(
                f"scalarization_kind must be a ScalarizationKind, got {self.kind!r}"
            )
        if not (is_finite_number(self.lam) and 0.0 <= self.lam <= 1.0):
            raise InvalidConfigError(f"lambda must be a number in [0, 1], got {self.lam!r}")
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
        single = obj.ndim == 1
        if single:  # a (2,) vector is a one-row batch, so that the steps below
            obj = obj[np.newaxis]  # have arrays to work in, not 0-d scalars
        f1 = obj[..., 0]
        f2 = obj[..., 1]
        # each step below runs on a fresh temporary, never on ``objectives``;
        # the float operations and their order are those of
        # -((1 - lam) f1 + lam f2) and -max{(1 - lam) |f1 - z1|, lam |f2 - z2|}
        # (a product's operands commute exactly), so the values are the same
        if self.kind is ScalarizationKind.WEIGHTED_SUM:
            out = f1 * (1.0 - self.lam)
            out += f2 * self.lam
        else:
            z1, z2 = self.utopian  # type: ignore[misc]
            out = f1 - z1
            np.abs(out, out=out)
            out *= 1.0 - self.lam
            dev2 = f2 - z2
            np.abs(dev2, out=dev2)
            dev2 *= self.lam
            np.maximum(out, dev2, out=out)
        np.negative(out, out=out)
        return out[0] if single else out


def weighted_sum(lam: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_SUM, lam)


def equal_interval_schedule(k_targets: int) -> np.ndarray:
    """Balance parameters lambda_k = (k-1)/(K-1) for k = 1..K.

    Raises:
        InvalidConfigError: if K is not an integer (numpy integers pass) or
            is below 2; a single lambda cannot be both the required first
            value 0 and last value 1.
    """
    if not is_integer(k_targets, 2):
        raise InvalidConfigError(
            f"need an integer of at least 2 targets to span lambda from 0 to 1, "
            f"got {k_targets!r}"
        )
    return np.linspace(0.0, 1.0, int(k_targets))
