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

from .errors import InvalidConfigError, InvalidInputError
from .errors import is_finite_number, is_finite_pair, is_integer


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

    def log_density_values(self, objectives: np.ndarray) -> np.ndarray:
        """log pi, shape (n,), at the (n, 2) objective values of a batch, as
        an evaluation returns them; any other shape, a single (2,) point
        included, raises InvalidInputError naming it.

        A zero weight drops its term: at lambda = 0 the value ignores f2, and
        at lambda = 1 it ignores f1, even where that objective is infinite
        (``0 * inf`` would be NaN). Elsewhere the value is that of the formula.
        """
        obj = np.asarray(objectives, dtype=float)
        if obj.ndim != 2 or obj.shape[1] != 2:
            raise InvalidInputError(f"objective values must have shape (n, 2), got {obj.shape}")
        f1 = obj[:, 0]
        f2 = obj[:, 1]
        w1, w2 = 1.0 - self.lam, self.lam
        # each step below runs on a fresh temporary, never on ``objectives``;
        # the float operations and their order are those of
        # -(w1 f1 + w2 f2) and -max{w1 |f1 - z1|, w2 |f2 - z2|} (a product's
        # operands commute exactly), so for finite objectives the values are
        # the same, but for the sign of a zero where a term is dropped
        if self.kind is ScalarizationKind.WEIGHTED_SUM:
            if w1:
                out = f1 * w1
                if w2:
                    out += f2 * w2
            else:
                out = f2 * w2
        else:
            z1, z2 = self.utopian  # type: ignore[misc]
            out = f1 - z1 if w1 else f2 - z2
            np.abs(out, out=out)
            out *= w1 if w1 else w2
            if w1 and w2:
                dev2 = f2 - z2
                np.abs(dev2, out=dev2)
                dev2 *= w2
                np.maximum(out, dev2, out=out)
        np.negative(out, out=out)
        return out


def log_density_table(
    objectives: np.ndarray, lams: np.ndarray, kind: ScalarizationKind,
    utopian: tuple[float, float] | None = None,
) -> np.ndarray:
    """log pi, shape (len(lams), n), of the (n, 2) objective values of a batch
    under each balance parameter in ``lams``: row r has the bits of
    ``Scalarization(kind, lams[r], utopian).log_density_values(objectives)``.

    The float operations and their order are those of
    ``log_density_values``, broadcast over the rows, and a zero weight drops
    its term wherever lambda is exactly 0 or 1, whichever rows those are.
    The caller gives valid arguments: a float array of lambdas in [0, 1] and
    the kind's Utopian point; nothing is checked here.
    """
    f1 = objectives[:, 0]
    f2 = objectives[:, 1]
    w2 = np.asarray(lams, dtype=float)[:, None]
    w1 = 1.0 - w2
    has1 = w1 != 0.0
    has2 = w2 != 0.0
    shape = (len(w2), len(f1))
    if kind is ScalarizationKind.WEIGHTED_SUM:
        out = np.multiply(f1, w1, out=np.empty(shape), where=has1)
        term2 = np.multiply(f2, w2, out=np.empty(shape), where=has2)
        np.add(out, term2, out=out, where=has1 & has2)
    else:
        z1, z2 = utopian  # type: ignore[misc]
        out = np.multiply(np.abs(f1 - z1), w1, out=np.empty(shape), where=has1)
        term2 = np.multiply(np.abs(f2 - z2), w2, out=np.empty(shape), where=has2)
        np.maximum(out, term2, out=out, where=has1 & has2)
    np.copyto(out, term2, where=~has1)
    np.negative(out, out=out)
    return out


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
