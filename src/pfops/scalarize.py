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
at the far corner of its box). One kernel, ``log_density``, computes log pi
for ``Scalarization.log_density_values`` (one target, checked),
``log_density_table`` (many) and ``core._score`` (one target, on the
values an evaluation has just checked), and its docstring states the float
operations and their order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, as_real_array
from .errors import is_finite_number, is_finite_pair, is_integer, shown


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
                f"scalarization_kind must be a ScalarizationKind, got {shown(self.kind)}"
            )
        if not (is_finite_number(self.lam) and 0.0 <= self.lam <= 1.0):
            raise InvalidConfigError(f"lambda must be a number in [0, 1], got {shown(self.lam)}")
        z = self.utopian
        if self.kind is ScalarizationKind.TCHEBYCHEFF:
            if z is None:
                raise InvalidConfigError("utopian is required by the Tchebycheff scalarization")
            if not is_finite_pair(z):
                raise InvalidConfigError(f"utopian must be two finite numbers, got {shown(z)}")
            object.__setattr__(self, "utopian", (float(z[0]), float(z[1])))
        elif z is not None:
            raise InvalidConfigError(
                f"the weighted-sum scalarization takes no utopian, got {shown(z)}"
            )

    def log_density_values(self, objectives: np.ndarray) -> np.ndarray:
        """log pi, shape (n,), at the (n, 2) objective values of a batch, as
        an evaluation returns them; at lambda = 0 or 1 the zero-weighted
        objective is ignored, even where infinite or NaN (``log_density``
        gives the float operations). The values are read by the array rule
        (README, "Array inputs"); any shape other than (n, 2), a single (2,)
        point included, raises InvalidInputError naming it.
        """
        obj = as_real_array("objective values", objectives)
        if obj.ndim != 2 or obj.shape[1] != 2:
            raise InvalidInputError(f"objective values must have shape (n, 2), got {obj.shape}")
        return log_density(obj, self.lam, self.kind, self.utopian)


def log_density(
    objectives: np.ndarray, lam: float | np.ndarray, kind: ScalarizationKind,
    utopian: tuple[float, float] | None,
) -> np.ndarray:
    """log pi at the (n, 2) float objective values of a batch, under one
    lambda (a float: shape (n,)) or under each lambda of an (r, 1) column
    (shape (r, n), a row per lambda).

    With w1 = 1 - lambda and w2 = lambda, the float operations and their
    order are those of -(w1 f1 + w2 f2) and -max{w1 |f1 - z1|, w2 |f2 - z2|}
    (a product's operands commute exactly); each runs on a fresh temporary,
    never on ``objectives``. One rule holds for a float and for every row of
    a column: a term whose weight is exactly 0 is an exact +0, not a
    product, so at lambda = 0 the value ignores f2 and at lambda = 1 it
    ignores f1, even where that objective is infinite or NaN (``0 * inf``
    would be NaN). For finite objectives the value is the formula's but for
    the sign of a zero: under the weighted sum at lambda = 1, f2 = -0.0
    gives -0.0 (+0 + -0.0 is +0), and likewise f1 = -0.0 at lambda = 0.
    The caller gives valid arguments: float objective values of that shape,
    lambdas in [0, 1] and the kind's Utopian point; nothing is checked here.
    """
    shape = np.broadcast(objectives[:, 0], lam).shape
    terms = []
    for i, w in enumerate((1.0 - lam, lam)):
        f = objectives[:, i]
        if kind is ScalarizationKind.TCHEBYCHEFF:
            f = f - utopian[i]  # type: ignore[index]
            np.abs(f, out=f)
        terms.append(np.multiply(f, w, out=np.zeros(shape), where=w != 0))
    combine = np.add if kind is ScalarizationKind.WEIGHTED_SUM else np.maximum
    out = combine(terms[0], terms[1], out=terms[0])
    return np.negative(out, out=out)


def log_density_table(
    objectives: np.ndarray, lams: np.ndarray, kind: ScalarizationKind,
    utopian: tuple[float, float] | None = None,
) -> np.ndarray:
    """log pi, shape (len(lams), n), of the (n, 2) float objective values of
    a batch under each balance parameter in ``lams``, in one column call of
    ``log_density``: by its one zero-weight rule, row r has the bits of
    ``Scalarization(kind, lams[r], utopian).log_density_values(objectives)``
    wherever a lambda of exactly 0 or 1 sits. The caller gives valid
    arguments: lambdas in [0, 1] and the kind's Utopian point; nothing is
    checked here.
    """
    return log_density(objectives, np.asarray(lams, dtype=float)[:, None], kind, utopian)


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
            f"got {shown(k_targets)}"
        )
    return np.linspace(0.0, 1.0, int(k_targets))
