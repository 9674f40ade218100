"""Bi-objective benchmark problems with box bounds and evaluation accounting.

Decision vectors are plain numpy arrays of shape (d,); batches are (n, d).
Each problem exposes its raw objective maps ``f1`` and ``f2`` (vectorized,
uncounted) plus counted ``evaluate*`` methods. Every call that goes through
``evaluate*`` adds one tally per single-objective evaluation to the problem's
:class:`EvalCounter`, so experiment budgets are measured, never estimated.
Out-of-bounds evaluation requests raise :class:`~pfops.errors.BoundsError`
instead of being clamped; silent clamping would corrupt the tally. An
objective that returns NaN raises :class:`~pfops.errors.InvalidInputError`,
since no dominance order or density holds for it; infinite values pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BoundsError, InvalidInputError, NotFoundError

# Vectorized objective: maps an (n, d) batch to an (n,) value array.
ObjectiveFn = Callable[[np.ndarray], np.ndarray]


class EvalCounter:
    """Tally of single-objective function evaluations; not thread-safe."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, n: int) -> None:
        self._count += int(n)

    def reset(self) -> None:
        self._count = 0

    @property
    def count(self) -> int:
        return self._count


@dataclass
class BiObjectiveProblem:
    """A box-constrained problem with two objectives to minimize.

    Attributes:
        name: registry identifier.
        dim: number of decision variables d.
        lower: (d,) inclusive lower bounds.
        upper: (d,) inclusive upper bounds.
        f1: vectorized first objective, (n, d) -> (n,). Uncounted raw map.
        f2: vectorized second objective, (n, d) -> (n,). Uncounted raw map.
        counter: evaluation tally fed by the ``evaluate*`` methods.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    f1: ObjectiveFn
    f2: ObjectiveFn
    counter: EvalCounter = field(default_factory=EvalCounter)

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ValueError(f"bounds must have shape ({self.dim},)")
        if not np.all(self.lower < self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    def contains(self, x: np.ndarray) -> bool:
        """True if ``x`` lies inside the (inclusive) box."""
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) & np.all(x <= self.upper))

    def _check_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise ValueError(
                f"expected decision vectors of dimension {self.dim}, got {points.shape[1]}"
            )
        inside = np.all(points >= self.lower, axis=1) & np.all(points <= self.upper, axis=1)
        if not inside.all():
            bad = int(np.flatnonzero(~inside)[0])
            raise BoundsError(
                f"point {points[bad].tolist()} is outside the box of problem "
                f"'{self.name}' (lower={self.lower.tolist()}, upper={self.upper.tolist()})"
            )
        return points

    def _counted(self, points: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Count 2 evaluations per row of ``values`` unless one is NaN."""
        if np.isnan(values).any():
            bad = int(np.flatnonzero(np.isnan(values).any(axis=1))[0])
            raise InvalidInputError(
                f"objectives of problem '{self.name}' are NaN at point "
                f"{points[bad].tolist()}: {values[bad].tolist()}"
            )
        self.counter.add(2 * len(values))
        return values

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate both objectives at one point, returning a (2,) array."""
        p = self._check_batch(x)
        return self._counted(p, np.array([[self.f1(p)[0], self.f2(p)[0]]]))[0]

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate both objectives at an (n, d) batch, returning (n, 2).

        Counts 2n evaluations. Raises BoundsError if any row is outside
        the box, and InvalidInputError if an objective is NaN at any row
        (nothing is counted in either case).
        """
        p = self._check_batch(points)
        return self._counted(p, np.stack([self.f1(p), self.f2(p)], axis=1))


def _convex_f1(x: np.ndarray) -> np.ndarray:
    return x[:, 0] ** 2 + x[:, 1] ** 2


def _convex_f2(x: np.ndarray) -> np.ndarray:
    return (x[:, 0] - 5.0) ** 2 + (x[:, 1] - 5.0) ** 2


def convex_problem() -> BiObjectiveProblem:
    """Two quadratic bowls on [-5, 10]^2 with a convex tradeoff curve.

    f1(x) = x1^2 + x2^2 is minimized at (0, 0); f2(x) = (x1-5)^2 + (x2-5)^2
    at (5, 5). The optimal tradeoffs lie on the segment between the two
    minima, giving the front (50 t^2, 50 (1-t)^2) for t in [0, 1].
    """
    return BiObjectiveProblem(
        name="convex",
        dim=2,
        lower=np.array([-5.0, -5.0]),
        upper=np.array([10.0, 10.0]),
        f1=_convex_f1,
        f2=_convex_f2,
    )


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _fonseca_f1(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.sum((x - _INV_SQRT2) ** 2, axis=1))


def _fonseca_f2(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.exp(-np.sum((x + _INV_SQRT2) ** 2, axis=1))


def fonseca_fleming_problem() -> BiObjectiveProblem:
    """Two-variable Fonseca-Fleming function on [-4, 4]^2.

    f_m(x) = 1 - exp(-sum_i (x_i -/+ 1/sqrt(2))^2), the standard
    squared-deviation form. The front is concave, traced by x1 = x2 = t
    for t in [-1/sqrt(2), 1/sqrt(2)], with both objectives spanning
    [0, 1 - exp(-4)].
    """
    return BiObjectiveProblem(
        name="fonseca",
        dim=2,
        lower=np.array([-4.0, -4.0]),
        upper=np.array([4.0, 4.0]),
        f1=_fonseca_f1,
        f2=_fonseca_f2,
    )


def _kursawe_f1(x: np.ndarray) -> np.ndarray:
    return np.sum(
        -10.0 * np.exp(-0.2 * np.sqrt(x[:, :-1] ** 2 + x[:, 1:] ** 2)), axis=1
    )


def _kursawe_f2(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(x) ** 0.8 + 5.0 * np.sin(x**3), axis=1)


def kursawe_problem() -> BiObjectiveProblem:
    """Three-variable Kursawe function on [-5, 5]^3; discontinuous front.

    f1(x) = sum_{i=1..2} -10 exp(-0.2 sqrt(x_i^2 + x_{i+1}^2)),
    f2(x) = sum_{i=1..3} |x_i|^0.8 + 5 sin(x_i^3).
    """
    return BiObjectiveProblem(
        name="kursawe",
        dim=3,
        lower=np.full(3, -5.0),
        upper=np.full(3, 5.0),
        f1=_kursawe_f1,
        f2=_kursawe_f2,
    )


PROBLEM_FACTORIES: dict[str, Callable[[], BiObjectiveProblem]] = {
    "convex": convex_problem,
    "fonseca": fonseca_fleming_problem,
    "kursawe": kursawe_problem,
}


def available_problems() -> tuple[str, ...]:
    return tuple(PROBLEM_FACTORIES)


def lookup_problem(name: str) -> BiObjectiveProblem:
    """Return a fresh instance (own counter) of a registered problem."""
    try:
        factory = PROBLEM_FACTORIES[name]
    except KeyError:
        raise NotFoundError(
            f"unknown problem '{name}'; available: {', '.join(PROBLEM_FACTORIES)}"
        ) from None
    return factory()
