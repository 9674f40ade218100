"""Bi-objective benchmark problems with box bounds and evaluation accounting.

Decision vectors are plain numpy arrays of shape (d,); batches are (n, d).
Each problem exposes its raw objective maps ``f1`` and ``f2`` (vectorized,
uncounted) plus counted ``evaluate*`` methods. Every call that goes through
``evaluate*`` adds one tally per single-objective evaluation to the problem's
:class:`EvalCounter`, so experiment budgets are measured, never estimated.
Out-of-bounds evaluation requests raise :class:`~pfops.errors.BoundsError`
instead of being clamped; silent clamping would corrupt the tally. An
objective that returns NaN raises :class:`~pfops.errors.InvalidInputError`,
since no dominance order or density holds for it; infinite values pass. A
batch objective that does not return one value per row raises it too.
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
        ideal: (min f1, min f2) over the box, if known; a Tchebycheff run
            on the problem needs its Utopian point strictly below it.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    f1: ObjectiveFn
    f2: ObjectiveFn
    counter: EvalCounter = field(default_factory=EvalCounter)
    ideal: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != (self.dim,) or self.upper.shape != (self.dim,):
            raise ValueError(f"bounds must have shape ({self.dim},)")
        if not np.all(self.lower < self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        if self.ideal is not None:
            ideal = np.asarray(self.ideal, dtype=float)
            if ideal.shape != (2,) or not np.isfinite(ideal).all():
                raise ValueError(f"ideal must be two finite numbers, got {self.ideal!r}")
            self.ideal = (float(ideal[0]), float(ideal[1]))

    def _check_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            points = np.atleast_2d(points)
        if points.shape[1] != self.dim:
            raise ValueError(
                f"expected decision vectors of dimension {self.dim}, got {points.shape[1]}"
            )
        # one reduction over the whole batch; the per-row mask is built only
        # to name the first bad row (a NaN coordinate fails both comparisons)
        inside = (points >= self.lower) & (points <= self.upper)
        if not inside.all():
            bad = int(np.flatnonzero(~inside.all(axis=1))[0])
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
        """Evaluate both objectives at one point of shape (d,), returning (2,).

        Counts 2 evaluations and raises as :meth:`evaluate_batch` does; any
        other shape raises InvalidInputError and counts nothing.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise InvalidInputError(
                f"evaluate takes one decision vector of dimension {self.dim}, shape "
                f"({self.dim},), for problem '{self.name}', got shape {x.shape}; "
                "use evaluate_batch for a batch"
            )
        return self.evaluate_batch(x[None])[0]

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate both objectives at an (n, d) batch, returning (n, 2).

        Counts 2n evaluations. Raises BoundsError if any row is outside
        the box, and InvalidInputError if an objective does not return one
        value per row or is NaN at any row (nothing is counted in any case).
        """
        p = self._check_batch(points)
        f1, f2 = self.f1(p), self.f2(p)
        if np.shape(f1) != (len(p),) or np.shape(f2) != (len(p),):
            raise InvalidInputError(
                f"objectives of problem '{self.name}' must return shape ({len(p)},) "
                f"for {len(p)} points, got {np.shape(f1)} and {np.shape(f2)}"
            )
        values = np.empty((len(p), 2))
        values[:, 0] = f1
        values[:, 1] = f2
        return self._counted(p, values)


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
        ideal=(0.0, 0.0),
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
        ideal=(0.0, 0.0),
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

    f1 is minimized at x = 0 (-20). f2 is a sum of one term per coordinate,
    each smallest near x_i = -1.152741, so its minimum is about -11.6272868;
    the ideal point rounds it down to -11.627287.
    """
    return BiObjectiveProblem(
        name="kursawe",
        dim=3,
        lower=np.full(3, -5.0),
        upper=np.full(3, 5.0),
        f1=_kursawe_f1,
        f2=_kursawe_f2,
        ideal=(-20.0, -11.627287),
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
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise NotFoundError(
            f"unknown problem '{name}'; available: {', '.join(PROBLEM_FACTORIES)}"
        ) from None
    return factory()
