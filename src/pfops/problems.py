"""Bi-objective benchmark problems with box bounds and evaluation accounting.

Decision vectors are plain numpy arrays of shape (d,); batches are (n, d).
Each problem exposes its raw objective maps ``f1`` and ``f2`` (vectorized,
uncounted) plus the counted ``evaluate_batch``, which takes an (n, d) batch
or one (d,) point. Every call adds one tally per single-objective evaluation
to the problem's :class:`EvalCounter`, so experiment budgets are measured,
never estimated.

Every batch, of plain objectives or CoordinateSums, runs one body,
``_evaluate_terms``, which ``evaluate_batch`` wraps and ``core`` calls
directly. It makes every check of a call and counts only once they all pass:
- the batch, each objective's output and each CoordinateSum term's output
  are read by the array rule (README, "Array inputs"), and a batch that is
  not (n, d) raises :class:`~pfops.errors.InvalidInputError`;
- an out-of-bounds row raises :class:`~pfops.errors.BoundsError` instead of
  being clamped, since silent clamping would corrupt the tally;
- an objective that does not return one value per row raises InvalidInputError;
- so does a NaN objective value, since no dominance order or density holds
  for it; infinite values of either sign pass.

The built-in objectives meet ``core``'s row-function condition (see its
module docstring): elementwise operations on the whole batch, then their
per-coordinate terms added left to right, ``(t0 + t1) + t2``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BoundsError, InvalidInputError, as_real_array, check_key
from .errors import is_finite_pair, is_integer, shown

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
        ideal: (min f1, min f2) over the box, if known; a Tchebycheff run
            on the problem needs its Utopian point strictly below it.
        counter: evaluation tally fed by ``evaluate_batch``; not an argument.

    A dim that is not an integer >= 1, bounds that are not integers or
    floats, of another shape, not finite, not strictly ordered or with a
    span ``upper - lower`` that overflows, and an ideal that is not a tuple,
    list or (2,) array of two finite numbers (a bool is not one) raise
    InvalidInputError naming the field.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    f1: ObjectiveFn
    f2: ObjectiveFn
    ideal: tuple[float, float] | None = None
    counter: EvalCounter = field(default_factory=EvalCounter, init=False)

    def __post_init__(self) -> None:
        dim = self.dim
        if not is_integer(dim, 1):
            raise InvalidInputError(f"dim must be an integer >= 1, got {shown(dim)}")
        self.lower = _float_array("lower", self.lower)
        self.upper = _float_array("upper", self.upper)
        shapes = (self.lower.shape, self.upper.shape)
        if shapes != ((dim,), (dim,)):
            raise InvalidInputError(f"lower and upper must have shape ({dim},), got {shapes}")
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            if np.isinf(bound).any():  # no box to sample; NaN fails the order test
                raise InvalidInputError(f"{name} must be finite, got {bound.tolist()}")
        if not np.all(self.lower < self.upper):
            raise InvalidInputError("each lower bound must be strictly below its upper bound")
        with np.errstate(over="ignore"):
            span = self.upper - self.lower
        if not np.isfinite(span).all():  # e.g. [-1e308, 1e308]: no box to sample either
            raise InvalidInputError(
                f"upper - lower must be finite, got lower={self.lower.tolist()} "
                f"and upper={self.upper.tolist()}"
            )
        if self.ideal is not None:
            if not is_finite_pair(self.ideal):
                raise InvalidInputError(
                    f"ideal must be two finite numbers, got {shown(self.ideal)}"
                )
            self.ideal = (float(self.ideal[0]), float(self.ideal[1]))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate both objectives at an (n, d) batch through
        ``_evaluate_terms``, returning (n, 2); one (d,) point is a one-row batch.

        Counts 2n evaluations. The batch, each objective's output and each
        CoordinateSum term's output are read by the array rule (README,
        "Array inputs"). Raises InvalidInputError if the batch is not
        (n, d), BoundsError if any row is outside the box, and
        InvalidInputError if an objective does not return one value per row
        or is NaN at any row, or if a CoordinateSum's term does not return
        one value per coordinate (nothing is counted in any case).
        """
        return self._evaluate_terms(points)[0]

    def _evaluate_terms(
        self, points: np.ndarray, dim: int | None = None, terms: Sequence[np.ndarray] = ()
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``evaluate_batch(points)``, and one array per :class:`CoordinateSum`
        objective: its (n, d) term matrix or, with ``dim``, that column's (n,)
        new terms.

        With no ``terms``, each CoordinateSum computes its full term matrix.
        Given ``terms`` (one (n, d) matrix per CoordinateSum objective), each
        row of ``points`` is the row at which they were computed, except in
        column ``dim``: each CoordinateSum computes that column alone (with
        ``dim=None``, nothing) and adds it to the other columns in the same
        order, which gives the bits of a full evaluation for an elementwise
        term. So a term is computed once per coordinate value a particle
        takes, and every call counts 2 per row. Nothing given is written;
        with ``dim=None`` the given matrices are returned. This is the one
        body that evaluates every batch: a plain objective is called on it and
        adds no array. The checks are ``evaluate_batch``'s, plus the shape
        check of each computed term (:func:`_term_values`), all before
        anything is counted.
        """
        p = self._batch(points)
        carried = iter(terms)
        outputs, computed = [], []
        # each objective's path is picked at each call: f1 and f2 are public, mutable fields
        for which, f in (("f1", self.f1), ("f2", self.f2)):
            if not isinstance(f, CoordinateSum):
                outputs.append(f(p))
                continue
            owner = f"objective {which} of problem '{self.name}'"
            if not terms:
                t = _term_values(f.term, p, owner)
                columns = t.T
            elif dim is None:
                t = next(carried)
                columns = t.T
            else:
                # a contiguous column, as a full evaluation's term sees its values
                t = _term_values(f.term, np.ascontiguousarray(p[:, dim]), owner)
                columns = list(next(carried).T)
                columns[dim] = t
            outputs.append(_add_columns(columns))
            computed.append(t)
        return self._values(p, *outputs), computed

    def _batch(self, points: np.ndarray) -> np.ndarray:
        """``points`` as a float (n, d) batch inside the box, or the error
        ``evaluate_batch`` documents."""
        p = as_real_array(f"points for problem '{self.name}'", points)
        if p.ndim != 2:
            p = np.atleast_2d(p)
        n = len(p)
        if p.shape[1:] != (self.dim,):  # a wrong width, or more than two axes
            raise InvalidInputError(
                f"expected an (n, {self.dim}) batch of decision vectors for problem "
                f"'{self.name}', got shape {p.shape}"
            )
        # a batch inside the cube that every coordinate's bounds admit is in
        # the box: two flat reductions, where comparing with the (d,) bounds
        # broadcasts over rows of only d values. Otherwise (also on a NaN,
        # which fails every comparison) the per-coordinate test decides, and
        # its per-row mask names the first bad row.
        if n and not (
            p.min() >= max(self.lower.tolist()) and p.max() <= min(self.upper.tolist())
        ):
            inside = (p >= self.lower) & (p <= self.upper)
            if not inside.all():
                bad = int(np.flatnonzero(~inside.all(axis=1))[0])
                raise BoundsError(
                    f"point {p[bad].tolist()} is outside the box of problem "
                    f"'{self.name}' (lower={self.lower.tolist()}, upper={self.upper.tolist()})"
                )
        return p

    def _values(self, p: np.ndarray, f1: object, f2: object) -> np.ndarray:
        """The (n, 2) values of the objectives' outputs ``f1`` and ``f2`` at
        the checked batch ``p``, counted as 2n evaluations, or the error
        ``evaluate_batch`` documents, with nothing counted."""
        n = len(p)
        f1 = as_real_array(f"the output of objective f1 of problem '{self.name}'", f1)
        f2 = as_real_array(f"the output of objective f2 of problem '{self.name}'", f2)
        if f1.shape != (n,) or f2.shape != (n,):
            raise InvalidInputError(
                f"objectives of problem '{self.name}' must return shape ({n},) "
                f"for {n} points, got {f1.shape} and {f2.shape}"
            )
        values = np.empty((n, 2))
        values[:, 0] = f1
        values[:, 1] = f2
        # the minimum is NaN iff some value is (+-inf pass)
        if n and math.isnan(values.min()):
            bad = int(np.flatnonzero(np.isnan(values).any(axis=1))[0])
            raise InvalidInputError(
                f"objectives of problem '{self.name}' are NaN at point "
                f"{p[bad].tolist()}: {values[bad].tolist()}"
            )
        self.counter.add(2 * n)
        return values


class CoordinateSum:
    """A coordinate-additive objective, f(x) = sum_i term(x_i).

    Called on an (n, d) batch, it computes ``t = term(x)`` and returns
    ``t[:, 0] + t[:, 1] + ... + t[:, d-1]``, added left to right. ``term``
    must be elementwise: each output value depends on its own input value
    alone, whatever the array's shape, and the output has the input's
    shape. Then a row whose coordinate i alone changed needs only that
    coordinate's new term, added to the row's other terms in the same order,
    for the bits of a full evaluation, and a row whose terms are held needs
    none; ``core.run`` relies on this (see its module docstring) to compute
    the term once per coordinate value a particle takes. Each row still
    counts as one evaluation of the objective.
    The term's output is read by the array rule (README, "Array inputs"), so
    a float32 or integer term is summed in float64.
    """

    def __init__(self, term: Callable[[np.ndarray], np.ndarray]) -> None:
        self.term = term

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _add_columns(_term_values(self.term, x, "a CoordinateSum").T)


def _term_values(term: Callable[[np.ndarray], np.ndarray], x: np.ndarray, owner: str) -> np.ndarray:
    """``term(x)`` read by the array rule (README, "Array inputs"), so as
    float64; InvalidInputError naming ``owner`` unless it has x's shape."""
    t = as_real_array(f"the term of {owner}", term(x))
    if t.shape != x.shape:
        raise InvalidInputError(
            f"the term of {owner} must return one value per coordinate, shape "
            f"{x.shape}, got {t.shape}"
        )
    return t


def _add_columns(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The columns' sum, added left to right (a (d, n) array is d columns)."""
    total = columns[0]
    for col in columns[1:]:
        total = total + col
    return total


def _float_array(name: str, value: object) -> np.ndarray:
    """``value`` as a float array. Each item must be an integer or a float
    (numpy's included): a cast would read "-5" as -5.0 and True as 1.0."""
    try:
        items = np.asarray(value, dtype=object).flat
    except ValueError:  # a nesting that numpy cannot stack
        items = [None]
    if not all(
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)) for v in items
    ):
        raise InvalidInputError(f"{name} must be integers or floats, got {shown(value)}")
    return np.asarray(value, dtype=float)


def _convex_f1(x: np.ndarray) -> np.ndarray:
    sq = x * x
    return sq[:, 0] + sq[:, 1]


def _convex_f2(x: np.ndarray) -> np.ndarray:
    dev = x - 5.0
    sq = dev * dev
    return sq[:, 0] + sq[:, 1]


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
    dev = x - _INV_SQRT2
    sq = dev * dev
    return 1.0 - np.exp(-(sq[:, 0] + sq[:, 1]))


def _fonseca_f2(x: np.ndarray) -> np.ndarray:
    dev = x + _INV_SQRT2
    sq = dev * dev
    return 1.0 - np.exp(-(sq[:, 0] + sq[:, 1]))


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
    # on (3, n) coordinate rows each operation is one contiguous loop; the
    # operations and their order are the (n, 3) batch's, so are the bits
    xt = x.T.copy()
    sq = xt * xt
    t = -10.0 * np.exp(-0.2 * np.sqrt(sq[:-1] + sq[1:]))
    return t[0] + t[1]


def _kursawe_f2_term(x: np.ndarray) -> np.ndarray:
    # x**3 stays: no faster cube gives its bits, so any other would move every
    # seeded Kursawe result (CHANGES.md, the FOUND line on a faster cube)
    return np.abs(x) ** 0.8 + 5.0 * np.sin(x**3)


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
        f2=CoordinateSum(_kursawe_f2_term),
        ideal=(-20.0, -11.627287),
    )


PROBLEM_FACTORIES: dict[str, Callable[[], BiObjectiveProblem]] = {
    "convex": convex_problem,
    "fonseca": fonseca_fleming_problem,
    "kursawe": kursawe_problem,
}


def lookup_problem(name: str) -> BiObjectiveProblem:
    """Return a fresh instance (own counter) of a registered problem."""
    return check_key(PROBLEM_FACTORIES, name, "problem")()
