"""Pareto-dominance primitives, reference fronts, and quality metrics.

All fronts are (n, 2) float arrays of objective vectors under minimization;
:func:`as_front` is the one front rule, refusing another shape or a NaN
row, and every function that takes a front goes through it.
:func:`peel_fronts` ranks fronts for NSGA-II, and :func:`nondominated_mask`,
its first front, filters PFOPS archives. :class:`ParetoArchive`, the
decisions and front that both optimizers return, lives here too.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, as_real_array, check_key, check_sizable, is_finite_pair
from .errors import is_integer, shown
from .problems import _INV_SQRT2, fonseca_fleming_problem, kursawe_problem

_DATA_DIR = Path(__file__).parent / "data"


@dataclass(frozen=True)
class ParetoArchive:
    """Index-aligned estimated Pareto set and front: front[i] = F(decisions[i])."""

    decisions: np.ndarray
    front: np.ndarray

    def __len__(self) -> int:
        return len(self.decisions)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere and better somewhere;
    ``a`` and ``b`` must have one shape (a broadcast compares one with many)."""
    a = as_real_array("a", a)
    b = as_real_array("b", b)
    if a.shape != b.shape:
        raise InvalidInputError(f"a and b must have the same shape, got {a.shape} and {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def as_front(points: np.ndarray) -> np.ndarray:
    """``points`` as a float (n, 2) array of objective vectors, read by
    :func:`~pfops.errors.as_real_array` as ``front``: the one front rule.

    An empty input gives shape (0, 2) and a single (2,) vector one row; any
    other shape raises InvalidInputError naming it. So does a row holding a
    NaN, which no dominance order holds for, named by its index. Infinite
    values pass.
    """
    points = as_real_array("front", points)
    if points.ndim != 2 or points.shape[1] != 2:
        if points.size and points.shape != (2,):
            raise InvalidInputError(f"expected an (n, 2) array, got shape {points.shape}")
        points = points.reshape(-1, 2)
    # NaN is the one value unequal to itself; counting those is cheaper than
    # a min or np.isnan(...).any() on the many small fronts NSGA-II crowds
    if np.count_nonzero(points != points):
        i = int(np.flatnonzero(np.isnan(points).any(axis=1))[0])
        raise InvalidInputError(f"row {i} contains NaN: {points[i].tolist()}")
    return points


def _first_front(f2: np.ndarray, duplicate: np.ndarray) -> np.ndarray:
    """Mask of the non-dominated points of a non-empty set sorted by (f1, f2),
    given its f2 and the mask of points that exactly duplicate the point
    before them (``duplicate[0]`` is False).

    Nothing after a point in that order dominates it, and an earlier point
    that is not its exact duplicate dominates it iff its f2 is <= the point's.
    So a point is non-dominated iff its f2 is below every earlier f2, and an
    exact duplicate of the point before it shares that point's verdict.
    """
    on_front = np.empty(len(f2), dtype=bool)
    on_front[0] = True
    np.less(f2[1:], np.minimum.accumulate(f2)[:-1], out=on_front[1:])
    if duplicate.any():
        run_start = np.arange(len(f2))
        run_start[duplicate] = 0
        on_front = on_front[np.maximum.accumulate(run_start)]
    return on_front


def peel_fronts(points: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the ranked fronts of an (n, 2) array, front 0 (the non-dominated
    rows) first, each as an ascending index array.

    The points are read once by :func:`as_front`, which refuses a bad shape
    or a NaN row, and sorted once by (f1, f2, index). Removing a front
    leaves the rest of that order sorted, so each later front is one sweep
    over what is left, with no re-sort: for two objectives one sort is
    enough (Jensen 2003, IEEE TEVC 7(5)). A pass always removes the first
    point left, which nothing dominates. Exact duplicates share a front, so
    they stay adjacent in what is left: the mask of rows that duplicate the
    row before them is taken once, after the sort, and kept with the rows
    left, so each front sweeps f2 alone (:func:`_first_front`). Infinite
    values are ordered like any other. The generator is lazy: a caller that
    stops early pays only for the fronts it took.
    """
    points = as_front(points)
    left = np.lexsort((np.arange(len(points)), points[:, 1], points[:, 0]))
    f1 = points[left, 0]
    f2 = points[left, 1]
    duplicate = np.zeros(len(left), dtype=bool)
    np.logical_and(f1[1:] == f1[:-1], f2[1:] == f2[:-1], out=duplicate[1:])
    while len(left):
        on_front = _first_front(f2, duplicate)
        yield np.sort(left[on_front])
        rest = ~on_front
        left, f2, duplicate = left[rest], f2[rest], duplicate[rest]


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an (n, 2) array: the first
    front of :func:`peel_fronts`, O(n log n). Exact duplicates survive; a
    NaN row raises InvalidInputError, as :func:`as_front` says.
    """
    points = as_real_array("points", points)
    if points.ndim != 2 and points.size:  # one mask entry per row of the input
        raise InvalidInputError(f"expected an (n, 2) array, got shape {points.shape}")
    mask = np.zeros(len(points), dtype=bool)
    mask[next(peel_fronts(points), [])] = True
    return mask


# entries of each of igd's two temporaries, a block of reference rows long
_IGD_BLOCK_ENTRIES = 1 << 13


def igd(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Inverted generational distance: mean Euclidean distance from each
    reference point to its nearest estimate point. Lower is better, 0 is exact.

    Both fronts are read by :func:`as_front`, so a single point may be given
    as a (2,) vector, and a shape other than (n, 2) or a NaN row in either
    raises InvalidInputError; an empty front raises it too. So does an
    infinity of one sign in the same column of both fronts, whose distance
    ``inf - inf`` is undefined; the error names the column and a row of each.
    Finite fronts far apart or close together give their finite distance,
    without a warning: a reference row whose nearest squared distance
    overflows, or falls below the smallest normal float (0 included), is
    measured again by ``np.hypot``, and every other row keeps the bits of
    the square root of its squared distance. The mean is the plain one
    unless that overflows with every distance finite; then it is the sum of
    the distances each divided by their count.
    """
    estimate = as_front(estimate)
    reference = as_front(reference)
    if len(estimate) == 0 or len(reference) == 0:
        raise InvalidInputError("igd requires non-empty estimate and reference fronts")
    # each block of reference rows against every estimate point, in two
    # temporaries of about _IGD_BLOCK_ENTRIES entries that stay in cache.
    # Each entry takes the same float operations, so the distances' bits do
    # not depend on the block size
    e1, e2 = estimate[:, 0], estimate[:, 1]
    nearest = np.empty(len(reference))  # squared distance to the nearest estimate
    rows = max(1, _IGD_BLOCK_ENTRIES // len(estimate))
    # with no NaN row, inf - inf is the one NaN a distance can hold, and the
    # row minimum and the mean carry it to the result, checked below
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(reference), rows):
            block = reference[start:start + rows]
            d1 = block[:, 0, None] - e1
            d2 = block[:, 1, None] - e2
            d1 *= d1
            d2 *= d2
            d1 += d2
            d1.min(axis=1, out=nearest[start:start + rows])
        # sqrt is correctly rounded and monotone, so taking it after the row
        # minimum gives the same bits as the minimum of the distances
        distance = np.sqrt(nearest)
        # an infinite row minimum may be a finite distance whose square
        # overflowed, and a minimum below the smallest normal float a distance
        # whose square underflowed; hypot does not square, and where a
        # coordinate is infinite it gives inf again
        again = np.flatnonzero(np.isinf(nearest) | (nearest < np.finfo(float).tiny))
        for start in range(0, len(again), rows):
            at = again[start:start + rows]
            block = reference[at]
            distance[at] = np.hypot(block[:, 0, None] - e1, block[:, 1, None] - e2).min(axis=1)
        result = float(distance.mean())
        if math.isinf(result) and np.isfinite(distance).all():  # the sum overflowed
            result = float((distance / len(distance)).sum())
    if math.isnan(result):  # name the first column both fronts hold one infinity in
        for col in range(2):
            for inf in (np.inf, -np.inf):
                in_estimate = np.flatnonzero(estimate[:, col] == inf)
                in_reference = np.flatnonzero(reference[:, col] == inf)
                if len(in_estimate) and len(in_reference):
                    raise InvalidInputError(
                        f"igd cannot measure a distance in column {col}: estimate row "
                        f"{in_estimate[0]} and reference row {in_reference[0]} both hold "
                        f"{inf} there"
                    )
    return result


def hypervolume_2d(front: np.ndarray, ref_point: np.ndarray) -> float:
    """Area dominated by ``front`` and bounded by ``ref_point``.

    Every front point must be strictly below the reference point in both
    objectives. Sorts on f1 and sums rectangular strips; dominated or
    duplicate members contribute nothing extra. The front is read by
    :func:`as_front`, which rejects a shape other than (n, 2) or a NaN row;
    a ``ref_point`` that is not two finite numbers raises InvalidInputError.
    """
    if not is_finite_pair(ref_point):
        raise InvalidInputError(f"ref_point must be two finite numbers, got {shown(ref_point)}")
    front = as_front(front)
    r1, r2 = float(ref_point[0]), float(ref_point[1])
    if len(front) == 0:
        return 0.0
    offenders = np.flatnonzero(~((front[:, 0] < r1) & (front[:, 1] < r2)))
    if len(offenders) > 0:
        i = int(offenders[0])
        raise InvalidInputError(
            f"front point {front[i].tolist()} does not strictly dominate "
            f"the reference point ({r1}, {r2})"
        )
    order = np.argsort(front[:, 0], kind="stable")
    f1 = front[order, 0]
    f2 = front[order, 1]
    best_f2 = np.minimum.accumulate(f2)
    right_edges = np.append(f1[1:], r1)
    return float(np.sum((right_edges - f1) * (r2 - best_f2)))


def _convex_front(resolution: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, resolution)
    return np.stack([50.0 * t**2, 50.0 * (1.0 - t) ** 2], axis=1)


def _fonseca_front(resolution: int) -> np.ndarray:
    t = np.linspace(-_INV_SQRT2, _INV_SQRT2, resolution)
    pts = np.stack([t, t], axis=1)
    problem = fonseca_fleming_problem()
    front = np.stack([problem.f1(pts), problem.f2(pts)], axis=1)
    return front[np.argsort(front[:, 0], kind="stable")]


def _kursawe_grid_front(resolution: int) -> np.ndarray:
    """Non-dominated front of a resolution^3 grid over the Kursawe box.

    Each x1-slice is prefiltered before the global filter so that peak
    memory stays at one slice; a slice-dominated point can never be
    globally non-dominated.

    f2 is a :class:`~pfops.problems.CoordinateSum`, so its term is computed
    once, on the grid's axis values, and each point's f2 is the sum of its
    coordinates' terms, ``(t[i] + t[j]) + t[k]``. These are the bits of
    ``problem.f2`` on the slice: the term is elementwise, so a value's term
    does not depend on the array it sits in, and the additions run in the
    same order, left to right.
    """
    problem = kursawe_problem()
    g = np.linspace(problem.lower[0], problem.upper[0], resolution)
    g2, g3 = np.meshgrid(g, g, indexing="ij")
    cols23 = np.stack([g2.ravel(), g3.ravel()], axis=1)
    t = problem.f2.term(g)
    t2, t3 = np.repeat(t, resolution), np.tile(t, resolution)  # the terms of cols23
    survivors = []
    for x1, t1 in zip(g, t):
        chunk = np.column_stack([np.full(len(cols23), x1), cols23])
        values = np.stack([problem.f1(chunk), (t1 + t2) + t3], axis=1)
        survivors.append(values[nondominated_mask(values)])
    candidates = np.concatenate(survivors)
    front = candidates[nondominated_mask(candidates)]
    return front[np.argsort(front[:, 0], kind="stable")]


@dataclass(frozen=True)
class Benchmark:
    """How a built-in benchmark's runs are scored: IGD against ``front(resolution)``,
    its reference front sorted by f1, and the hypervolume bounded by ``hv_ref``
    (archive members not strictly below it bound no area and are left out)."""

    front: Callable[[int], np.ndarray]
    resolution: int
    hv_ref: tuple[float, float]
    # front(r)'s largest array: r ** grid_axes rows of row_items float64 values
    grid_axes: int = 1
    row_items: int = 2


# the scoring record of each problem in problems.PROBLEM_FACTORIES
BENCHMARKS = {
    "convex": Benchmark(_convex_front, 100, (60.0, 60.0)),
    "fonseca": Benchmark(_fonseca_front, 200, (1.1, 1.1)),
    "kursawe": Benchmark(_kursawe_grid_front, 201, (-14.0, 1.0), grid_axes=2, row_items=3),
}


def reference_front(name: str, resolution: int, *, rebuild: bool = False) -> np.ndarray:
    """Ground-truth front of a built-in benchmark, sorted ascending by f1.

    convex: the parametric curve (50 t^2, 50 (1-t)^2), t equally spaced on
    [0, 1] (image of the minimizer family (5t, 5t)). fonseca: image of
    x1 = x2 = t for t equally spaced on [-1/sqrt(2), 1/sqrt(2)]. kursawe:
    non-dominated filter of a dense resolution^3 grid. A front shipped as
    ``data/<name>_front_<resolution>.csv`` (kursawe at 201) is read from it.

    Each (name, resolution) is built once per process and cached; every call
    returns that same read-only array, so copy it before changing it.
    ``rebuild=True`` builds a new, writable array from the benchmark's
    :class:`Benchmark` record, reading neither a shipped CSV nor the cache.
    A name not in :data:`BENCHMARKS`, an unhashable one included, raises
    NotFoundError. A resolution that is not an integer >= 2 (numpy integers
    pass), or one so large that numpy cannot size the build's largest array,
    raises InvalidInputError before anything is allocated.
    """
    benchmark = check_key(BENCHMARKS, name, "benchmark")
    if not is_integer(resolution, 2):
        raise InvalidInputError(f"resolution must be an integer >= 2, got {shown(resolution)}")
    rows = int(resolution) ** benchmark.grid_axes  # a plain int cannot overflow
    check_sizable("resolution", rows, benchmark.row_items, InvalidInputError)
    if rebuild:
        return benchmark.front(int(resolution))
    return _cached_front(name, int(resolution))


@functools.lru_cache(maxsize=None)
def _cached_front(name: str, resolution: int) -> np.ndarray:
    shipped = _DATA_DIR / f"{name}_front_{resolution}.csv"
    if shipped.is_file():  # written by write_front_csv, read to the same float bits
        front = np.loadtxt(shipped, delimiter=",", skiprows=1, ndmin=2)
    else:
        front = BENCHMARKS[name].front(resolution)
    front.setflags(write=False)
    return front


def _format_value(x: float) -> str:
    # shortest decimal that round-trips exactly; integral values lose the dot
    return np.format_float_positional(x, unique=True, trim="-")


def write_front_csv(points: np.ndarray, path: str | Path) -> None:
    """Write a front as CSV: header ``f1,f2``, rows sorted ascending by f1,
    values in full round-trip precision. The front is read by
    :func:`as_front`, so a bad shape or a NaN row raises InvalidInputError
    and writes no file."""
    points = as_front(points)
    if len(points) > 0:
        points = points[np.argsort(points[:, 0], kind="stable")]
    lines = ["f1,f2"]
    lines += [f"{_format_value(p[0])},{_format_value(p[1])}" for p in points]
    Path(path).write_text("\n".join(lines) + "\n")
