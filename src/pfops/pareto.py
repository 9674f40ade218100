"""Pareto-dominance primitives, reference fronts, and quality metrics.

All fronts are (n, 2) float arrays of objective vectors under minimization;
:func:`as_front` is the one shape check. Ranking is one sort and one sweep
per front (:func:`peel_fronts`); the non-dominated filter is its first
front, and NSGA-II ranks with it too. Filtering retains duplicates
(identical vectors do not dominate each other) and preserves input order.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, NotFoundError
from .problems import fonseca_fleming_problem, kursawe_problem
from .scalarize import is_finite_pair

_DATA_DIR = Path(__file__).parent / "data"
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_REFERENCE_NAMES = ("convex", "fonseca", "kursawe")


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` is no worse than ``b`` everywhere and better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def as_front(points: np.ndarray) -> np.ndarray:
    """``points`` as a float (n, 2) array of objective vectors.

    An empty input gives shape (0, 2) and a single (2,) vector one row; any
    other shape raises InvalidInputError naming it.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 2 and points.shape[1] == 2:
        return points
    if points.size == 0 or points.shape == (2,):
        return points.reshape(-1, 2)
    raise InvalidInputError(f"expected an (n, 2) array, got shape {points.shape}")


def _first_front(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Mask of the non-dominated points of a non-empty set sorted by (f1, f2).

    Nothing after a point in that order dominates it, and an earlier point
    that is not its exact duplicate dominates it iff its f2 is <= the point's.
    So a point is non-dominated iff its f2 is below every earlier f2, and an
    exact duplicate of the point before it shares that point's verdict.
    """
    on_front = np.empty(len(f1), dtype=bool)
    on_front[0] = True
    np.less(f2[1:], np.minimum.accumulate(f2)[:-1], out=on_front[1:])
    duplicate = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    if duplicate.any():
        run_start = np.arange(len(f1))
        run_start[1:][duplicate] = 0
        on_front = on_front[np.maximum.accumulate(run_start)]
    return on_front


def peel_fronts(points: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the ranked fronts of an (n, 2) array, front 0 (the non-dominated
    rows) first, each as an ascending index array.

    The shape (as :func:`as_front` reads it) and NaN rows are checked once,
    and the points are sorted once by (f1, f2, index). Removing a front
    leaves the rest of that order sorted, so each later front is one sweep
    over what is left, with no re-sort: for two objectives one sort is
    enough (Jensen 2003, IEEE TEVC 7(5)). A pass always removes the first
    point left, which nothing dominates. Exact duplicates share a front.
    Infinite values are ordered like any other; a NaN row raises
    InvalidInputError, since no dominance order holds for it. The generator
    is lazy: a caller that stops early pays only for the fronts it took.
    """
    points = as_front(points)
    if np.isnan(points).any():
        i = int(np.flatnonzero(np.isnan(points).any(axis=1))[0])
        raise InvalidInputError(f"row {i} contains NaN: {points[i].tolist()}")
    left = np.lexsort((np.arange(len(points)), points[:, 1], points[:, 0]))
    f1 = points[left, 0]
    f2 = points[left, 1]
    while len(left):
        on_front = _first_front(f1, f2)
        yield np.sort(left[on_front])
        rest = ~on_front
        left, f1, f2 = left[rest], f1[rest], f2[rest]


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an (n, 2) array: the first
    front of :func:`peel_fronts`, O(n log n). Exact duplicates survive; a
    NaN row raises InvalidInputError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 and points.size:  # one mask entry per row of the input
        raise InvalidInputError(f"expected an (n, 2) array, got shape {points.shape}")
    mask = np.zeros(len(points), dtype=bool)
    mask[next(peel_fronts(points), [])] = True
    return mask


def nondominated_filter(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` not dominated by any other row, input order kept."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return points.reshape(0, 2)
    return points[nondominated_mask(points)]


def igd(estimate: np.ndarray, reference: np.ndarray) -> float:
    """Inverted generational distance: mean Euclidean distance from each
    reference point to its nearest estimate point. Lower is better, 0 is exact.

    Both fronts must be non-empty and have shape (n, 2) after
    ``np.atleast_2d``, so a single point may be given as a (2,) vector; a
    front of any other shape raises InvalidInputError naming both shapes.
    """
    estimate = np.atleast_2d(np.asarray(estimate, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if estimate.size == 0 or reference.size == 0:
        raise InvalidInputError("igd requires non-empty estimate and reference fronts")
    if not (estimate.ndim == reference.ndim == 2 and estimate.shape[1] == reference.shape[1] == 2):
        raise InvalidInputError(
            f"igd requires (n, 2) fronts, got estimate shape {estimate.shape} "
            f"and reference shape {reference.shape}"
        )
    d1 = reference[:, 0, None] - estimate[:, 0]
    d2 = reference[:, 1, None] - estimate[:, 1]
    d1 *= d1
    d2 *= d2
    d1 += d2
    # sqrt is correctly rounded and monotone, so taking it after the row
    # minimum gives the same bits as the minimum of the distances
    return float(np.sqrt(d1.min(axis=1)).mean())


def hypervolume_2d(front: np.ndarray, ref_point: np.ndarray) -> float:
    """Area dominated by ``front`` and bounded by ``ref_point``.

    Every front point must be strictly below the reference point in both
    objectives. Sorts on f1 and sums rectangular strips; dominated or
    duplicate members contribute nothing extra. The front is read by
    :func:`as_front`, which rejects a shape other than (n, 2); a
    ``ref_point`` that is not two finite numbers raises InvalidInputError.
    """
    if not is_finite_pair(ref_point):
        raise InvalidInputError(f"ref_point must be two finite numbers, got {ref_point!r}")
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


def _kursawe_grid_front(resolution: int) -> np.ndarray:
    """Non-dominated front of a resolution^3 grid over the Kursawe box.

    Each x1-slice is prefiltered before the global filter so that peak
    memory stays at one slice; a slice-dominated point can never be
    globally non-dominated.
    """
    problem = kursawe_problem()
    g = np.linspace(problem.lower[0], problem.upper[0], resolution)
    g2, g3 = np.meshgrid(g, g, indexing="ij")
    cols23 = np.stack([g2.ravel(), g3.ravel()], axis=1)
    survivors = []
    for x1 in g:
        chunk = np.column_stack([np.full(len(cols23), x1), cols23])
        values = np.stack([problem.f1(chunk), problem.f2(chunk)], axis=1)
        survivors.append(values[nondominated_mask(values)])
    candidates = np.concatenate(survivors)
    front = candidates[nondominated_mask(candidates)]
    return front[np.argsort(front[:, 0], kind="stable")]


def reference_front(name: str, resolution: int) -> np.ndarray:
    """Ground-truth front for a registered problem, sorted ascending by f1.

    convex: the parametric curve (50 t^2, 50 (1-t)^2), t equally spaced on
    [0, 1] (image of the minimizer family (5t, 5t)). fonseca: image of
    x1 = x2 = t for t equally spaced on [-1/sqrt(2), 1/sqrt(2)]. kursawe:
    non-dominated filter of a dense resolution^3 grid; the shipped CSV
    covers resolution 201, other resolutions are computed from the grid.

    Each (name, resolution) is built once per process and cached; every call
    returns that same read-only array, so copy it before changing it. A name
    other than these three raises NotFoundError, and a resolution that is not
    an integer >= 2 (numpy integers pass) raises InvalidInputError.
    """
    if not isinstance(name, str) or name not in _REFERENCE_NAMES:
        raise NotFoundError(
            f"no reference front for {name!r}; available: {', '.join(_REFERENCE_NAMES)}"
        )
    if (
        isinstance(resolution, bool)
        or not isinstance(resolution, numbers.Integral)
        or resolution < 2
    ):
        raise InvalidInputError(f"resolution must be an integer >= 2, got {resolution!r}")
    front = _build_reference_front(name, int(resolution))
    front.setflags(write=False)
    return front


@functools.lru_cache(maxsize=None)
def _build_reference_front(name: str, resolution: int) -> np.ndarray:
    if name == "convex":
        t = np.linspace(0.0, 1.0, resolution)
        return np.stack([50.0 * t**2, 50.0 * (1.0 - t) ** 2], axis=1)
    if name == "fonseca":
        t = np.linspace(-_INV_SQRT2, _INV_SQRT2, resolution)
        pts = np.stack([t, t], axis=1)
        problem = fonseca_fleming_problem()
        front = np.stack([problem.f1(pts), problem.f2(pts)], axis=1)
        return front[np.argsort(front[:, 0], kind="stable")]
    # kursawe, the one name left after reference_front's check
    cache = _DATA_DIR / f"kursawe_front_{resolution}.csv"
    if cache.is_file():
        return read_front_csv(cache)
    return _kursawe_grid_front(resolution)


def _format_value(x: float) -> str:
    # shortest decimal that round-trips exactly; integral values lose the dot
    return np.format_float_positional(x, unique=True, trim="-")


def write_front_csv(points: np.ndarray, path: str | Path) -> None:
    """Write a front as CSV: header ``f1,f2``, rows sorted ascending by f1,
    values in full round-trip precision."""
    points = as_front(points)
    if len(points) > 0:
        points = points[np.argsort(points[:, 0], kind="stable")]
    lines = ["f1,f2"]
    lines += [f"{_format_value(p[0])},{_format_value(p[1])}" for p in points]
    Path(path).write_text("\n".join(lines) + "\n")


def read_front_csv(path: str | Path) -> np.ndarray:
    """Read a front written by :func:`write_front_csv`."""
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != "f1,f2":
        raise InvalidInputError(f"{path}: expected header 'f1,f2'")
    rows = [tuple(float(v) for v in line.split(",")) for line in text[1:] if line.strip()]
    return np.array(rows, dtype=float).reshape(-1, 2)
