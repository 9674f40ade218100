"""The machine's speed, measured by a fixed reference kernel.

On a shared host the speed of a core drifts by a fifth or more over minutes,
so raw job times from two runs of the same code differ by more than any
useful bound. The benchmark therefore times this kernel, which does not use
pfops, next to the work it measures, and reports each time scaled to the
speed at which the kernel takes :data:`REFERENCE_S`:

    normalised time = measured time * REFERENCE_S / kernel time next to it

A change to pfops does not change the kernel's time, so a program that is
slower or faster by some share reads slower or faster by that share. Only
the machine's speed cancels out. The kernel mixes the kinds of work pfops
does: numpy maths on 500-row arrays, many numpy calls on tiny arrays, and
plain Python loops.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the kernel's median time on the machine the benchmark's bounds were set on
# (a shared 2-core virtual machine, Python 3.11, numpy 2.4.6)
REFERENCE_S = 0.06

_RNG = np.random.default_rng(20181224)
_BIG = _RNG.uniform(-5.0, 5.0, size=(500, 3))
_SMALL = _RNG.uniform(size=(40, 2))
_ITEMS = [(float(x), i) for i, x in enumerate(_RNG.uniform(size=400))]


def kernel() -> float:
    """One pass of fixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for i in range(100):
        x = _BIG
        f1 = np.sum(-10.0 * np.exp(-0.2 * np.sqrt(x[:, :-1] ** 2 + x[:, 1:] ** 2)), axis=1)
        f2 = np.sum(np.abs(x) ** 0.8 + 5.0 * np.sin(x**3), axis=1)
        acc += float(f1[i]) + float(f2[i])
    for i in range(1200):
        s = _SMALL[i % 8 : i % 8 + 5]
        le = np.all(s[:, None, :] <= s[None, :, :], axis=2)
        acc += int(le.sum()) + float(np.max(s)) + int(np.argmin(s[:, 0]))
    for _ in range(100):
        ordered = sorted(_ITEMS)
        ranks = {idx: r for r, (_, idx) in enumerate(ordered)}
        acc += sum(r for idx, r in ranks.items() if idx & 1)
    return acc


def reference_s() -> float:
    """The kernel's time for one pass, now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def settled_reference_s(passes: int = 3) -> float:
    """The median of a few passes, after one untimed warm-up pass."""
    kernel()
    return statistics.median(reference_s() for _ in range(passes))


def normalised(seconds: float, kernel_s: float) -> float:
    """``seconds`` scaled to the speed at which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_s
