"""Closed forms of the few statistics the tests need, from ``math`` and numpy
alone; none calls pfops code, so each stays an independent oracle."""

import math

import numpy as np


def normal_cdf(x):
    """The standard normal CDF at each value of ``x``, as a float array."""
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


def chisquare_pvalue(observed, expected):
    """Pearson's chi-square p-value, df = bins - 1: the statistic's survival
    function in closed form for an integer df (Abramowitz & Stegun 26.4.4,
    a Poisson sum for even df, and 26.4.5, erfc plus a sum for odd df)."""
    terms = (observed - expected) ** 2 / expected
    x, df = float(terms.sum()), len(observed) - 1
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for j in range(1, df // 2):
            term *= x / 2 / j
            total += term
        return math.exp(-x / 2) * total
    root = math.sqrt(x)
    term, total = root, 0.0
    for r in range(1, (df - 1) // 2 + 1):
        total += term
        term *= x / (2 * r + 1)
    return math.erfc(root / math.sqrt(2.0)) + math.sqrt(2 / math.pi) * math.exp(-x / 2) * total


def sign_test_pvalue(wins, n):
    """One-sided sign test: P(at least ``wins`` of ``n`` fair coin flips),
    the exact binomial tail."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2**n


def cdist(a, b):
    """Euclidean distances between the rows of the (m, 2) ``a`` and the
    (n, 2) ``b``, an (m, n) array: sqrt(d0 * d0 + d1 * d1) over the outer
    differences of each column."""
    d0 = a[:, 0, None] - b[:, 0]
    d1 = a[:, 1, None] - b[:, 1]
    return np.sqrt(d0 * d0 + d1 * d1)
