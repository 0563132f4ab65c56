"""The curse's product counts from divisor counting, sharing no code with
the engine.

d equal KorobovSpectrum(1/2, 1) coordinates have eigenvalue 1 and then the
pairs 2^-1 m^-2, m >= 1.  A product with k non-leading factors is
2^-k (m_1 ... m_k)^-2, so the number of products >= t is

    N(t) = sum_k C(d, k) 2^k D_k(isqrt(floor(2^-k / t))),

with D_k(Y) = #{m in N^k : m_1 ... m_k <= Y}, all in Python ints.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from tractlab.spectra import KorobovSpectrum
from tractlab.tensor import _LevelFold


@functools.lru_cache(maxsize=None)
def divisor_count(k, y):
    """D_k(y): D_k(y) = sum_{m <= y} D_(k-1)(floor(y / m)), with the m that
    share q = floor(y / m) taken as one block."""
    if y < 1:
        return 0
    if k <= 1:
        return 1 if k == 0 else y
    total, m = 0, 1
    while m <= y:
        q = y // m
        last = y // q  # the largest m with floor(y / m) = q
        total += (last - m + 1) * divisor_count(k - 1, q)
        m = last + 1
    return total


def curse_count(d, t):
    """N(t) for the exact level t, a Fraction."""
    return sum(math.comb(d, k) * 2**k
               * divisor_count(k, math.isqrt(math.floor(Fraction(1, 2**k) / t)))
               for k in range(d + 1))


def test_divisor_count_matches_a_direct_count():
    for y in range(0, 60):
        assert divisor_count(1, y) == y
        assert divisor_count(2, y) == sum(y // m for m in range(1, y + 1))
        assert divisor_count(3, y) == sum(1 for a in range(1, y + 1)
                                          for b in range(1, y // a + 1)
                                          for c in range(1, y // (a * b) + 1))


@pytest.mark.parametrize("d", range(3, 13))
def test_fold_counts_match_divisor_counting(d):
    # levels log-uniform down to the floor, each kept only where N is the
    # same at t (1 -+ 1e-9): no exact product lies that close, and the
    # fold's products, a few ulps from exact, fall on the same side of t
    floor = 1e-9
    fold = _LevelFold([KorobovSpectrum(0.5, 1.0)] * d, floor, 1 << 22, 10**9, [0] * d)
    assert fold.floor == floor
    rng = random.Random(d)
    near = Fraction(1, 10**9)
    checked = 0
    while checked < 20:
        t = floor ** rng.random()
        exact = Fraction(t)
        n = curse_count(d, exact)
        if any(curse_count(d, exact * (1 + e)) != n for e in (-near, near)):
            continue
        assert fold.number(fold.counts(t)) == n, (d, t)
        checked += 1
