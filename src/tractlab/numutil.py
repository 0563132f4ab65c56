"""Small numeric helpers: a correctly rounded running sum and log conventions.

A sum read once is one ``math.fsum``; ``RunningSum`` serves a sum read after
every term.
"""

from __future__ import annotations

import math

from .errors import DomainError


class RunningSum:
    """A sum of doubles that reads correctly rounded after each term.

    It keeps Shewchuk's non-overlapping partials, the list ``math.fsum``
    keeps internally: each ``add`` folds a finite term into them with
    error-free two-sums, and ``value`` is ``math.fsum`` of them, which is
    ``math.fsum`` of the terms, at the cost of a few partials a read.
    As in ``math.fsum``, an infinite term makes the sum infinite, a NaN
    (or infinities of both signs) NaN, and finite terms past the largest
    double raise OverflowError; the sum then stays as it was.
    """

    __slots__ = ("_partials", "_special")

    def __init__(self):
        self._partials = []
        self._special = 0.0  # the sum of the non-finite terms

    def add(self, x: float) -> None:
        if not math.isfinite(x):
            self._special += x
            return
        partials = []
        for y in self._partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials.append(lo)
            x = hi
        if math.isinf(x):
            raise OverflowError("intermediate overflow in RunningSum")
        partials.append(x)
        self._partials = partials

    @property
    def value(self) -> float:
        return self._special or math.fsum(self._partials)


def ln_plus(x: float) -> float:
    """max(1, ln x) -- the logarithm convention used in all d-normalizations."""
    if x <= 0:
        raise DomainError(f"ln_plus requires x > 0, got {x}")
    return max(1.0, math.log(x))
