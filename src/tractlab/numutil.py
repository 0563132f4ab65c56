"""Small numeric helpers: compensated summation and log conventions."""

from __future__ import annotations

import math
from typing import Iterable

from .errors import DomainError


class CompensatedSum:
    """Running Neumaier-compensated sum.

    Integer-valued partial sums and sums of a few well-scaled doubles come
    out exact; in general the error is O(eps * sum |x_i|) independent of
    the number of terms.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0

    def add(self, x: float) -> "CompensatedSum":
        s = self._s
        t = s + x
        if abs(s) >= abs(x):
            self._c += (s - t) + x
        else:
            self._c += (x - t) + s
        self._s = t
        return self

    @property
    def value(self) -> float:
        return self._s + self._c


def comp_sum(values: Iterable[float]) -> float:
    acc = CompensatedSum()
    for v in values:
        acc.add(v)
    return acc.value


def ln_plus(x: float) -> float:
    """max(1, ln x) -- the logarithm convention used in all d-normalizations."""
    if x <= 0:
        raise DomainError(f"ln_plus requires x > 0, got {x}")
    return max(1.0, math.log(x))
