"""Riemann zeta and the companion log-weighted series.

Both are evaluated by direct summation of the first N - 1 = 99 terms plus
an Euler-Maclaurin tail at N = 100 through the B_4 term.  The error is
argued term by term:

* each direct term n^-s comes from ``np.power`` within 1 ulp (0.65 ulp
  measured over 30,000 terms), and times ln n within 3 ulps;
* ``math.fsum`` rounds the exact sum of those doubles correctly, and as
  every term is positive the sum keeps the largest relative term error;
* f = x^-s and f = x^-s ln x have derivatives of fixed sign on [N, inf)
  (for the latter, ln N > 1 + 1/2 + ... + 1/8), so the Euler-Maclaurin
  remainder after the B_4 term is at most the first omitted term,
  |B_6|/6! |f^(5)(N)|: below 4.8e-16 of zeta(s) for every s > 1 (largest
  near s = 1.31), below 9.1e-16 of the log-weighted series (near
  s = 1.74), and below 1e-25 of either for s >= 10.

With the few roundings of the tail formula this makes both accurate to
about 1e-15 relative for 1 < s <= 60 (measured against mpmath at 40
digits: at most 5.6e-16 for zeta and 9.7e-16 for the log-weighted
series).  Above s = 60 only the terms n = 1, 2, 3 are kept: 4^-s < 1e-36.

``zeta_scope()`` is the per-call scope for these values.  While one is
active, ``scoped(zeta, s)`` (and likewise for ``zeta_log_weighted``)
evaluates each distinct s once and hands the same double out again; the
spectra's closed forms go through it.  The bounds, ``info_complexity``,
the brute-force oracle's calls and the CLI ``bounds`` and ``sweep``
commands enter a scope per call, a nested entry shares the outer one, and
the values are dropped when the outermost one exits, so nothing is kept
from one call to the next.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DomainError

# Number of directly summed terms before the tail correction kicks in.
_N = 100
_NS = np.arange(1.0, _N)  # 1, 2, ..., N - 1
_LOG_NS = np.log(_NS)


def zeta(s: float) -> float:
    """Riemann zeta(s) = sum_{n>=1} n^-s for s > 1."""
    if not s > 1.0:  # NaN fails too
        raise DomainError(f"zeta(s) needs s > 1 (it diverges at or below 1), got s={s}")
    if s > 60.0:
        # 2^-s already below double resolution relative to the leading 1.
        return 1.0 + 2.0 ** (-s) + 3.0 ** (-s)
    n = float(_N)
    # Tail sum_{k>=N} k^-s via Euler-Maclaurin at a=N.
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        + 0.5 * n ** (-s)
        + s * n ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    )
    terms = np.power(_NS, -s).tolist()
    terms.append(tail)
    return math.fsum(terms)


def zeta_log_weighted(s: float) -> float:
    """sum_{n>=1} n^-s * ln(n) for s > 1 (equals -zeta'(s))."""
    if not s > 1.0:  # NaN fails too
        raise DomainError(f"log-weighted zeta series needs s > 1, got s={s}")
    if s > 60.0:
        ln2, ln3 = math.log(2.0), math.log(3.0)
        return ln2 * 2.0 ** (-s) + ln3 * 3.0 ** (-s)
    n = float(_N)
    ln_n = math.log(n)
    # f(x) = x^-s ln x; tail = integral + f(N)/2 - f'(N)/12 + f'''(N)/720.
    integral = n ** (1.0 - s) * (ln_n / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    half = 0.5 * n ** (-s) * ln_n
    fprime = n ** (-s - 1.0) * (1.0 - s * ln_n)
    fppp = n ** (-s - 3.0) * (
        -s * (s + 1.0) * (s + 2.0) * ln_n
        + (2.0 * s + 1.0) * (s + 2.0)
        + s * (s + 1.0)
    )
    terms = (np.power(_NS, -s) * _LOG_NS).tolist()
    terms.append(integral + half - fprime / 12.0 + fppp / 720.0)
    return math.fsum(terms)


# (function, s) -> value, for the outermost active zeta_scope only.
_VALUES: ContextVar[Optional[dict]] = ContextVar("zeta_values", default=None)


@contextmanager
def zeta_scope() -> Iterator[None]:
    """Share zeta values within the block; a nested entry reuses the
    outer scope, and the outermost exit drops them, also on an error."""
    if _VALUES.get() is not None:
        yield
        return
    token = _VALUES.set({})
    try:
        yield
    finally:
        _VALUES.reset(token)


def scoped(fn: Callable[[float], float], s: float) -> float:
    """fn(s), evaluated once per distinct (fn, s) inside a zeta_scope.

    An exception from fn propagates and stores nothing."""
    values = _VALUES.get()
    if values is None:
        return fn(s)
    key = (fn, s)
    try:
        return values[key]
    except KeyError:
        value = values[key] = fn(s)
        return value
