"""Univariate eigenvalue spectra with exact traces and power sums.

Two concrete spectrum kinds:

* ``KorobovSpectrum(g, r)``: eigenvalues 1, g, g, g/2^(2r), g/2^(2r), ...
  (value g/m^(2r) shared by the indices 2m and 2m+1).  Traces and power
  sums have closed forms through the Riemann zeta function.
* ``ExplicitSpectrum(values, tail)``: a finite non-increasing list plus a
  caller-declared mass of omitted eigenvalues, each at most the last
  listed one.

Both are immutable and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._descriptors import NUMBER, NUMBERS, read_kind
from .errors import DivergenceError, DomainError
from .zeta import zeta, zeta_log_weighted

# ln of the most pairs a Korobov truncation keeps; KorobovSpectrum.truncate
# argues why no caller reads past it
_LOG_PAIRS_CAP = 69.0


def _check_exponent(tau: float) -> None:
    if not tau > 0.0:  # NaN fails too
        raise DomainError(f"power-sum exponent must be positive, got {tau}")


@dataclass(frozen=True)
class KorobovSpectrum:
    """Korobov-kernel eigenvalue sequence with weight g and smoothness r."""

    g: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.g <= 1.0:
            raise DomainError(f"weight g must be in (0, 1], got {self.g}")
        if not self.r > 0.5:
            raise DomainError(f"smoothness r must exceed 1/2, got {self.r}")
        if not math.isfinite(2.0 * self.r):  # the closed forms take 2r
            raise DomainError(f"smoothness 2r must be finite, got r = {self.r}")

    def eigenvalue(self, j: int) -> float:
        if j < 1:
            raise DomainError(f"eigenvalue index must be >= 1, got {j}")
        if j == 1:
            return 1.0
        m = j // 2
        return self.g * float(m) ** (-2.0 * self.r)

    def log_eigenvalue(self, j: int) -> float:
        """ln of eigenvalue(j); the paired indices 2m, 2m+1 share one value."""
        if j < 1:
            raise DomainError(f"eigenvalue index must be >= 1, got {j}")
        if j == 1:
            return 0.0
        m = j // 2
        return math.log(self.g) - 2.0 * self.r * math.log(m)

    def leading(self) -> float:
        return 1.0

    def trace(self) -> float:
        return 1.0 + 2.0 * self.g * zeta(2.0 * self.r)

    def tau_min(self) -> float:
        """Smallest exponent (exclusive) at which power_sum converges."""
        return 1.0 / (2.0 * self.r)

    def power_sum(self, tau: float) -> float:
        _check_exponent(tau)
        if 2.0 * self.r * tau <= 1.0:
            raise DivergenceError(
                f"power sum diverges at tau={tau} (needs tau > {self.tau_min()})",
                tau_min=self.tau_min(),
            )
        return 1.0 + 2.0 * self.g ** tau * zeta(2.0 * self.r * tau)

    def excess_power_sum(self, tau: float) -> float:
        """sum_{j>=2} (eigenvalue(j)/eigenvalue(1))^tau."""
        _check_exponent(tau)
        if 2.0 * self.r * tau <= 1.0:
            raise DivergenceError(
                f"normalized power sum diverges at tau={tau}",
                tau_min=self.tau_min(),
            )
        return 2.0 * self.g ** tau * zeta(2.0 * self.r * tau)

    def entropy(self) -> float:
        """Entropy of the trace-normalized spectrum: sum (l/L) ln(L/l) >= 0."""
        lam_sum = self.trace()
        s2r = 2.0 * self.r
        # sum_j l_j ln l_j  (the leading eigenvalue 1 contributes 0)
        mass_log = 2.0 * self.g * (
            math.log(self.g) * zeta(s2r)
            - s2r * zeta_log_weighted(s2r)
        )
        return math.log(lam_sum) - mass_log / lam_sum

    def truncate(self, tol_rel: float) -> int:
        """The number of leading eigenvalues to keep so that the omitted
        mass is at most tol_rel * trace, for at most e^69 pairs.

        Complete eigenvalue pairs are kept, so the length is odd (or 1).
        M kept pairs omit at most the integral estimate
        2g * M^(1-2r) / (2r - 1), and M is the least count for which that
        estimate is within the budget.  Near r = 1/2 that count grows like
        exp(1/(2r - 1)), so M is clamped at e^69 pairs and the bound holds
        only below the clamp.  No caller reads past it: the first value
        after e^69 pairs is below g e^(-138 r) < e^-69, under the heap's
        lowest floor e^-64; the oracle caps every length at 1M values; and
        top_eigenvalues raises its floor to the first value a cut leaves
        out, so its stream stays exact.
        """
        if not 0.0 < tol_rel < 1.0:
            raise DomainError(f"tol_rel must be in (0, 1), got {tol_rel}")
        tr = self.trace()
        allowed = tol_rel * tr
        if tr - 1.0 <= allowed:  # tr - 1 = 2 g zeta(2r), all but j = 1
            return 1
        p = 2.0 * self.r - 1.0
        log_m = math.log(2.0 * self.g / (p * allowed)) / p
        return 2 * max(1, math.ceil(math.exp(min(log_m, _LOG_PAIRS_CAP)))) + 1

    def dense_values(self, floor: float, limit: int) -> np.ndarray:
        """Normalized eigenvalues >= floor as a non-increasing array.

        At most ``limit`` entries are produced (complete pairs plus the
        leading 1).  numpy's power may differ from the one in eigenvalue()
        by one ulp (on about 5% of the values), so an entry is within an
        ulp of eigenvalue(), not always equal to it.
        """
        if floor <= 0.0:
            raise DomainError("dense_values needs a positive floor")
        if limit < 3 or floor > self.g:
            return np.ones(1)
        # the estimate of the last pair may round down by one when the floor
        # is a value itself, so the next pair is tested against it too
        m_max = int((self.g / floor) ** (1.0 / (2.0 * self.r))) + 1
        m_max = min(m_max, (limit - 1) // 2)
        if m_max < 1:
            return np.ones(1)
        m = np.arange(1, m_max + 1, dtype=np.float64)
        vals = self.g * m ** (-2.0 * self.r)
        vals = vals[vals >= floor]
        out = np.empty(1 + 2 * len(vals))
        out[0] = 1.0
        out[1::2] = vals
        out[2::2] = vals
        return out


@dataclass(frozen=True)
class ExplicitSpectrum:
    """A finite, non-increasing eigenvalue list plus a declared omitted mass.

    The omitted eigenvalues are unknown beyond their total, the tail, and
    each being at most the last listed value, so power sums bound them from
    above: tail * v_last^(tau - 1) for tau > 1 and the tail itself at tau = 1.
    Below tau = 1 the tail may be split into arbitrarily many values and
    its power sum is unbounded (DivergenceError).
    """

    values: tuple
    tail: float = 0.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(map(math.isfinite, vals + (self.tail,))):
            raise DomainError("explicit spectrum values and tail must be finite")
        if not vals or vals[0] <= 0.0:
            raise DomainError("explicit spectrum needs a positive leading eigenvalue")
        for a, b in zip(vals, vals[1:]):
            if b > a:
                raise DomainError("explicit spectrum values must be non-increasing")
        if vals[-1] < 0.0:
            raise DomainError("eigenvalues must be non-negative")
        if self.tail < 0.0:
            raise DomainError(f"declared tail must be non-negative, got {self.tail}")
        if self.tail > 0.0 and vals[-1] == 0.0:
            raise DomainError("a declared tail cannot follow a zero eigenvalue")
        # not a field: ==, hash and repr see values and tail only
        try:
            trace = math.fsum(vals + (self.tail,))
        except OverflowError:
            raise DomainError("explicit spectrum trace overflows") from None
        object.__setattr__(self, "_trace", trace)

    def eigenvalue(self, j: int) -> float:
        if j < 1:
            raise DomainError(f"eigenvalue index must be >= 1, got {j}")
        return self.values[j - 1] if j <= len(self.values) else 0.0

    def log_eigenvalue(self, j: int) -> float:
        v = self.eigenvalue(j)
        return math.log(v) if v > 0.0 else -math.inf

    def leading(self) -> float:
        return self.values[0]

    def trace(self) -> float:
        return self._trace

    def tau_min(self) -> float:
        return 1.0 if self.tail > 0.0 else 0.0

    def _tail_power_sum(self, tau: float, lead: float = 1.0) -> float:
        """The most the omitted eigenvalues, divided by ``lead``, can add to
        a power sum at exponent tau."""
        if tau == 1.0 or self.tail == 0.0:
            return self.tail / lead
        if tau < 1.0:
            raise DivergenceError(
                f"power sum of the declared tail diverges at tau={tau} "
                f"(needs tau >= 1)", tau_min=1.0)
        return self.tail / lead * (self.values[-1] / lead) ** (tau - 1.0)

    def power_sum(self, tau: float) -> float:
        _check_exponent(tau)
        return math.fsum([v ** tau for v in self.values]
                         + [self._tail_power_sum(tau)])

    def excess_power_sum(self, tau: float) -> float:
        _check_exponent(tau)
        lead = self.values[0]
        return math.fsum([(v / lead) ** tau for v in self.values[1:]]
                         + [self._tail_power_sum(tau, lead)])

    def entropy(self) -> float:
        lam_sum = self.trace()
        return math.fsum((v / lam_sum) * math.log(lam_sum / v)
                         for v in self.values if v > 0.0)

    def truncate(self, tol_rel: float) -> int:
        """The number of leading values to keep so that the omitted mass,
        the declared tail included, is at most tol_rel * trace: the fewest
        such, but at least 1.  A declared tail above that budget cannot be
        cut away, so then every listed value is kept."""
        if not 0.0 < tol_rel < 1.0:
            raise DomainError(f"tol_rel must be in (0, 1), got {tol_rel}")
        allowed = tol_rel * self.trace()
        length, omitted = len(self.values), self.tail
        while length > 1 and omitted + self.values[length - 1] <= allowed:
            omitted += self.values[length - 1]
            length -= 1
        return length

    def dense_values(self, floor: float, limit: int) -> np.ndarray:
        """Normalized eigenvalues >= floor as a non-increasing array."""
        if floor <= 0.0:
            raise DomainError("dense_values needs a positive floor")
        lead = self.values[0]
        out = np.array(self.values[: max(limit, 1)], dtype=np.float64) / lead
        return out[out >= floor]


Spectrum = Union[KorobovSpectrum, ExplicitSpectrum]


_SPECTRUM_FIELDS = {
    "korobov": ({"g": NUMBER, "r": NUMBER}, {}),
    "explicit": ({"values": NUMBERS, "tail": NUMBER}, {"tail": 0.0}),
}


def spectrum_from_config(desc: dict) -> Spectrum:
    """Build a spectrum from its JSON descriptor."""
    kind, fields = read_kind(desc, "spectrum", _SPECTRUM_FIELDS)
    if kind == "korobov":
        return KorobovSpectrum(g=float(fields["g"]), r=float(fields["r"]))
    return ExplicitSpectrum(values=tuple(fields["values"]), tail=float(fields["tail"]))
