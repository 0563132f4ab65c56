"""Univariate eigenvalue spectra with exact traces and power sums.

Two concrete spectrum kinds:

* ``KorobovSpectrum(g, r)``: eigenvalues 1, g, g, g/2^(2r), g/2^(2r), ...
  (value g/m^(2r) shared by the indices 2m and 2m+1).  Traces and power
  sums have closed forms through the Riemann zeta function.
* ``ExplicitSpectrum(values, tail)``: a finite non-increasing list plus a
  caller-declared mass of omitted eigenvalues.

Both are immutable and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DivergenceError, DomainError, IrreducibleTailError
from .numutil import CompensatedSum, comp_sum
from .zeta import scoped, zeta, zeta_log_weighted

_LOG_MAX = 690.0  # stay clear of exp() overflow


@dataclass(frozen=True)
class TruncatedView:
    """A spectrum cut after its first ``length`` eigenvalues.

    ``tail_mass`` is a conservative upper bound on the total mass of the
    omitted eigenvalues (exact for explicit spectra).
    """

    source: "Spectrum"
    length: int
    tail_mass: float


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
        return 1.0 + 2.0 * self.g * scoped(zeta, 2.0 * self.r)

    def tau_min(self) -> float:
        """Smallest exponent (exclusive) at which power_sum converges."""
        return 1.0 / (2.0 * self.r)

    def power_sum(self, tau: float) -> float:
        if tau <= 0:
            raise DomainError(f"power-sum exponent must be positive, got {tau}")
        if 2.0 * self.r * tau <= 1.0:
            raise DivergenceError(
                f"power sum diverges at tau={tau} (needs tau > {self.tau_min()})",
                tau_min=self.tau_min(),
            )
        return 1.0 + 2.0 * self.g ** tau * scoped(zeta, 2.0 * self.r * tau)

    def power_sum_exact(self, tau: float) -> bool:
        return True

    def excess_power_sum(self, tau: float) -> float:
        """sum_{j>=2} (eigenvalue(j)/eigenvalue(1))^tau."""
        if 2.0 * self.r * tau <= 1.0:
            raise DivergenceError(
                f"normalized power sum diverges at tau={tau}",
                tau_min=self.tau_min(),
            )
        return 2.0 * self.g ** tau * scoped(zeta, 2.0 * self.r * tau)

    def entropy(self) -> float:
        """Entropy of the trace-normalized spectrum: sum (l/L) ln(L/l) >= 0."""
        lam_sum = self.trace()
        s2r = 2.0 * self.r
        # sum_j l_j ln l_j  (the leading eigenvalue 1 contributes 0)
        mass_log = 2.0 * self.g * (
            math.log(self.g) * scoped(zeta, s2r)
            - s2r * scoped(zeta_log_weighted, s2r)
        )
        return math.log(lam_sum) - mass_log / lam_sum

    def truncate(self, tol_rel: float) -> TruncatedView:
        """Shortest view whose tail bound is at most tol_rel * trace.

        Complete eigenvalue pairs are kept, so the view length is odd
        (or 1).  The tail bound for M kept pairs is the integral estimate
        2g * M^(1-2r) / (2r - 1).
        """
        if not 0.0 < tol_rel < 1.0:
            raise DomainError(f"tol_rel must be in (0, 1), got {tol_rel}")
        tr = self.trace()
        allowed = tol_rel * tr
        exact_tail_1 = tr - 1.0  # = 2 g zeta(2r), tail after keeping only j=1
        if exact_tail_1 <= allowed:
            return TruncatedView(self, 1, exact_tail_1)
        p = 2.0 * self.r - 1.0
        log_m = math.log(2.0 * self.g / (p * allowed)) / p
        if log_m <= 0.0:
            pairs = 1
        elif log_m < _LOG_MAX:
            pairs = max(1, math.ceil(math.exp(log_m)))
        else:
            # Astronomically long view; round the exponent up instead.
            pairs = 10 ** (int(log_m / math.log(10.0)) + 1)
        log_bound = math.log(2.0 * self.g) - p * math.log(pairs) - math.log(p)
        tail = min(allowed, 2.0 * math.exp(max(log_bound, -745.0)))
        return TruncatedView(self, 2 * pairs + 1, tail)

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
    """A finite, non-increasing eigenvalue list plus a declared omitted mass."""

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
        return comp_sum(self.values) + self.tail

    def tau_min(self) -> float:
        return 0.0

    def power_sum(self, tau: float) -> float:
        if tau <= 0:
            raise DomainError(f"power-sum exponent must be positive, got {tau}")
        acc = CompensatedSum()
        for v in self.values:
            if v > 0.0:
                acc.add(v if tau == 1.0 else v ** tau)
        if tau == 1.0:
            acc.add(self.tail)
        # For tau != 1 the omitted mass cannot be converted to a power sum;
        # the result is then a lower bound (see power_sum_exact).
        return acc.value

    def power_sum_exact(self, tau: float) -> bool:
        return self.tail == 0.0 or tau == 1.0

    def excess_power_sum(self, tau: float) -> float:
        lead = self.values[0]
        acc = CompensatedSum()
        for v in self.values[1:]:
            if v > 0.0:
                acc.add((v / lead) ** tau)
        if tau == 1.0:
            acc.add(self.tail / lead)
        return acc.value

    def entropy(self) -> float:
        lam_sum = self.trace()
        acc = CompensatedSum()
        for v in self.values:
            if v > 0.0:
                acc.add((v / lam_sum) * math.log(lam_sum / v))
        return acc.value

    def truncate(self, tol_rel: float) -> TruncatedView:
        if not 0.0 < tol_rel < 1.0:
            raise DomainError(f"tol_rel must be in (0, 1), got {tol_rel}")
        tr = self.trace()
        allowed = tol_rel * tr
        if self.tail > allowed:
            raise IrreducibleTailError(
                f"declared tail {self.tail} exceeds the truncation budget {allowed}"
            )
        # Suffix masses: cut as early as the declared tail budget allows.
        suffix = [self.tail]
        for v in reversed(self.values):
            suffix.append(suffix[-1] + v)
        suffix.reverse()  # suffix[j] = mass of values[j:] + tail
        length = len(self.values)
        while length > 1 and suffix[length - 1] <= allowed:
            length -= 1
        return TruncatedView(self, length, suffix[length])

    def dense_values(self, floor: float, limit: int) -> np.ndarray:
        """Normalized eigenvalues >= floor as a non-increasing array."""
        if floor <= 0.0:
            raise DomainError("dense_values needs a positive floor")
        lead = self.values[0]
        out = np.array(self.values[: max(limit, 1)], dtype=np.float64) / lead
        return out[out >= floor]


Spectrum = Union[KorobovSpectrum, ExplicitSpectrum]


def spectrum_from_config(desc: dict) -> Spectrum:
    """Build a spectrum from its JSON descriptor."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise DomainError(f"spectrum descriptor needs a 'kind' field: {desc!r}")
    kind = desc["kind"]
    if kind == "korobov":
        extra = set(desc) - {"kind", "g", "r"}
        if extra:
            raise DomainError(f"unknown spectrum fields: {sorted(extra)}")
        return KorobovSpectrum(g=float(desc["g"]), r=float(desc["r"]))
    if kind == "explicit":
        extra = set(desc) - {"kind", "values", "tail"}
        if extra:
            raise DomainError(f"unknown spectrum fields: {sorted(extra)}")
        return ExplicitSpectrum(
            values=tuple(desc["values"]), tail=float(desc.get("tail", 0.0))
        )
    raise DomainError(f"unknown spectrum kind {kind!r}")
