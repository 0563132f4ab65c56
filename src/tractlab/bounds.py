"""Closed-form complexity bounds and tractability criteria.

Everything here is a pure function of eigenvalue spectra.  Upper bounds
(Chebyshev-type) and lower bounds (curse, Jensen/entropy) are evaluated
in the log domain so they remain meaningful far outside double range;
criteria stated as suprema or limits over an infinite index are replaced
by finite-horizon evaluations that also report a stabilization
diagnostic, never a fabricated limit.

A "family" argument is either a ProductProblem (its coordinates are
used) or a callable k -> spectrum for k = 1, 2, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .errors import DivergenceError, DomainError
from .numutil import CompensatedSum, ln_plus
from .spectra import Spectrum
from .tensor import ProductProblem

Family = Union[ProductProblem, Callable[[int], Spectrum]]


@dataclass(frozen=True)
class BoundParams:
    """Parameter bundle for one bound evaluation."""

    tau: Optional[float] = None
    z: Optional[float] = None
    q: Optional[float] = None
    delta: Optional[float] = None
    epsilon: Optional[float] = None
    gamma: Optional[float] = None

    def to_record(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class BoundEvaluation:
    """A named bound value at one dimension."""

    name: str
    value: float
    params: BoundParams
    d: int
    finite: bool = True
    extra: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "name": self.name,
            "value": self.value,
            "d": self.d,
            "finite": self.finite,
            "params": self.params.to_record(),
        }
        if self.extra:
            rec.update(self.extra)
        return rec


def _spectrum_at(family: Family, k: int) -> Spectrum:
    if isinstance(family, ProductProblem):
        if k > family.d:
            raise DomainError(
                f"coordinate {k} requested from a d={family.d} problem"
            )
        return family.coordinates[k - 1]
    return family(k)


def _family_depth(family: Family, d_max: int) -> int:
    if isinstance(family, ProductProblem):
        return min(family.d, d_max)
    return d_max


def _excess(family: Family, k: int, tau: float) -> float:
    """sum_{j>=2} (lambda(k,j)/lambda(k,1))^tau for coordinate k."""
    try:
        return _spectrum_at(family, k).excess_power_sum(tau)
    except DivergenceError as exc:
        raise DivergenceError(
            f"power sum diverges at tau={tau} in coordinate {k}",
            tau_min=exc.tau_min,
            coordinate=k,
        ) from exc


def chebyshev_bound(
    problem: ProductProblem, eps: float, tau: float, z: float
) -> float:
    """Upper bound (S_z/S_1^z) (S_tau/S_1^tau)^{z/(1-tau)} eps^{-2z/(1-tau)}.

    S_a is the d-variate power sum at exponent a.  Returns inf when the
    value overflows doubles; that is still a valid (vacuous) upper bound.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    if z <= 0.0:
        raise DomainError(f"z must be positive, got {z}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps}")
    log_s1 = problem.log_trace_d()
    log_sz = problem.log_power_sum_d(z)
    log_st = problem.log_power_sum_d(tau)
    log_val = (
        (log_sz - z * log_s1)
        + (z / (1.0 - tau)) * (log_st - tau * log_s1)
        - (2.0 * z / (1.0 - tau)) * math.log(eps)
    )
    return math.exp(log_val) if log_val < 709.0 else math.inf


def poly_tract_ratio(problem: ProductProblem, q: float, tau: float) -> float:
    """(S_tau,d)^(1/tau) / S_1,d * d^(-q), the quantity whose supremum
    over d is the polynomial-tractability constant C_{q,tau}."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    if q < 0.0:
        raise DomainError(f"q must be non-negative, got {q}")
    log_val = (
        problem.log_power_sum_d(tau) / tau
        - problem.log_trace_d()
        - q * math.log(problem.d)
    )
    return math.exp(log_val) if log_val < 709.0 else math.inf


def poly_tract_constant(
    family: Family, q: float, tau: float, d_max: int
) -> BoundEvaluation:
    """Finite-horizon proxy for the supremum C_{q,tau}: the max over
    d <= d_max, with a stabilization diagnostic (horizon vs horizon/2)."""
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    depth = _family_depth(family, d_max)
    log_ratio = 0.0  # running sum over k of (ln S_tau(k))/tau - ln S_1(k)
    best = -math.inf
    best_d = 0
    half_best = -math.inf
    for d in range(1, depth + 1):
        s = _spectrum_at(family, d)
        try:
            log_ratio += math.log(s.power_sum(tau)) / tau - math.log(s.trace())
        except DivergenceError as exc:
            raise DivergenceError(
                f"power sum diverges at tau={tau} in coordinate {d}",
                tau_min=exc.tau_min,
                coordinate=d,
            ) from exc
        cur = log_ratio - q * math.log(d)
        if cur > best:
            best, best_d = cur, d
        if d == depth // 2:
            half_best = best
    stabilized = (
        half_best > -math.inf
        and abs(best - half_best) <= 1e-3 * max(abs(best), 1.0)
    )
    value = math.exp(best) if best < 709.0 else math.inf
    return BoundEvaluation(
        name="poly_tract_constant",
        value=value,
        params=BoundParams(tau=tau, q=q),
        d=depth,
        finite=math.isfinite(value),
        extra={"argmax_d": best_d, "stabilized": stabilized},
    )


def series_converges(
    term: Callable[[int], float], k_max: int = 1_000_000
) -> bool:
    """Heuristic convergence test for sum_k term(k), term >= 0 and
    eventually monotone.

    Partial sums are compared octave by octave (K vs 2K): the series is
    declared convergent when the increments decay geometrically (ratio
    bounded away from 1) or become negligible relative to the total.
    """
    total = CompensatedSum()
    k = 1
    block = 8
    prev_inc = None
    verdict = False
    while k <= k_max:
        inc = CompensatedSum()
        stop = min(2 * (k - 1) if k > 1 else block, k_max)
        while k <= stop:
            inc.add(term(k))
            k += 1
        total.add(inc.value)
        if prev_inc is not None and prev_inc > 0.0:
            ratio = inc.value / prev_inc
            if inc.value <= 1e-9 * max(total.value, 1e-300):
                verdict = True
                break
            if ratio >= 0.95 and k > 4096:
                # early octaves of a convergent series can still look flat
                verdict = False
                break
            if ratio <= 0.80 and k > 1024:
                verdict = True
                break
        elif prev_inc == 0.0 and inc.value == 0.0:
            verdict = True
            break
        prev_inc = inc.value
    return verdict


def spt_exponent_bisect(
    family: Family,
    k_max: int = 1_000_000,
    tau_grid: Optional[Sequence[float]] = None,
) -> BoundEvaluation:
    """Smallest grid tau with sum_k sum_{j>=2} b(k,j)^tau apparently
    convergent; the reported exponent is 2*tau/(1-tau) (an upper proxy
    for the strong-polynomial exponent, grid resolution permitting).

    Returns value=inf when no grid point passes.
    """
    if tau_grid is None:
        tau_grid = [i / 100.0 for i in range(32, 100, 2)]
    taus = sorted(tau_grid)
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise DomainError(f"tau grid values must be in (0, 1), got {tau}")

        def term(k: int, _tau=tau) -> float:
            try:
                return _excess(family, k, _tau)
            except DivergenceError:
                return math.inf

        try:
            if term(1) == math.inf:
                continue
            if series_converges(term, k_max):
                return BoundEvaluation(
                    name="spt_exponent",
                    value=2.0 * tau / (1.0 - tau),
                    params=BoundParams(tau=tau),
                    d=k_max,
                    finite=True,
                )
        except OverflowError:
            continue
    return BoundEvaluation(
        name="spt_exponent",
        value=math.inf,
        params=BoundParams(),
        d=k_max,
        finite=False,
    )


def qpt_criterion(family: Family, delta: float, d_max: int) -> BoundEvaluation:
    """Finite-horizon M_delta: max over d <= d_max of
    prod_k S_{tau_d}(k) / S_1(k)^{tau_d} with tau_d = 1 - delta/ln_+ d."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    depth = _family_depth(family, d_max)
    best = -math.inf
    best_d = 0
    half_best = -math.inf
    coords = []  # (spectrum, ln trace) of coordinate k, asked for once
    for d in range(1, depth + 1):
        tau_d = 1.0 - delta / ln_plus(float(d))
        acc = CompensatedSum()
        try:
            for k in range(1, d + 1):
                if k > len(coords):
                    s = _spectrum_at(family, k)
                    coords.append((s, math.log(s.trace())))
                s, log_trace = coords[k - 1]
                acc.add(math.log(s.power_sum(tau_d)) - tau_d * log_trace)
        except DivergenceError:
            # an infinite power sum at this d makes the supremum infinite
            return BoundEvaluation(
                name="qpt_m_delta",
                value=math.inf,
                params=BoundParams(delta=delta),
                d=depth,
                finite=False,
                extra={"argmax_d": d, "stabilized": False,
                       "exponent_bound": math.inf},
            )
        if acc.value > best:
            best, best_d = acc.value, d
        if d == depth // 2:
            half_best = best
    stabilized = (
        half_best > -math.inf
        and abs(best - half_best) <= 1e-3 * max(abs(best), 1.0)
    )
    value = math.exp(best) if best < 709.0 else math.inf
    return BoundEvaluation(
        name="qpt_m_delta",
        value=value,
        params=BoundParams(delta=delta),
        d=depth,
        finite=math.isfinite(value),
        extra={
            "argmax_d": best_d,
            "stabilized": stabilized,
            "exponent_bound": max(2.0, best) / delta,
        },
    )


def qpt_criterion_general(
    problems: Callable[[int], ProductProblem], delta: float, d_max: int
) -> BoundEvaluation:
    """M_delta for a dimension-indexed family that need not be a tensor
    product in d: max over d <= d_max of S_{tau_d,d} / S_{1,d}^{tau_d}
    evaluated on the full d-variate spectrum."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must be in (0, 1), got {delta}")
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    best = -math.inf
    best_d = 0
    half_best = -math.inf
    for d in range(1, d_max + 1):
        p = problems(d)
        tau_d = 1.0 - delta / ln_plus(float(d))
        try:
            cur = p.log_power_sum_d(tau_d) - tau_d * p.log_trace_d()
        except DivergenceError:
            # an infinite power sum at this d makes the supremum infinite
            return BoundEvaluation(
                name="qpt_m_delta",
                value=math.inf,
                params=BoundParams(delta=delta),
                d=d_max,
                finite=False,
                extra={"argmax_d": d, "stabilized": False},
            )
        if cur > best:
            best, best_d = cur, d
        if d == d_max // 2:
            half_best = best
    stabilized = (
        half_best > -math.inf
        and abs(best - half_best) <= 1e-3 * max(abs(best), 1.0)
    )
    value = math.exp(best) if best < 709.0 else math.inf
    return BoundEvaluation(
        name="qpt_m_delta",
        value=value,
        params=BoundParams(delta=delta),
        d=d_max,
        finite=math.isfinite(value),
        extra={"argmax_d": best_d, "stabilized": stabilized},
    )


def jensen_lower_bound(problem: ProductProblem, gamma: float) -> float:
    """exp(gamma * sum_k H_k), a lower bound for the normalized power sum
    sum_j (lambda_{d,j}/Lambda_d)^{1-gamma}; H_k is the entropy of the
    trace-normalized coordinate spectrum."""
    if gamma < 0.0:
        raise DomainError(f"gamma must be non-negative, got {gamma}")
    h = math.fsum(c.entropy() for c in problem.coordinates)
    log_val = gamma * h
    return math.exp(log_val) if log_val < 709.0 else math.inf


def jensen_lhs(problem: ProductProblem, gamma: float) -> float:
    """The quantity Jensen bounds from below:
    sum_j lambda_{d,j}^{1-gamma} / Lambda_d^{1-gamma}."""
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"gamma must be in [0, 1), got {gamma}")
    if gamma == 0.0:
        return 1.0
    tau = 1.0 - gamma
    log_val = problem.log_power_sum_d(tau) - tau * problem.log_trace_d()
    return math.exp(log_val) if log_val < 709.0 else math.inf


def entropy_sum(problem: ProductProblem) -> BoundEvaluation:
    """sum_k H_k and its ln_+ d normalization (the quantity whose
    boundedness over d is necessary for quasi-polynomial tractability)."""
    h = math.fsum(c.entropy() for c in problem.coordinates)
    return BoundEvaluation(
        name="entropy_sum",
        value=h,
        params=BoundParams(),
        d=problem.d,
        finite=math.isfinite(h),
        extra={"normalized": h / ln_plus(float(problem.d))},
    )


def curse_lower_bound(problem: ProductProblem, eps: float) -> float:
    """(1 - eps^2) * trace_d / lambda_{d,1}: no algorithm using fewer
    functionals can reduce the initial error by the factor eps."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps}")
    log_val = math.log1p(-eps * eps) + problem.normalized_log_trace()
    return math.exp(log_val) if log_val < 709.0 else math.inf


def weak_tract_theta(family: Family, tau: float, d: int) -> float:
    """theta_d = d^{-1} sum_{k<=d} sum_{j>=2} b(k,j)^tau; weak
    tractability follows when theta_d -> 0 along d."""
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    acc = CompensatedSum()
    for k in range(1, _family_depth(family, d) + 1):
        acc.add(_excess(family, k, tau))
    return acc.value / d


def pt_log_criterion(family: Family, tau: float, d_max: int) -> BoundEvaluation:
    """The three polynomial-tractability diagnostics at exponent tau.

    value: finite-horizon Q_tau = max_d (1/ln_+ d) sum_k ln(1 + e_k)
    extra["linear"]: the stronger linear form max_d (1/ln_+ d) sum_k e_k
    extra["sup_coordinate"]: max_k (1 + e_k), whose boundedness makes the
    linear form necessary as well; e_k = sum_{j>=2} b(k,j)^tau.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0, 1), got {tau}")
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    depth = _family_depth(family, d_max)
    log_acc = CompensatedSum()
    lin_acc = CompensatedSum()
    q_log = 0.0
    q_lin = 0.0
    sup_coord = 0.0
    for k in range(1, depth + 1):
        e_k = _excess(family, k, tau)
        log_acc.add(math.log1p(e_k))
        lin_acc.add(e_k)
        sup_coord = max(sup_coord, 1.0 + e_k)
        denom = ln_plus(float(k))
        q_log = max(q_log, log_acc.value / denom)
        q_lin = max(q_lin, lin_acc.value / denom)
    return BoundEvaluation(
        name="pt_log_criterion",
        value=q_log,
        params=BoundParams(tau=tau),
        d=depth,
        finite=math.isfinite(q_log),
        extra={"linear": q_lin, "sup_coordinate": sup_coord},
    )
