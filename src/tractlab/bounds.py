"""Closed-form complexity bounds and tractability criteria.

Everything here is a pure function of eigenvalue spectra.  Upper bounds
(Chebyshev-type) and lower bounds (curse, Jensen/entropy) are evaluated
in the log domain so they remain meaningful far outside double range;
criteria stated as suprema or limits over an infinite index are replaced
by finite-horizon evaluations that also report a stabilization
diagnostic, never a fabricated limit.

A "family" argument is either a ProductProblem (its coordinates are
used) or a callable k -> spectrum for k = 1, 2, ...

One public call evaluates each distinct zeta argument once (every public
function runs in a ``zeta_scope``) and asks the family for each
coordinate once, however many dimensions or exponents it walks; nothing
survives the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .errors import DivergenceError, DomainError
from .numutil import RunningSum, ln_plus
from .spectra import Spectrum
from .tensor import ProductProblem
from .zeta import zeta_scope

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


# Parameter range checks, shared by the bound functions and check_request.
def _in_unit_interval(name: str, x: float) -> None:
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must be in (0, 1), got {x}")


def _below_one(name: str, x: float) -> None:
    if not 0.0 <= x < 1.0:
        raise DomainError(f"{name} must be in [0, 1), got {x}")


def _positive(name: str, x: float) -> None:
    if not x > 0.0:
        raise DomainError(f"{name} must be positive, got {x}")


def _non_negative(name: str, x: float) -> None:
    if not x >= 0.0:
        raise DomainError(f"{name} must be non-negative, got {x}")


def _exp(log_val: float) -> float:
    return math.exp(log_val) if log_val < 709.0 else math.inf


class _Coordinates:
    """The coordinates k = 1, 2, ... of a family, each built, and its ln
    trace taken, once per call: at their first request, in order of k."""

    def __init__(self, family: Family):
        self.family = family
        self.product = isinstance(family, ProductProblem)
        self.spectra = list(family.coordinates) if self.product else []
        self.log_traces = []

    def depth(self, d_max: int) -> int:
        return min(self.family.d, d_max) if self.product else d_max

    def spectrum(self, k: int) -> Spectrum:
        while len(self.spectra) < k:
            if self.product:
                raise DomainError(
                    f"coordinate {k} requested from a d={self.family.d} problem"
                )
            self.spectra.append(self.family(len(self.spectra) + 1))
        return self.spectra[k - 1]

    def log_trace(self, k: int) -> float:
        while len(self.log_traces) < k:
            s = self.spectrum(len(self.log_traces) + 1)
            self.log_traces.append(math.log(s.trace()))
        return self.log_traces[k - 1]

    def power_sum(self, k: int, tau: float, excess: bool = False) -> float:
        """S_tau of coordinate k or, with ``excess``, its
        sum_{j>=2} (lambda(k,j)/lambda(k,1))^tau; a divergence names k."""
        s = self.spectrum(k)
        try:
            return s.excess_power_sum(tau) if excess else s.power_sum(tau)
        except DivergenceError as exc:
            raise DivergenceError(
                f"power sum diverges at tau={tau} in coordinate {k}",
                tau_min=exc.tau_min,
                coordinate=k,
            ) from exc


def _max_over_d(
    name: str,
    params: BoundParams,
    log_value: Callable[[int], float],
    depth: int,
    extra: Callable[[float], dict] = lambda best: {},
) -> BoundEvaluation:
    """The finite-horizon proxy of a supremum over d of exp(log_value(d)):
    the max over d = 1..depth (asked in order of d), the d attaining it,
    and whether the max over d <= depth // 2 is already within 1e-3 of it
    (relative, or absolute below 1), plus ``extra(max log value)``.  An
    infinite log value, from a divergent power sum, makes the supremum
    infinite and ends the walk."""
    best, best_d, half_best = -math.inf, 0, -math.inf
    for d in range(1, depth + 1):
        cur = log_value(d)
        if cur > best:
            best, best_d = cur, d
        if cur == math.inf:
            break
        if d == depth // 2:
            half_best = best
    stabilized = (
        math.isfinite(best)
        and half_best > -math.inf
        and abs(best - half_best) <= 1e-3 * max(abs(best), 1.0)
    )
    value = _exp(best)
    return BoundEvaluation(
        name=name,
        value=value,
        params=params,
        d=depth,
        finite=math.isfinite(value),
        extra={"argmax_d": best_d, "stabilized": stabilized, **extra(best)},
    )


@zeta_scope()
def chebyshev_bound(
    problem: ProductProblem, eps: float, tau: float, z: float
) -> float:
    """Upper bound (S_z/S_1^z) (S_tau/S_1^tau)^{z/(1-tau)} eps^{-2z/(1-tau)}.

    S_a is the d-variate power sum at exponent a.  Returns inf when the
    value overflows doubles; that is still a valid (vacuous) upper bound.
    """
    _in_unit_interval("tau", tau)
    _positive("z", z)
    _in_unit_interval("eps", eps)
    log_s1 = problem.log_trace_d()
    log_sz = problem.log_power_sum_d(z)
    log_st = problem.log_power_sum_d(tau)
    log_val = (
        (log_sz - z * log_s1)
        + (z / (1.0 - tau)) * (log_st - tau * log_s1)
        - (2.0 * z / (1.0 - tau)) * math.log(eps)
    )
    return _exp(log_val)


@zeta_scope()
def poly_tract_ratio(problem: ProductProblem, q: float, tau: float) -> float:
    """(S_tau,d)^(1/tau) / S_1,d * d^(-q), the quantity whose supremum
    over d is the polynomial-tractability constant C_{q,tau}."""
    _in_unit_interval("tau", tau)
    _non_negative("q", q)
    log_val = (
        problem.log_power_sum_d(tau) / tau
        - problem.log_trace_d()
        - q * math.log(problem.d)
    )
    return _exp(log_val)


@zeta_scope()
def poly_tract_constant(
    family: Family, q: float, tau: float, d_max: int
) -> BoundEvaluation:
    """Finite-horizon proxy for the supremum C_{q,tau}: the max over
    d <= d_max, with a stabilization diagnostic (horizon vs horizon/2)."""
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    _in_unit_interval("tau", tau)
    coords = _Coordinates(family)
    log_ratio = 0.0  # running sum over k of (ln S_tau(k))/tau - ln S_1(k)

    def log_value(d: int) -> float:
        nonlocal log_ratio
        log_ratio += math.log(coords.power_sum(d, tau)) / tau - coords.log_trace(d)
        return log_ratio - q * math.log(d)

    return _max_over_d("poly_tract_constant", BoundParams(tau=tau, q=q),
                       log_value, coords.depth(d_max))


@zeta_scope()
def series_converges(
    term: Callable[[int], float], k_max: int = 1_000_000
) -> bool:
    """Heuristic convergence test for sum_k term(k), term >= 0 and
    eventually monotone.

    Partial sums are compared octave by octave (K vs 2K): the series is
    declared convergent when the increments decay geometrically (ratio
    bounded away from 1) or become negligible relative to the total.  A
    term that is not finite, or a term or sum past the largest double,
    shows no convergence.
    """
    total = RunningSum()
    k = 1
    block = 8
    prev_inc = None
    while k <= k_max:
        stop = min(2 * (k - 1) if k > 1 else block, k_max)
        try:
            inc = math.fsum(term(j) for j in range(k, stop + 1))
            total.add(inc)
        except OverflowError:
            return False
        k = stop + 1
        if not math.isfinite(inc):
            return False
        if prev_inc is not None and prev_inc > 0.0:
            ratio = inc / prev_inc
            if inc <= 1e-9 * max(total.value, 1e-300):
                return True
            if ratio >= 0.95 and k > 4096:
                # early octaves of a convergent series can still look flat
                return False
            if ratio <= 0.80 and k > 1024:
                return True
        elif prev_inc == 0.0 and inc == 0.0:
            return True
        prev_inc = inc
    return False


@zeta_scope()
def spt_exponent_bisect(
    family: Family,
    k_max: int = 1_000_000,
    tau_grid: Optional[Sequence[float]] = None,
) -> BoundEvaluation:
    """Smallest grid tau with sum_k sum_{j>=2} b(k,j)^tau apparently
    convergent; the reported exponent is 2*tau/(1-tau) (an upper proxy
    for the strong-polynomial exponent, grid resolution permitting).

    Returns value=inf when no grid point passes.  The grid shares one
    walk over the family, which holds every spectrum it reaches until the
    call returns (about 120 bytes each for a Korobov spectrum).
    """
    if tau_grid is None:
        tau_grid = [i / 100.0 for i in range(32, 100, 2)]
    taus = sorted(tau_grid)
    coords = _Coordinates(family)
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise DomainError(f"tau grid values must be in (0, 1), got {tau}")

        def term(k: int, _tau=tau) -> float:
            try:
                return coords.spectrum(k).excess_power_sum(_tau)
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


@zeta_scope()
def qpt_criterion(family: Family, delta: float, d_max: int) -> BoundEvaluation:
    """Finite-horizon M_delta: max over d <= d_max of
    prod_k S_{tau_d}(k) / S_1(k)^{tau_d} with tau_d = 1 - delta/ln_+ d."""
    _in_unit_interval("delta", delta)
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    coords = _Coordinates(family)

    def log_value(d: int) -> float:
        tau_d = 1.0 - delta / ln_plus(float(d))
        try:
            return math.fsum(math.log(coords.power_sum(k, tau_d))
                             - tau_d * coords.log_trace(k)
                             for k in range(1, d + 1))
        except DivergenceError:
            return math.inf  # an infinite power sum makes the supremum infinite

    return _max_over_d(
        "qpt_m_delta", BoundParams(delta=delta), log_value, coords.depth(d_max),
        lambda best: {"exponent_bound": max(2.0, best) / delta},
    )


@zeta_scope()
def qpt_criterion_general(
    problems: Callable[[int], ProductProblem], delta: float, d_max: int
) -> BoundEvaluation:
    """M_delta for a dimension-indexed family that need not be a tensor
    product in d: max over d <= d_max of S_{tau_d,d} / S_{1,d}^{tau_d}
    evaluated on the full d-variate spectrum."""
    _in_unit_interval("delta", delta)
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")

    def log_value(d: int) -> float:
        p = problems(d)
        tau_d = 1.0 - delta / ln_plus(float(d))
        try:
            return p.log_power_sum_d(tau_d) - tau_d * p.log_trace_d()
        except DivergenceError:
            return math.inf  # an infinite power sum makes the supremum infinite

    return _max_over_d("qpt_m_delta", BoundParams(delta=delta), log_value, d_max)


@zeta_scope()
def jensen_lower_bound(problem: ProductProblem, gamma: float) -> float:
    """exp(gamma * sum_k H_k), a lower bound for the normalized power sum
    sum_j (lambda_{d,j}/Lambda_d)^{1-gamma}; H_k is the entropy of the
    trace-normalized coordinate spectrum."""
    _non_negative("gamma", gamma)
    h = math.fsum(c.entropy() for c in problem.coordinates)
    log_val = gamma * h
    return _exp(log_val)


@zeta_scope()
def jensen_lhs(problem: ProductProblem, gamma: float) -> float:
    """The quantity Jensen bounds from below:
    sum_j lambda_{d,j}^{1-gamma} / Lambda_d^{1-gamma}."""
    _below_one("gamma", gamma)
    if gamma == 0.0:
        return 1.0
    tau = 1.0 - gamma
    log_val = problem.log_power_sum_d(tau) - tau * problem.log_trace_d()
    return _exp(log_val)


@zeta_scope()
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


@zeta_scope()
def curse_lower_bound(problem: ProductProblem, eps: float) -> float:
    """(1 - eps^2) * trace_d / lambda_{d,1}: no algorithm using fewer
    functionals can reduce the initial error by the factor eps."""
    _in_unit_interval("eps", eps)
    log_val = math.log1p(-eps * eps) + problem.normalized_log_trace()
    return _exp(log_val)


@zeta_scope()
def weak_tract_theta(family: Family, tau: float, d: int) -> float:
    """theta_d = d^{-1} sum_{k<=d} sum_{j>=2} b(k,j)^tau; weak
    tractability follows when theta_d -> 0 along d."""
    _in_unit_interval("tau", tau)
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    coords = _Coordinates(family)
    return math.fsum(coords.power_sum(k, tau, excess=True)
                     for k in range(1, coords.depth(d) + 1)) / d


@zeta_scope()
def pt_log_criterion(family: Family, tau: float, d_max: int) -> BoundEvaluation:
    """The three polynomial-tractability diagnostics at exponent tau.

    value: finite-horizon Q_tau = max_d (1/ln_+ d) sum_k ln(1 + e_k)
    extra["linear"]: the stronger linear form max_d (1/ln_+ d) sum_k e_k
    extra["sup_coordinate"]: max_k (1 + e_k), whose boundedness makes the
    linear form necessary as well; e_k = sum_{j>=2} b(k,j)^tau.
    """
    _in_unit_interval("tau", tau)
    if d_max < 1:
        raise DomainError(f"d_max must be positive, got {d_max}")
    coords = _Coordinates(family)
    depth = coords.depth(d_max)
    log_acc = RunningSum()
    lin_acc = RunningSum()
    q_log = 0.0
    q_lin = 0.0
    sup_coord = 0.0
    for k in range(1, depth + 1):
        e_k = coords.power_sum(k, tau, excess=True)
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


# The bounds a config may request: name -> (value at (problem, d, eps,
# **params), parameter defaults, parameter range checks).  The lambdas look
# each function up when called, so a wrapper set on this module's attributes
# sees every call.
BOUND_REQUESTS = {
    "chebyshev": (lambda p, d, eps, tau, z: chebyshev_bound(
        p, eps, tau=tau, z=tau if z is None else z), {"tau": 0.9, "z": None},
        {"tau": _in_unit_interval, "z": _positive}),
    "curse": (lambda p, d, eps: curse_lower_bound(p, eps), {}, {}),
    "jensen_lhs": (lambda p, d, eps, gamma: jensen_lhs(p, gamma), {"gamma": 0.25},
                   {"gamma": _below_one}),
    "jensen_lower": (lambda p, d, eps, gamma: jensen_lower_bound(p, gamma),
                     {"gamma": 0.25}, {"gamma": _non_negative}),
    "entropy": (lambda p, d, eps: entropy_sum(p).value, {}, {}),
    "weak_theta": (lambda p, d, eps, tau: weak_tract_theta(p, tau, d), {"tau": 0.9},
                   {"tau": _in_unit_interval}),
    "poltract_ratio": (lambda p, d, eps, q, tau: poly_tract_ratio(p, q=q, tau=tau),
                       {"q": 0.0, "tau": 0.9},
                       {"q": _non_negative, "tau": _in_unit_interval}),
    "pt_log": (lambda p, d, eps, tau: pt_log_criterion(p, tau, d).value, {"tau": 0.9},
               {"tau": _in_unit_interval}),
}


def check_request(name: str, params) -> None:
    """Raise DomainError when a given (parameter, number) pair of the
    request (name, params) lies outside the range its bound accepts."""
    checks = BOUND_REQUESTS[name][2]
    for key, x in params:
        checks[key](key, float(x))


def requested_bound(name: str, params, problem: ProductProblem, d: int,
                    eps: float) -> float:
    """The value of the request (name, params) at one grid point: ``params``
    holds the given (parameter, number) pairs; the others take their
    defaults from BOUND_REQUESTS."""
    value, defaults, _checks = BOUND_REQUESTS[name]
    return value(problem, d, eps, **{**defaults, **{k: float(x) for k, x in params}})
