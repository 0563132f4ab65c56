"""Tractability classifier for Korobov weight/smoothness families.

The decisive quantity is rho_g = liminf_k ln(1/g_k) / ln k.  A finite
prefix of the weights can never determine a liminf, so the classifier is
symbolic-first: each closed-form family kind carries its own derivation
of rho_g, the weight limit, and the quasi-polynomial criterion, and the
numeric fallback is clearly tagged "estimated" and produces "unknown"
verdicts rather than guesses.

The criteria assume weights g_k non-increasing in (0, 1] and smoothness
r_k non-decreasing above 1/2.  Each family checks that when it is built
(an explicit list value by value), so a family that exists meets the
assumptions and every command that loads it agrees on that.

Verdict semantics: "yes" / "no" are backed by a known criterion that
applies to the given family; "unknown" means the criterion's hypotheses
cannot be checked symbolically (or, for the quasi-polynomial branch,
that no known criterion decides the case either way).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from ._descriptors import (
    BOOLEAN, NUMBER, NUMBERS, OBJECT, FieldType, is_number, read, read_kind,
)
from .errors import DomainError, ValidationError
from .numutil import ln_plus
from .spectra import KorobovSpectrum
from .tensor import ProductProblem

YES = "yes"
NO = "no"
UNKNOWN = "unknown"
UNKNOWN_GAP = "unknown - open case"

# kind -> (fields, defaults) of each descriptor, read by _descriptors.read_kind
_SMOOTHNESS_FIELDS = {
    "constant": ({"r0": NUMBER}, {}),
    "logarithmic": ({"a": NUMBER, "b": NUMBER}, {}),
    "power": ({"c": NUMBER, "s": NUMBER}, {}),
    "explicit": ({"values": NUMBERS}, {}),
}
_WEIGHT_FIELDS = {
    "power": ({"rho": NUMBER}, {}),
    "geometric_in_r": ({"v": NUMBER, "smoothness": OBJECT}, {}),
    "polynomial_in_r": ({"s": NUMBER, "smoothness": OBJECT}, {}),
    "constant": ({"g0": NUMBER}, {}),
    "explicit": ({"values": NUMBERS, "asymptote": OBJECT}, {"asymptote": None}),
}
# the declared asymptotics of explicit weights; every field is optional and
# one left out stays undeclared
_ASYMPTOTE_FIELDS = {
    "rho_g": FieldType('a finite number or "inf"',
                       lambda x: x == "inf" or is_number(x)),
    "g_to_zero": BOOLEAN,
    "qpt_sum_bounded": BOOLEAN,
}


@dataclass(frozen=True)
class SmoothnessFamily:
    """r_k, non-decreasing with r_1 > 1/2.

    kinds: constant (r_k = r0), logarithmic (r_k = a ln k + b),
    power (r_k = c k^s), explicit (finite list, constant afterwards).
    """

    kind: str
    r0: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    s: Optional[float] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _SMOOTHNESS_FIELDS:
            raise DomainError(f"unknown smoothness kind {self.kind!r}")
        if self.kind == "constant" and (self.r0 is None or self.r0 <= 0.5):
            raise DomainError("constant smoothness needs r0 > 1/2")
        if self.kind == "logarithmic":
            if self.a is None or self.b is None or self.a < 0.0:
                raise DomainError("logarithmic smoothness needs a >= 0 and b")
            if self.b <= 0.5:
                raise DomainError("logarithmic smoothness needs r_1 = b > 1/2")
        if self.kind == "power":
            if self.c is None or self.s is None or self.c <= 0.5 or self.s < 0.0:
                raise DomainError("power smoothness needs c > 1/2 and s >= 0")
        if self.kind == "explicit":
            if not self.values:
                raise DomainError("explicit smoothness needs values")
            vals = tuple(float(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            for k, r in enumerate(vals, start=1):
                if not r > 0.5:
                    raise ValidationError(f"smoothness r_{k} = {r} must exceed 1/2")
                if k > 1 and r < vals[k - 2]:
                    raise ValidationError(
                        f"smoothness must be non-decreasing; "
                        f"r_{k} = {r} < r_{k-1} = {vals[k - 2]}")

    def r(self, k: int) -> float:
        if k < 1:
            raise DomainError(f"coordinate index must be >= 1, got {k}")
        if self.kind == "constant":
            return self.r0
        if self.kind == "logarithmic":
            return self.a * math.log(k) + self.b
        if self.kind == "power":
            try:
                return self.c * float(k) ** self.s
            except OverflowError:  # k^s past double range
                return math.inf
        vals = self.values
        return vals[k - 1] if k <= len(vals) else vals[-1]

    def liminf_r_over_ln_k(self) -> float:
        """liminf r_k / ln k."""
        if self.kind == "logarithmic":
            return self.a
        if self.kind == "power":
            return math.inf if self.s > 0.0 else 0.0
        return 0.0  # constant and explicit families are eventually constant

    def liminf_ln_r_over_ln_k(self) -> float:
        """liminf ln(r_k) / ln k."""
        return self.s if self.kind == "power" else 0.0


@dataclass(frozen=True)
class WeightFamily:
    """g_k, non-increasing in (0, 1].

    kinds: power (g_k = k^-rho), geometric_in_r (g_k = v^{r_k}),
    polynomial_in_r (g_k = r_k^-s), constant (g_k = g0), explicit
    (finite list, constant afterwards, with an optional declared
    asymptotic tag for the quantities a prefix cannot determine).

    The closed-form kinds are non-increasing in (0, 1] for every parameter
    they accept (g_k may still underflow to 0.0 for large k); an explicit
    list is checked value by value, and its asymptote field by field, when
    the family is built.  The r-coupled kinds carry their smoothness family
    so that g_k is a standalone function of k.
    """

    kind: str
    rho: Optional[float] = None
    v: Optional[float] = None
    s: Optional[float] = None
    g0: Optional[float] = None
    values: Optional[tuple] = None
    smoothness: Optional[SmoothnessFamily] = None
    # declared asymptotics for explicit prefixes:
    #   {"rho_g": float-or-inf, "g_to_zero": bool, "qpt_sum_bounded": bool}
    asymptote: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in _WEIGHT_FIELDS:
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if self.kind == "power" and (self.rho is None or self.rho <= 0.0):
            raise DomainError("power weights need rho > 0")
        if self.kind == "geometric_in_r":
            if self.v is None or not 0.0 < self.v < 1.0:
                raise DomainError("geometric_in_r weights need v in (0, 1)")
            if self.smoothness is None:
                raise DomainError("geometric_in_r weights need a smoothness family")
        if self.kind == "polynomial_in_r":
            if self.s is None or self.s <= 0.0:
                raise DomainError("polynomial_in_r weights need s > 0")
            if self.smoothness is None:
                raise DomainError("polynomial_in_r weights need a smoothness family")
        if self.kind == "constant" and (
            self.g0 is None or not 0.0 < self.g0 <= 1.0
        ):
            raise DomainError("constant weights need g0 in (0, 1]")
        if self.kind == "explicit":
            if not self.values:
                raise DomainError("explicit weights need values")
            vals = tuple(float(v) for v in self.values)
            object.__setattr__(self, "values", vals)
            for k, g in enumerate(vals, start=1):
                if not 0.0 < g <= 1.0:
                    raise ValidationError(f"weight g_{k} = {g} outside (0, 1]")
                if k > 1 and g > vals[k - 2]:
                    raise ValidationError(
                        f"weights must be non-increasing; "
                        f"g_{k} = {g} > g_{k-1} = {vals[k - 2]}")
        if self.asymptote is not None:
            read(self.asymptote, "asymptote", _ASYMPTOTE_FIELDS,
                 dict.fromkeys(_ASYMPTOTE_FIELDS), " of asymptote")

    def g(self, k: int) -> float:
        if k < 1:
            raise DomainError(f"coordinate index must be >= 1, got {k}")
        if self.kind == "power":
            return float(k) ** (-self.rho)
        if self.kind == "geometric_in_r":
            return self.v ** self.smoothness.r(k)
        if self.kind == "polynomial_in_r":
            # clamp at 1 while r_k < 1; monotonicity of r keeps g monotone
            return min(self.smoothness.r(k) ** (-self.s), 1.0)
        if self.kind == "constant":
            return self.g0
        vals = self.values
        return vals[k - 1] if k <= len(vals) else vals[-1]

    def g_to_zero(self) -> Optional[bool]:
        """Whether g_k -> 0; None when not symbolically known."""
        if self.kind == "power":
            return True
        if self.kind == "constant":
            return False
        if self.kind in ("geometric_in_r", "polynomial_in_r"):
            # v^{r_k} and r_k^{-s} -> 0 iff r_k -> infinity
            sm = self.smoothness
            return (sm.kind == "logarithmic" and sm.a > 0.0) or (
                sm.kind == "power" and sm.s > 0.0
            )
        return self._declared("g_to_zero")

    def qpt_sum_bounded(self) -> Optional[bool]:
        """Whether sum_{k<=d} g_k ln_+(1/g_k) = O(ln d); None if unknown.

        For the closed-form kinds the sum is O(ln d) exactly when the
        summand decays like k^-rho with rho > 1, i.e. when rho_g > 1.
        For explicit prefixes only a declared asymptote decides: a
        liminf-style rho_g says nothing about sums over sparse bursts.
        """
        if self.kind == "explicit":
            return self._declared("qpt_sum_bounded")
        return self.rho_g_symbolic()[0] > 1.0

    def rho_g_symbolic(self):
        """(rho_g, "symbolic") for the closed-form kinds and explicit
        weights with a declared rho_g, else (None, "estimated")."""
        if self.kind == "power":
            return self.rho, "symbolic"
        if self.kind == "constant":
            return 0.0, "symbolic"
        # an infinite liminf stays infinite: ln(1/v) > 0 and s > 0
        sm = self.smoothness
        if self.kind == "geometric_in_r":
            return sm.liminf_r_over_ln_k() * math.log(1.0 / self.v), "symbolic"
        if self.kind == "polynomial_in_r":
            return self.s * sm.liminf_ln_r_over_ln_k(), "symbolic"
        v = self._declared("rho_g")
        if v is None:
            return None, "estimated"
        return math.inf if v == "inf" else float(v), "symbolic"

    def _declared(self, name: str):
        """The asymptote's declared value of ``name``, or None."""
        return (self.asymptote or {}).get(name)


def rho_g(weights: WeightFamily, horizon: int = 10_000):
    """rho_g = liminf_k ln(1/g_k)/ln k with a mode tag.

    Symbolic for closed-form kinds; otherwise the numeric estimate
    min over k in [horizon/2, horizon] of ln(1/g_k)/ln k.
    """
    value, mode = weights.rho_g_symbolic()
    if mode == "symbolic":
        return value, mode
    if horizon < 10:
        raise DomainError(f"estimation horizon must be >= 10, got {horizon}")
    lo = max(horizon // 2, 2)
    est = min(
        math.log(1.0 / weights.g(k)) / math.log(k)
        for k in range(lo, horizon + 1)
    )
    return est, "estimated"


def qpt_condition_value(weights: WeightFamily, d: int) -> float:
    """(1/ln_+ d) * sum_{k<=d} g_k ln_+(1/g_k)."""
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    terms = []
    for k in range(1, d + 1):
        g = weights.g(k)
        if g == 0.0:
            continue  # an underflowed weight adds its limit, 0
        inv = 1.0 / g
        # 1/g overflows for g below 1/DBL_MAX, where ln_+(1/g) = -ln g
        terms.append(g * ln_plus(inv) if inv < math.inf else -g * math.log(g))
    return math.fsum(terms) / ln_plus(float(d))


@dataclass(frozen=True)
class TractabilityReport:
    """Classifier verdicts with the quantities that justify them."""

    spt: str
    pt: str
    qpt: str
    wt: str
    curse: str
    exponent: Optional[float]
    rho_g: Optional[float]
    rho_g_mode: str
    diagnostics: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


def classify(
    weights: WeightFamily,
    smoothness: SmoothnessFamily,
    horizon: int = 10_000,
) -> TractabilityReport:
    """Full tractability classification of a Korobov family.

    Polynomial and strong polynomial tractability coincide and hold
    exactly when rho_g > 1, with exponent max(2/(2 r_1 - 1),
    2/(rho_g - 1)).  For the quasi-polynomial branch the weight-sum
    condition is necessary, and sufficient together with
    liminf r_k/ln k > 0; when the weight-sum condition holds but the
    smoothness one fails, the answer is genuinely open and reported so.
    Weak tractability holds exactly when g_k -> 0.
    """
    rho, mode = rho_g(weights, horizon)
    diagnostics = {
        "qpt_condition_values": {
            d: qpt_condition_value(weights, d) for d in (10, 100, 1000)
        },
        "r1": smoothness.r(1),
        "g1": weights.g(1),
    }

    if mode == "symbolic":
        pt = YES if rho > 1.0 else NO
    else:
        pt = UNKNOWN
        diagnostics["rho_g_estimate"] = rho
    spt = pt

    exponent = None
    if spt == YES:
        r1 = smoothness.r(1)
        second = 0.0 if math.isinf(rho) else 2.0 / (rho - 1.0)
        exponent = max(2.0 / (2.0 * r1 - 1.0), second)

    to_zero = weights.g_to_zero()
    if to_zero is None:
        wt = UNKNOWN
        curse = UNKNOWN
    else:
        wt = YES if to_zero else NO
        curse = NO if to_zero else YES
        if not to_zero:
            diagnostics["g_lim"] = weights.g(10 ** 6)

    if spt == YES:
        qpt = YES
    else:
        sum_bounded = weights.qpt_sum_bounded()
        needed = smoothness.liminf_r_over_ln_k()
        if sum_bounded is False:
            qpt = NO  # the weight-sum condition is necessary
        elif sum_bounded is None:
            qpt = UNKNOWN
        elif needed > 0.0:
            qpt = YES
        else:
            # weight condition holds, smoothness condition fails: whether
            # the smoothness condition is required is an open question
            qpt = UNKNOWN_GAP
        diagnostics["qpt_sum_bounded"] = sum_bounded
        diagnostics["liminf_r_over_ln_k"] = needed

    return TractabilityReport(
        spt=spt, pt=pt, qpt=qpt, wt=wt, curse=curse,
        exponent=exponent, rho_g=rho, rho_g_mode=mode,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class KorobovFamily:
    """A weight/smoothness pair viewed as a coordinate family."""

    weights: WeightFamily
    smoothness: SmoothnessFamily

    def spectrum(self, k: int) -> KorobovSpectrum:
        g = self.weights.g(k)
        if g == 0.0:  # a valid weight in (0, 1] that double range cannot hold
            raise DomainError(f"coordinate k={k}: weight g_k underflows to 0.0")
        try:
            return KorobovSpectrum(g=g, r=self.smoothness.r(k))
        except DomainError as exc:  # a valid r_k, but 2 r_k past double range
            raise DomainError(f"coordinate k={k}: {exc}") from None

    def problem(self, d: int) -> ProductProblem:
        return ProductProblem(
            tuple(self.spectrum(k) for k in range(1, d + 1))
        )

    def classify(self, horizon: int = 10_000) -> TractabilityReport:
        return classify(self.weights, self.smoothness, horizon)


def weight_family_from_config(desc: dict) -> WeightFamily:
    kind, fields = read_kind(desc, "weights", _WEIGHT_FIELDS)
    if "smoothness" in fields:
        fields["smoothness"] = smoothness_family_from_config(fields["smoothness"])
    return WeightFamily(kind=kind, **fields)


def smoothness_family_from_config(desc: dict) -> SmoothnessFamily:
    kind, fields = read_kind(desc, "smoothness", _SMOOTHNESS_FIELDS)
    return SmoothnessFamily(kind=kind, **fields)
