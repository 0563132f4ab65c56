"""Self-verification suite: named inequality and equality checks.

Each check runs against fixed fixtures plus a seeded random batch, and
reports PASS/FAIL with a short detail string.  For a given seed the
rendered report is byte-identical across runs; floats are formatted with
repr (shortest round-trip form) and the check order is fixed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from . import bounds
from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
)
from .fixtures import (
    tower_problem,
    uniform_block_complexity,
    uniform_block_problem,
)
from .spectra import ExplicitSpectrum, KorobovSpectrum
from .tensor import (
    Budget,
    ProductProblem,
    _BruteForceOracle,
    info_complexity,
    top_eigenvalues,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def random_instance(rng: random.Random, d_max: int = 3) -> ProductProblem:
    """A small random product problem for oracle-equivalence batches.

    Each coordinate is either a Korobov spectrum with weight in [0.1, 1]
    and smoothness in [0.6, 3], or an explicit non-increasing list of at
    most 30 eigenvalues.
    """
    d = rng.randint(1, d_max)
    coords = []
    for _ in range(d):
        if rng.random() < 0.5:
            coords.append(
                KorobovSpectrum(
                    g=rng.uniform(0.1, 1.0), r=rng.uniform(0.6, 3.0)
                )
            )
        else:
            m = rng.randint(1, 30)
            vals = sorted(
                (rng.uniform(1e-6, 1.0) for _ in range(m)), reverse=True
            )
            coords.append(ExplicitSpectrum(tuple(vals)))
    return ProductProblem(tuple(coords))


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_uniform_block(rng: random.Random) -> CheckResult:
    worst = ""
    for d in range(1, 31):
        p = uniform_block_problem(d)
        for eps in (0.1, 0.5, 0.9):
            got = info_complexity(p, eps)
            want = uniform_block_complexity(eps, d)
            if not got.certified or got.n != want:
                worst = f"d={d} eps={_fmt(eps)}: got {got.n}, want {want}"
                return CheckResult("uniform_block_exact", False, worst)
    return CheckResult(
        "uniform_block_exact", True, "90/90 grid points match the closed form"
    )


def _check_tower_cap(rng: random.Random) -> CheckResult:
    for d in (4, 16, 64, 256):
        p = tower_problem(d)
        for eps in (0.1, 0.5, 0.9):
            got = info_complexity(p, eps)
            if not got.certified or got.n > d * d:
                return CheckResult(
                    "tower_ordering_cap",
                    False,
                    f"d={d} eps={_fmt(eps)}: n={got.n} exceeds d^2={d * d}",
                )
    return CheckResult(
        "tower_ordering_cap", True, "n <= d^2 at d in {4, 16, 64, 256}"
    )


def _check_oracle_batch(rng: random.Random, instances: int) -> CheckResult:
    """Engine against the brute-force oracle on a seeded random batch.

    Points whose answer exceeds the default n budget are counted apart:
    each must report a proved lower bound of at least that budget, and
    at least 95% of the other points must certify.
    """
    mismatches = 0
    certified = 0
    compared = 0
    total = 0
    over = []  # proved lower bounds of points over the n budget
    for _ in range(instances):
        p = random_instance(rng)
        # the engine runs first, so that no oracle grid is alive beside it
        fast = {}
        for eps in (0.9, 0.5, 0.1):
            total += 1
            try:
                fast[eps] = info_complexity(p, eps)
            except BudgetExceededError as exc:
                over.append(exc.n_lower)
        certified += sum(res.certified for res in fast.values())
        oracle = _BruteForceOracle(p)  # one per instance: its grid serves every eps
        for eps, res in fast.items():
            try:
                slow = oracle(eps)
            except (BudgetExceededError, GridSizeError):
                continue
            if res.certified and slow.certified:
                compared += 1
                mismatches += res.n != slow.n
        del oracle  # release the grid before the next instance's engine calls
    ok = (
        mismatches == 0
        and certified >= 0.95 * (total - len(over))
        and all(n >= Budget().n_max for n in over)
    )
    over_detail = f", {len(over)} over the n budget" if over else ""
    detail = (
        f"{certified}/{total} points certified{over_detail}, {compared} oracle "
        f"comparisons, {mismatches} disagreements"
    )
    return CheckResult("oracle_equivalence", ok, detail)


def _check_bound_sandwich(rng: random.Random, instances: int) -> CheckResult:
    violations = 0
    checked = 0
    for _ in range(instances):
        p = random_instance(rng)
        eps = rng.choice((0.9, 0.5, 0.25))
        try:
            res = info_complexity(p, eps)
        except BudgetExceededError:
            continue
        if not res.certified:
            continue
        lower = bounds.curse_lower_bound(p, eps)
        if res.n < lower - 1e-9 * max(lower, 1.0):
            violations += 1
        for tau in (0.7, 0.9):
            for z in (0.5, 1.0, tau):
                try:
                    upper = bounds.chebyshev_bound(p, eps, tau=tau, z=z)
                except (DomainError, DivergenceError):
                    continue
                checked += 1
                if res.n > upper * (1.0 + 1e-12):
                    violations += 1
    return CheckResult(
        "bound_sandwich",
        violations == 0,
        f"{checked} upper bounds checked, {violations} violations",
    )


def _check_jensen(rng: random.Random, instances: int) -> CheckResult:
    worst = math.inf
    for _ in range(instances):
        p = random_instance(rng)
        gamma = rng.uniform(0.05, 0.45)
        try:
            lhs = bounds.jensen_lhs(p, gamma)
        except (DomainError, DivergenceError):
            continue
        lower = bounds.jensen_lower_bound(p, gamma)
        if lhs <= 0.0 or lower <= 0.0:
            continue
        slack = math.log(lhs) - math.log(lower)
        worst = min(worst, slack)
    ok = worst >= -1e-10
    return CheckResult(
        "jensen_inequality", ok, f"minimum log-domain slack {_fmt(worst)}"
    )


def _check_entropy_identity(rng: random.Random) -> CheckResult:
    """Closed-form entropy lies inside a direct-sum + tail-integral bracket."""
    import numpy as np

    for g, r in ((0.5, 1.0), (0.9, 0.65), (0.2, 2.5)):
        spec = KorobovSpectrum(g, r)
        lam_sum = spec.trace()
        cap = 400_000
        m = np.arange(1, cap + 1, dtype=np.float64)
        lam = g * m ** (-2.0 * r)
        direct = math.log(lam_sum) / lam_sum + 2.0 * float(
            np.sum((lam / lam_sum) * np.log(lam_sum / lam))
        )

        def tail(x0: float) -> float:
            # integral of (2g/L) * x^(-2r) * (ln(L/g) + 2r ln x) from x0
            a = math.log(lam_sum / g)
            s = 2.0 * r - 1.0
            return (2.0 * g / lam_sum) * x0 ** (-s) * (
                a / s + 2.0 * r * math.log(x0) / s + 2.0 * r / (s * s)
            )

        h = spec.entropy()
        slack = 1e-9 * max(h, 1.0)
        if not direct + tail(cap + 1) - slack <= h <= direct + tail(cap) + slack:
            return CheckResult(
                "entropy_identity",
                False,
                f"g={_fmt(g)} r={_fmt(r)}: closed form {_fmt(h)} outside "
                f"[{_fmt(direct + tail(cap + 1))}, {_fmt(direct + tail(cap))}]",
            )
    return CheckResult(
        "entropy_identity",
        True,
        "closed form inside the direct-sum bracket for 3 spectra",
    )


def _check_enumeration_order(rng: random.Random) -> CheckResult:
    p = ProductProblem(
        (
            ExplicitSpectrum((1.0, 0.7, 0.3)),
            ExplicitSpectrum((1.0, 0.6, 0.6, 0.15, 0.15, 0.05)),
            ExplicitSpectrum((2.0, 1.1, 0.4, 0.1)),
        )
    )
    stream = list(top_eigenvalues(p, 200))
    vals = [v for _, v in stream]
    monotone = all(a >= b - 1e-15 * a for a, b in zip(vals, vals[1:]))
    unique = len({z for z, _ in stream}) == len(stream)
    # Brute multiset of the same truncated grid, sorted descending.
    views = [c.truncate(1e-9) for c in p.coordinates]
    grid = [1.0]
    for c, view in zip(p.coordinates, views):
        grid = [
            a * c.eigenvalue(j)
            for a in grid
            for j in range(1, view.length + 1)
        ]
    grid.sort(reverse=True)
    match = len(vals) == len(grid) and all(
        math.isclose(a, b, rel_tol=1e-12) for a, b in zip(vals, grid)
    )
    ok = monotone and unique and match
    return CheckResult(
        "enumeration_order",
        ok,
        f"first {len(vals)} streamed values sorted and match the brute grid",
    )


def _check_normalization(rng: random.Random, instances: int) -> CheckResult:
    for _ in range(instances):
        p = random_instance(rng)
        eps = rng.choice((0.9, 0.5, 0.2))
        scale = rng.uniform(0.25, 4.0)
        scaled = ProductProblem(
            tuple(
                ExplicitSpectrum(
                    tuple(scale * v for v in c.values), tail=scale * c.tail
                )
                if isinstance(c, ExplicitSpectrum)
                else c
                for c in p.coordinates
            )
        )
        try:
            a = info_complexity(p, eps)
            b = info_complexity(scaled, eps)
        except BudgetExceededError:
            continue
        if a.certified and b.certified and a.n != b.n:
            return CheckResult(
                "normalization_invariance",
                False,
                f"n changed under rescaling: {a.n} vs {b.n}",
            )
    return CheckResult(
        "normalization_invariance",
        True,
        f"{instances} rescaled instances agree with the originals",
    )


def _check_broken_spectrum(rng: random.Random) -> CheckResult:
    try:
        ExplicitSpectrum((0.5, 1.0, 0.25))
    except DomainError:
        return CheckResult(
            "broken_spectrum_rejected",
            True,
            "non-monotone eigenvalue list raises a domain error",
        )
    return CheckResult(
        "broken_spectrum_rejected",
        False,
        "non-monotone eigenvalue list was accepted",
    )


def run_verify(
    seed: int,
    instances: int = 50,
    timed: Optional[Callable[[CheckResult, float], None]] = None,
) -> List[CheckResult]:
    """Run every check with one seeded generator; order is fixed.
    ``timed``, when given, is called with each result and the seconds its
    check took, as soon as the check ends."""
    if instances < 1:
        raise DomainError(f"verify needs at least 1 instance, got {instances}")
    rng = random.Random(seed)
    checks = (
        lambda: _check_uniform_block(rng),
        lambda: _check_tower_cap(rng),
        lambda: _check_oracle_batch(rng, instances),
        lambda: _check_bound_sandwich(rng, max(instances // 2, 10)),
        lambda: _check_jensen(rng, 100),
        lambda: _check_entropy_identity(rng),
        lambda: _check_enumeration_order(rng),
        lambda: _check_normalization(rng, max(instances // 5, 5)),
        lambda: _check_broken_spectrum(rng),
    )
    results = []
    for check in checks:
        start = time.perf_counter()
        results.append(check())
        if timed is not None:
            timed(results[-1], time.perf_counter() - start)
    return results


def render_report(results: List[CheckResult], seed: int) -> str:
    lines = [f"verification report (seed={seed})"]
    lines.extend(r.render() for r in results)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
