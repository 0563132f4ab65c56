"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package: closed-form
fixture exactness, oracle equivalence of the two complexity engines,
bound sandwiches, asymptotic behaviour of reference families, the
classifier truth table, and deterministic self-verification.
"""

import math
import random
import time

import numpy as np
import pytest

from tractlab import bounds, cli, verify
from tractlab.classifier import (
    NO,
    YES,
    SmoothnessFamily,
    WeightFamily,
    classify,
)
from tractlab.errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
)
from tractlab.fixtures import (
    tower_complexity_cap,
    tower_problem,
    tower_spectrum,
    uniform_block_complexity,
    uniform_block_problem,
)
from tractlab.spectra import KorobovSpectrum
from tractlab.tensor import (
    Budget,
    ProductProblem,
    brute_force_complexity,
    info_complexity,
)
from tractlab.zeta import zeta

R_CONST = SmoothnessFamily(kind="constant", r0=1.0)


@pytest.fixture(scope="module")
def oracle_batch():
    """200 seeded random instances evaluated by the main engine.

    Shared by the oracle-equivalence and bound-sandwich tests so the
    expensive part runs once.
    """
    rng = random.Random(0)
    points = []  # (problem, eps, result or None)
    for _ in range(200):
        p = verify.random_instance(rng)
        for eps in (0.9, 0.5, 0.1):
            try:
                res = info_complexity(p, eps)
            except BudgetExceededError:
                res = None
            points.append((p, eps, res))
    return points


class TestUniformBlockExactness:
    def test_engine_matches_closed_form(self):
        start = time.monotonic()
        for d in range(1, 101):
            p = uniform_block_problem(d)
            for eps in (0.1, 0.5, 0.9):
                want = uniform_block_complexity(eps, d)
                res = info_complexity(p, eps)
                assert res.certified
                assert res.n == want, (d, eps)
        assert time.monotonic() - start < 5.0


class TestInterleavedOrderingFixture:
    def test_complexity_quadratic_but_linear_criterion_unbounded(self):
        start = time.monotonic()
        for d in (1, 2, 3, 4, 8, 16, 64, 128, 256):
            p = tower_problem(d)
            cap = tower_complexity_cap(d)
            assert cap <= d * d
            for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                res = info_complexity(p, eps)
                assert res.certified
                assert res.n <= d * d, (d, eps)
        # the per-coordinate linear sum criterion keeps growing even
        # though the exact complexity stays quadratic in d; sample at
        # horizons that each pick up a new active coordinate
        linear = [
            bounds.pt_log_criterion(tower_spectrum, tau=0.9, d_max=d).extra[
                "linear"
            ]
            for d in (16, 256, 65536)
        ]
        assert linear[0] < linear[1] < linear[2]
        assert linear[2] > 100.0 * linear[0]
        assert time.monotonic() - start < 10.0


class TestOracleEquivalence:
    def test_engines_agree_and_mostly_certify(self, oracle_batch):
        start = time.monotonic()
        total = len(oracle_batch)
        certified = 0
        compared = 0
        mismatches = 0
        for p, eps, fast in oracle_batch:
            if fast is None:
                continue
            if fast.certified:
                certified += 1
            try:
                slow = brute_force_complexity(p, eps)
            except (BudgetExceededError, GridSizeError):
                continue
            if fast.certified and slow.certified:
                compared += 1
                if fast.n != slow.n:
                    mismatches += 1
        assert mismatches == 0
        assert certified >= 0.95 * total, (certified, total)
        assert compared >= 100  # the agreement claim is not vacuous
        assert time.monotonic() - start < 60.0


class TestBoundSandwich:
    def test_lower_and_upper_bounds_on_oracle_batch(self, oracle_batch):
        violations = 0
        checked = 0
        for p, eps, res in oracle_batch:
            if res is None or not res.certified:
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
        assert violations == 0
        assert checked >= 500

    def test_jensen_inequality_on_random_spectra(self):
        rng = random.Random(11)
        for _ in range(100):
            p = verify.random_instance(rng)
            gamma = rng.uniform(0.05, 0.45)
            try:
                lhs = bounds.jensen_lhs(p, gamma)
            except (DomainError, DivergenceError):
                continue
            lower = bounds.jensen_lower_bound(p, gamma)
            slack = math.log(lhs) - math.log(lower)
            assert slack >= -1e-10


class TestStrongPolynomialFamily:
    """Non-homogeneous product with g_k = k^-3 and r_k = 1.

    Its strong-tractability exponent is 2, so the exact complexity must
    flatten out in d and scale like a power of 1/eps^2 with exponent
    close to 1 (preasymptotic log factors push the fitted slope above 1
    but it must stay well below the next integer regime).
    """

    @staticmethod
    def _problem(d):
        return ProductProblem(
            tuple(
                KorobovSpectrum(min(1.0, float(k) ** -3.0), 1.0)
                for k in range(1, d + 1)
            )
        )

    def test_complexity_stabilizes_in_dimension(self):
        start = time.monotonic()
        ns = {}
        for d in range(10, 41):
            res = info_complexity(self._problem(d), 0.5)
            assert res.certified
            ns[d] = res.n
        window = [ns[d] for d in range(20, 41)]
        assert max(window) / min(window) <= 1.05
        assert time.monotonic() - start < 300.0

    def test_epsilon_slope_matches_exponent_regime(self):
        start = time.monotonic()
        p = self._problem(20)
        eps_grid = np.geomspace(0.05, 0.5, 8)
        xs, ys = [], []
        for eps in eps_grid:
            res = info_complexity(p, float(eps), budget=Budget(n_max=10**8))
            assert res.certified
            xs.append(math.log(1.0 / eps**2))
            ys.append(math.log(res.n))
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert 0.0 < slope <= 2.75, slope
        assert time.monotonic() - start < 300.0


class TestCurseFamily:
    """Homogeneous product with g = 0.5, r = 1: exponential growth in d."""

    @staticmethod
    def _problem(d):
        return ProductProblem(tuple(KorobovSpectrum(0.5, 1.0) for _ in range(d)))

    def test_lower_bound_closed_form(self):
        for d in range(1, 31):
            want = 0.75 * (1.0 + zeta(2.0)) ** d
            got = bounds.curse_lower_bound(self._problem(d), 0.5)
            assert got == pytest.approx(want, rel=1e-10)

    def test_exact_complexity_exceeds_bound_and_grows(self):
        start = time.monotonic()
        budget = Budget(n_max=10**8)
        prev = 0
        for d in range(1, 9):
            p = self._problem(d)
            res = info_complexity(p, 0.5, budget=budget)
            assert res.certified
            assert res.n > bounds.curse_lower_bound(p, 0.5)
            assert res.n > prev
            prev = res.n
        assert time.monotonic() - start < 120.0


class TestClassifierTruthTable:
    def test_six_reference_families(self):
        # decaying power weights: strongly tractable with exponent 2
        rep = classify(WeightFamily(kind="power", rho=3.0), R_CONST)
        assert (rep.spt, rep.pt, rep.qpt, rep.wt, rep.curse) == (
            YES, YES, YES, YES, NO,
        )
        assert rep.exponent == pytest.approx(2.0, abs=1e-12)

        # slowly decaying power weights: weak tractability only
        rep = classify(WeightFamily(kind="power", rho=0.5), R_CONST)
        assert (rep.spt, rep.pt, rep.qpt, rep.wt) == (NO, NO, NO, YES)
        assert rep.curse == NO

        # geometric decay in growing smoothness, fast regime
        sm = SmoothnessFamily(kind="logarithmic", a=2.0, b=1.0)
        rep = classify(
            WeightFamily(kind="geometric_in_r", v=1.0 / 9.0, smoothness=sm), sm
        )
        assert rep.spt == YES
        want = max(2.0, 2.0 / (2.0 * math.log(9.0) - 1.0))
        assert rep.exponent == pytest.approx(want, abs=1e-12)

        # geometric decay, slow regime: no polynomial tractability
        sm = SmoothnessFamily(kind="logarithmic", a=0.3, b=1.0)
        rep = classify(
            WeightFamily(kind="geometric_in_r", v=0.5, smoothness=sm), sm
        )
        assert (rep.spt, rep.pt, rep.qpt, rep.wt) == (NO, NO, NO, YES)

        # polynomial decay in polynomially growing smoothness
        sm = SmoothnessFamily(kind="power", c=1.0, s=1.0)
        rep = classify(
            WeightFamily(kind="polynomial_in_r", s=2.0, smoothness=sm), sm
        )
        assert rep.spt == YES
        assert rep.rho_g == 2.0
        assert rep.exponent == pytest.approx(2.0, abs=1e-12)

        # constant weights: the curse
        rep = classify(WeightFamily(kind="constant", g0=0.5), R_CONST)
        assert (rep.spt, rep.pt, rep.qpt, rep.wt) == (NO, NO, NO, NO)
        assert rep.curse == YES

    @pytest.mark.parametrize("weights, b", [
        ({"kind": "geometric_in_r", "v": 0.5}, 1.0),
        ({"kind": "polynomial_in_r", "s": 1.0}, 2.0),
    ])
    def test_r_coupled_weights_on_flat_log_smoothness(self, weights, b):
        # a = 0 makes r_k = b constant, so g_k = 0.5 for every k: the curse
        sm = SmoothnessFamily(kind="logarithmic", a=0.0, b=b)
        w = WeightFamily(smoothness=sm, **weights)
        assert w.g(1) == w.g(10 ** 6) == 0.5
        rep = classify(w, sm)
        assert (rep.spt, rep.pt, rep.qpt, rep.wt) == (NO, NO, NO, NO)
        assert rep.curse == YES


class TestChebyshevSpecialization:
    def test_z_equals_tau_collapses_to_power_sum_form(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.randint(1, 4)
            p = ProductProblem(
                tuple(
                    KorobovSpectrum(rng.uniform(0.1, 1.0), rng.uniform(0.8, 2.5))
                    for _ in range(d)
                )
            )
            tau = rng.uniform(0.6, 0.95)
            eps = rng.uniform(0.05, 0.9)
            got = bounds.chebyshev_bound(p, eps, tau=tau, z=tau)
            power_sum = math.prod(c.power_sum(tau) for c in p.coordinates)
            ratio = power_sum / p.trace_d() ** tau
            want = ratio ** (1.0 / (1.0 - tau)) * eps ** (
                -2.0 * tau / (1.0 - tau)
            )
            assert got == pytest.approx(want, rel=1e-12)


class TestVerifyDeterminism:
    def test_same_seed_gives_byte_identical_report(self, tmp_path):
        out1 = tmp_path / "report1.txt"
        out2 = tmp_path / "report2.txt"
        for out in (out1, out2):
            code = cli.main(
                ["verify", "--seed", "424242", "--instances", "12",
                 "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != b""
