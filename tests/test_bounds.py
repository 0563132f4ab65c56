import math
import random

import pytest

from tractlab import bounds
from tractlab.errors import DivergenceError, DomainError
from tractlab.fixtures import uniform_block_problem
from tractlab.spectra import ExplicitSpectrum, KorobovSpectrum
from tractlab.tensor import ProductProblem, info_complexity
from tractlab.zeta import zeta


def korobov_problem(d, g=0.5, r=1.0):
    return ProductProblem(tuple(KorobovSpectrum(g, r) for _ in range(d)))


class TestChebyshev:
    def test_upper_bounds_exact_complexity(self):
        for d in (1, 2, 4):
            # r = 1.25 keeps every power sum below finite (tau_min = 0.4)
            p = korobov_problem(d, r=1.25)
            for eps in (0.7, 0.4):
                n = info_complexity(p, eps).n
                for tau in (0.7, 0.9):
                    for z in (0.5, 1.0, tau):
                        assert bounds.chebyshev_bound(p, eps, tau=tau, z=z) >= n

    def test_z_equals_tau_specialization(self):
        # at z = tau the bound collapses to
        # (S_tau / S_1^tau)^{1/(1-tau)} eps^{-2 tau/(1-tau)}
        rng = random.Random(7)
        for _ in range(50):
            d = rng.randint(1, 4)
            p = korobov_problem(d, g=rng.uniform(0.1, 1.0), r=rng.uniform(0.8, 2.5))
            tau = rng.uniform(0.6, 0.95)
            eps = rng.uniform(0.05, 0.9)
            got = bounds.chebyshev_bound(p, eps, tau=tau, z=tau)
            ratio = p.power_sum_d(tau) / p.trace_d() ** tau
            want = ratio ** (1.0 / (1.0 - tau)) * eps ** (-2.0 * tau / (1.0 - tau))
            assert got == pytest.approx(want, rel=1e-12)

    def test_parameter_validation(self):
        p = korobov_problem(1)
        with pytest.raises(DomainError):
            bounds.chebyshev_bound(p, 0.5, tau=1.0, z=1.0)
        with pytest.raises(DomainError):
            bounds.chebyshev_bound(p, 0.5, tau=0.5, z=0.0)
        with pytest.raises(DomainError):
            bounds.chebyshev_bound(p, 1.0, tau=0.5, z=1.0)

    def test_divergent_tau_raises(self):
        p = korobov_problem(2, r=0.75)  # power sums diverge at tau <= 2/3
        with pytest.raises(DivergenceError) as exc_info:
            bounds.chebyshev_bound(p, 0.5, tau=0.9, z=0.5)
        assert exc_info.value.coordinate == 1


class TestCurse:
    def test_closed_form(self):
        # g = 0.5, r = 1: trace = 1 + zeta(2), so the bound is
        # (1 - eps^2) (1 + zeta(2))^d
        for d in range(1, 31):
            p = korobov_problem(d, g=0.5, r=1.0)
            want = 0.75 * (1.0 + zeta(2.0)) ** d
            assert bounds.curse_lower_bound(p, 0.5) == pytest.approx(
                want, rel=1e-10
            )

    def test_bounds_exact_complexity_from_below(self):
        for d in (1, 2, 3, 4):
            p = korobov_problem(d)
            for eps in (0.8, 0.5, 0.3):
                n = info_complexity(p, eps).n
                assert n >= bounds.curse_lower_bound(p, eps) - 1e-9


class TestJensen:
    def test_inequality_on_random_spectra(self):
        rng = random.Random(11)
        for _ in range(100):
            d = rng.randint(1, 4)
            coords = []
            for _ in range(d):
                if rng.random() < 0.5:
                    coords.append(
                        KorobovSpectrum(rng.uniform(0.1, 1.0), rng.uniform(0.8, 3.0))
                    )
                else:
                    raw = sorted(
                        (rng.uniform(1e-4, 1.0) for _ in range(rng.randint(1, 20))),
                        reverse=True,
                    )
                    coords.append(ExplicitSpectrum(tuple(raw)))
            p = ProductProblem(tuple(coords))
            gamma = rng.uniform(0.05, 0.45)
            try:
                lhs = bounds.jensen_lhs(p, gamma)
            except DivergenceError:
                continue
            lower = bounds.jensen_lower_bound(p, gamma)
            assert math.log(lhs) - math.log(lower) >= -1e-10

    def test_gamma_zero_is_trivial(self):
        p = korobov_problem(2)
        assert bounds.jensen_lhs(p, 0.0) == 1.0
        assert bounds.jensen_lower_bound(p, 0.0) == 1.0


class TestEntropy:
    def test_sum_is_additive(self):
        p1 = korobov_problem(1)
        p3 = korobov_problem(3)
        assert bounds.entropy_sum(p3).value == pytest.approx(
            3.0 * bounds.entropy_sum(p1).value, rel=1e-12
        )

    def test_normalization_uses_ln_plus(self):
        p1 = korobov_problem(1)
        ev = bounds.entropy_sum(p1)
        assert ev.extra["normalized"] == ev.value  # ln_+ 1 = 1


class TestSeriesHeuristic:
    def test_convergent_power_series(self):
        assert bounds.series_converges(lambda k: k ** -2.0)
        assert bounds.series_converges(lambda k: k ** -1.5)

    def test_divergent_series(self):
        assert not bounds.series_converges(lambda k: 1.0 / k)
        assert not bounds.series_converges(lambda k: 1.0)

    def test_finite_support(self):
        assert bounds.series_converges(lambda k: 1.0 if k < 50 else 0.0)


class TestSptExponent:
    def test_fast_decay_reaches_small_exponent(self):
        def family(k):
            return KorobovSpectrum(min(1.0, float(k) ** -3.0), 2.0)

        ev = bounds.spt_exponent_bisect(family, k_max=20_000)
        assert ev.finite
        # analytic exponent is 2/3; the grid proxy must land near it
        assert 0.6 <= ev.value <= 1.5

    def test_constant_weights_never_converge(self):
        def family(k):
            return KorobovSpectrum(0.5, 1.0)

        ev = bounds.spt_exponent_bisect(family, k_max=20_000)
        assert not ev.finite
        assert ev.value == math.inf


class TestQptCriterion:
    def test_decaying_family_is_bounded(self):
        def family(k):
            return KorobovSpectrum(min(1.0, float(k) ** -3.0), 1.0)

        ev = bounds.qpt_criterion(family, delta=0.4, d_max=200)
        assert ev.finite
        assert ev.extra["stabilized"]
        assert ev.extra["exponent_bound"] >= 2.0 / 0.4

    def test_constant_family_grows(self):
        def family(k):
            return KorobovSpectrum(0.5, 1.0)

        small = bounds.qpt_criterion(family, delta=0.4, d_max=50)
        large = bounds.qpt_criterion(family, delta=0.4, d_max=400)
        assert large.value > small.value * 10.0

    def test_each_coordinate_is_built_once(self):
        asked = []

        def spectrum(k):
            return KorobovSpectrum(min(1.0, float(k) ** -2.0), 1.0)

        def family(k):
            asked.append(k)
            return spectrum(k)

        def log_ratio(d):
            tau = 1.0 - 0.4 / max(1.0, math.log(d))
            return math.fsum(
                math.log(spectrum(k).power_sum(tau))
                - tau * math.log(spectrum(k).trace())
                for k in range(1, d + 1)
            )

        ev = bounds.qpt_criterion(family, delta=0.4, d_max=30)
        assert asked == list(range(1, 31))
        direct = max(log_ratio(d) for d in range(1, 31))
        assert ev.value == pytest.approx(math.exp(direct), rel=1e-12)

    def test_divergence_stops_before_new_coordinates(self):
        asked = []

        def family(k):
            asked.append(k)
            # r = 0.6 from k = 3 on: 2 r tau_d <= 1 at every d <= 30
            return KorobovSpectrum(0.5, 1.0 if k < 3 else 0.6)

        ev = bounds.qpt_criterion(family, delta=0.4, d_max=30)
        assert not ev.finite
        assert ev.extra["argmax_d"] == 3
        assert asked == [1, 2, 3]


class TestQptCriterionGeneral:
    @pytest.mark.parametrize("d_max", [5, 40])
    def test_uniform_block_gives_exactly_m(self, d_max):
        # N(d) unit eigenvalues: S_tau / S_1^tau = N^(delta / ln_+ d) <= M,
        # with equality at d = 1 (N = M^(1/delta) = 4)
        ev = bounds.qpt_criterion_general(
            lambda d: uniform_block_problem(d, 2.0, 0.5), delta=0.5, d_max=d_max
        )
        assert ev.value == 2.0
        assert ev.finite and ev.d == d_max
        assert ev.extra == {"argmax_d": 1, "stabilized": True}


class TestPtLogCriterion:
    def test_linear_form_dominates_log_form(self):
        def family(k):
            return KorobovSpectrum(min(1.0, float(k) ** -2.0), 1.0)

        ev = bounds.pt_log_criterion(family, tau=0.9, d_max=500)
        assert ev.extra["linear"] >= ev.value
        assert ev.extra["sup_coordinate"] >= 1.0


class TestWeakTheta:
    def test_decaying_weights_drive_theta_to_zero(self):
        def family(k):
            return KorobovSpectrum(min(1.0, 1.0 / math.log(k + 2.0)), 1.0)

        thetas = [
            bounds.weak_tract_theta(family, tau=0.9, d=d)
            for d in (10, 100, 1000)
        ]
        assert thetas[0] > thetas[1] > thetas[2]


class TestPolyTractConstant:
    def test_matches_pointwise_ratio_supremum(self):
        def family(k):
            return KorobovSpectrum(min(1.0, float(k) ** -3.0), 1.0)

        ev = bounds.poly_tract_constant(family, q=0.0, tau=0.9, d_max=64)
        direct = max(
            bounds.poly_tract_ratio(
                ProductProblem(tuple(family(k) for k in range(1, d + 1))),
                q=0.0,
                tau=0.9,
            )
            for d in range(1, 65)
        )
        assert ev.value == pytest.approx(direct, rel=1e-10)
