import importlib
import json
import math
import random
from pathlib import Path

import pytest

from tractlab import bounds
from tractlab import spectra as spectra_mod
from tractlab.classifier import (
    KorobovFamily,
    smoothness_family_from_config,
    weight_family_from_config,
)
from tractlab.cli import main
from tractlab.errors import DivergenceError, DomainError
from tractlab.fixtures import uniform_block_problem
from tractlab.spectra import ExplicitSpectrum, KorobovSpectrum
from tractlab.tensor import ProductProblem, info_complexity
from tractlab.zeta import zeta, zeta_scope

# tractlab.zeta names the function; the module holds the scope's state
zeta_mod = importlib.import_module("tractlab.zeta")


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
            power_sum = math.prod(c.power_sum(tau) for c in p.coordinates)
            ratio = power_sum / p.trace_d() ** tau
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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_term_that_is_not_finite_shows_no_convergence(self, bad):
        assert not bounds.series_converges(lambda k: bad if k == 5 else 1.0 / k)
        assert not bounds.series_converges(lambda k: bad if k == 5 else k ** -2.0)
        assert not bounds.series_converges(lambda k: bad if k == 100 else k ** -2.0)

    def test_a_sum_past_the_largest_double_shows_no_convergence(self):
        # within the octave k = 9..16, then across the first two octaves
        assert not bounds.series_converges(lambda k: 1.0 if k <= 8 else 1e308)
        assert not bounds.series_converges(lambda k: 1.5e307)


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

    @pytest.mark.parametrize("family", [
        # r = 0.6 makes every excess power sum below tau = 1/(2r) diverge
        lambda k: KorobovSpectrum(0.5, 2.0 if k == 1 else 0.6),
        # a declared tail has no power sum below tau = 1
        lambda k: ExplicitSpectrum((1.0, 0.5), tail=0.0 if k == 1 else 0.25),
    ], ids=["korobov", "explicit_tail"])
    def test_divergent_coordinates_past_the_first_never_converge(self, family):
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

    def test_maxima_of_fsum_prefix_sums(self):
        # e_k grows with k, so the maxima come late, where a plain running
        # sum of either series has drifted off the fsum by an ulp
        family = [ExplicitSpectrum((1.0,) + (0.6,) * k) for k in range(1, 31)]
        ev = bounds.pt_log_criterion(lambda k: family[k - 1], tau=0.9, d_max=30)
        e = [s.excess_power_sum(0.9) for s in family]
        logs = [math.log1p(x) for x in e]
        ln = [max(1.0, math.log(k)) for k in range(1, 31)]
        assert ev.value == max(math.fsum(logs[:k]) / ln[k - 1]
                               for k in range(1, 31))
        assert ev.extra["linear"] == max(math.fsum(e[:k]) / ln[k - 1]
                                         for k in range(1, 31))


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


# One family per weight kind; RECORDS holds their criteria records as the
# code computed them before the per-call zeta scope and coordinate walk.
FAMILIES = {
    "power": ({"kind": "power", "rho": 2.5}, {"kind": "constant", "r0": 1.2}),
    "geometric_in_r": (
        {"kind": "geometric_in_r", "v": 0.5,
         "smoothness": {"kind": "logarithmic", "a": 0.6, "b": 1.2}},
        {"kind": "logarithmic", "a": 0.6, "b": 1.2}),
    "polynomial_in_r": (
        {"kind": "polynomial_in_r", "s": 2.0,
         "smoothness": {"kind": "power", "c": 1.0, "s": 0.2}},
        {"kind": "power", "c": 1.0, "s": 0.2}),
    "constant": ({"kind": "constant", "g0": 0.4},
                 {"kind": "explicit", "values": [0.9, 1.5, 2.0]}),
    "explicit": ({"kind": "explicit", "values": [0.8, 0.5, 0.3, 0.1]},
                 {"kind": "constant", "r0": 1.5}),
}
RECORDS = json.loads((Path(__file__).parent / "criteria_records.json").read_text())
TAUS = (0.35, 0.5, 0.65, 0.8, 0.95)


@pytest.fixture
def zeta_args(monkeypatch):
    """Every zeta and log-weighted zeta evaluation the spectra ask for."""
    args = []
    for name in ("zeta", "zeta_log_weighted"):
        fn = getattr(spectra_mod, name)
        monkeypatch.setattr(spectra_mod, name,
                            lambda s, fn=fn, name=name: args.append((name, s)) or fn(s))
    return args


class TestPerCallScope:
    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_records_are_bit_identical(self, kind):
        weights, smoothness = FAMILIES[kind]
        fam = KorobovFamily(weights=weight_family_from_config(weights),
                            smoothness=smoothness_family_from_config(smoothness))
        f = fam.spectrum
        got = {
            "qpt_criterion": bounds.qpt_criterion(f, 0.3, 20).to_record(),
            "qpt_criterion_general": bounds.qpt_criterion_general(
                fam.problem, 0.3, 12).to_record(),
            "pt_log_criterion": bounds.pt_log_criterion(f, 0.9, 50).to_record(),
            "poly_tract_constant": bounds.poly_tract_constant(
                f, 1.0, 0.9, 50).to_record(),
            "weak_tract_theta": bounds.weak_tract_theta(f, 0.9, 50),
            "spt_exponent_bisect": bounds.spt_exponent_bisect(
                f, k_max=2048, tau_grid=TAUS).to_record(),
        }
        assert got == RECORDS[kind]

    def test_spt_evaluates_each_tau_once(self, zeta_args):
        # constant r: one zeta argument per grid tau, not one per (tau, k)
        def family(k):
            return KorobovSpectrum(min(1.0, float(k) ** -3.0), 2.0)

        assert bounds.spt_exponent_bisect(family, k_max=4096, tau_grid=TAUS).finite
        assert len(zeta_args) == len(set(zeta_args)) <= len(TAUS)

    def test_weak_theta_evaluates_once_per_call(self, zeta_args):
        def family(k):
            return KorobovSpectrum(1.0 / k, 1.5)

        first = bounds.weak_tract_theta(family, 0.9, 400)
        assert zeta_args == [("zeta", 2.0 * 1.5 * 0.9)]
        # nothing survives the call: the next one evaluates again
        assert bounds.weak_tract_theta(family, 0.9, 400) == first
        assert len(zeta_args) == 2
        # a nested call shares the scope it runs in
        with zeta_scope():
            bounds.weak_tract_theta(family, 0.9, 400)
            bounds.weak_tract_theta(family, 0.9, 100)
        assert len(zeta_args) == 3

    def test_cli_bounds_share_one_scope(self, zeta_args, tmp_path, capsys):
        cfg = {
            "problem": {"kind": "korobov_family",
                        "weights": {"kind": "power", "rho": 2.0},
                        "smoothness": {"kind": "constant", "r0": 1.25}},
            "epsilons": [0.1, 0.5],
            "dims": [1, 10, 100],
            "bounds": [{"name": name} for name in (
                "chebyshev", "curse", "jensen_lhs", "jensen_lower", "entropy",
                "weak_theta", "poltract_ratio", "pt_log")],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bounds", "--config", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2 + 3 * 2 * 8
        # zeta(2r), zeta at 2r tau for tau = 0.9 and 0.75, the log-weighted
        # series at 2r: each once over all dims, epsilons and bounds
        assert len(zeta_args) == len(set(zeta_args)) == 4

    def test_no_scope_is_left_after_a_divergence(self, zeta_args):
        def family(k):
            return KorobovSpectrum(0.5, 1.0 if k < 3 else 0.6)

        with pytest.raises(DivergenceError):
            bounds.poly_tract_constant(family, q=1.0, tau=0.7, d_max=10)
        assert zeta_mod._VALUES.get() is None
        count = len(zeta_args)
        bounds.weak_tract_theta(family, 0.9, 2)
        bounds.weak_tract_theta(family, 0.9, 2)
        assert len(zeta_args) == count + 2
