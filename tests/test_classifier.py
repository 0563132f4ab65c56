import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.classifier import (
    NO,
    UNKNOWN,
    UNKNOWN_GAP,
    YES,
    KorobovFamily,
    SmoothnessFamily,
    TractabilityReport,
    WeightFamily,
    classify,
    qpt_condition_value,
    rho_g,
    smoothness_family_from_config,
    weight_family_from_config,
)
from tractlab.errors import DomainError, ValidationError

R_CONST = SmoothnessFamily(kind="constant", r0=1.0)

_ORDER = {YES: 3, UNKNOWN_GAP: 2, UNKNOWN: 2, NO: 1}


def assert_verdict_chain(report: TractabilityReport):
    # SPT => PT => QPT => WT, monotone in verdict strength, and a curse
    # excludes weak tractability
    chain = [report.spt, report.pt, report.qpt, report.wt]
    ranks = [_ORDER[v] for v in chain]
    assert all(a <= b for a, b in zip(ranks, ranks[1:])), chain
    if report.curse == YES:
        assert report.wt == NO


class TestRhoG:
    def test_power_weights_symbolic(self):
        value, mode = rho_g(WeightFamily(kind="power", rho=3.0))
        assert (value, mode) == (3.0, "symbolic")

    def test_constant_weights_symbolic_zero(self):
        value, mode = rho_g(WeightFamily(kind="constant", g0=0.5))
        assert (value, mode) == (0.0, "symbolic")

    def test_geometric_with_log_smoothness(self):
        sm = SmoothnessFamily(kind="logarithmic", a=2.0, b=1.0)
        w = WeightFamily(kind="geometric_in_r", v=1.0 / 9.0, smoothness=sm)
        value, mode = rho_g(w)
        assert mode == "symbolic"
        assert value == pytest.approx(2.0 * math.log(9.0), rel=1e-14)

    def test_polynomial_in_r_with_power_smoothness(self):
        sm = SmoothnessFamily(kind="power", c=1.0, s=2.0)
        w = WeightFamily(kind="polynomial_in_r", s=1.5, smoothness=sm)
        value, mode = rho_g(w)
        assert (value, mode) == (3.0, "symbolic")

    def test_explicit_weights_are_estimated(self):
        w = WeightFamily(kind="explicit", values=(0.5, 0.25, 0.1))
        value, mode = rho_g(w, horizon=100)
        assert mode == "estimated"
        assert value >= 0.0


class TestClassifyFixtures:
    """The six reference families and their mandated verdicts."""

    def test_power_rho_3_is_strongly_tractable(self):
        report = classify(WeightFamily(kind="power", rho=3.0), R_CONST)
        assert (report.spt, report.pt, report.qpt, report.wt) == (
            YES, YES, YES, YES,
        )
        assert report.curse == NO
        assert report.exponent == pytest.approx(2.0, abs=1e-12)
        assert_verdict_chain(report)

    def test_power_rho_half_is_weakly_tractable_only(self):
        report = classify(WeightFamily(kind="power", rho=0.5), R_CONST)
        assert (report.spt, report.pt, report.qpt) == (NO, NO, NO)
        assert report.wt == YES
        assert report.curse == NO
        assert report.exponent is None
        assert_verdict_chain(report)

    def test_geometric_fast_decay_is_strongly_tractable(self):
        sm = SmoothnessFamily(kind="logarithmic", a=2.0, b=1.0)
        w = WeightFamily(kind="geometric_in_r", v=1.0 / 9.0, smoothness=sm)
        report = classify(w, sm)
        assert report.spt == YES
        want = max(2.0 / (2.0 * 1.0 - 1.0), 2.0 / (2.0 * math.log(9.0) - 1.0))
        assert report.exponent == pytest.approx(want, abs=1e-12)
        assert_verdict_chain(report)

    def test_geometric_slow_decay_is_not_polynomially_tractable(self):
        # a * ln(1/v) = 0.3 * ln 2 < 1
        sm = SmoothnessFamily(kind="logarithmic", a=0.3, b=1.0)
        w = WeightFamily(kind="geometric_in_r", v=0.5, smoothness=sm)
        report = classify(w, sm)
        assert report.spt == NO and report.pt == NO
        assert report.qpt == NO
        assert report.wt == YES
        assert_verdict_chain(report)

    def test_polynomial_in_r_fast_growth_is_strongly_tractable(self):
        # r_k = k, g_k = k^-2: rho_g = s * rho_r = 2 > 1
        sm = SmoothnessFamily(kind="power", c=1.0, s=1.0)
        w = WeightFamily(kind="polynomial_in_r", s=2.0, smoothness=sm)
        report = classify(w, sm)
        assert report.spt == YES
        assert report.rho_g == 2.0
        # r_1 = 1, rho_g = 2: p = max(2, 2) = 2
        assert report.exponent == pytest.approx(2.0, abs=1e-12)
        assert_verdict_chain(report)

    def test_constant_weights_suffer_the_curse(self):
        report = classify(WeightFamily(kind="constant", g0=0.5), R_CONST)
        assert (report.spt, report.pt, report.qpt, report.wt) == (
            NO, NO, NO, NO,
        )
        assert report.curse == YES
        assert_verdict_chain(report)


class TestQptBranches:
    def test_open_case_is_reported_not_guessed(self):
        # declared bounded weight sum but constant smoothness: the
        # sufficient condition fails while the necessary one holds
        w = WeightFamily(
            kind="explicit",
            values=(0.5, 0.25),
            asymptote={"rho_g": 2.0, "g_to_zero": True, "qpt_sum_bounded": True},
        )
        # rho_g = 2 would give SPT; force the non-SPT path with rho_g <= 1
        w_open = WeightFamily(
            kind="explicit",
            values=(0.5, 0.25),
            asymptote={"rho_g": 0.9, "g_to_zero": True, "qpt_sum_bounded": True},
        )
        report = classify(w_open, R_CONST)
        assert report.qpt == UNKNOWN_GAP
        report2 = classify(w, R_CONST)
        assert report2.qpt == YES

    def test_undeclared_explicit_weights_stay_unknown(self):
        w = WeightFamily(kind="explicit", values=(0.5, 0.25))
        report = classify(w, R_CONST)
        assert report.spt == UNKNOWN
        assert report.qpt == UNKNOWN
        assert report.wt == UNKNOWN

    def test_qpt_condition_value_constant_weights(self):
        w = WeightFamily(kind="constant", g0=1.0)
        # ln_+(1/1) = 1, so the sum is d and the value d / ln_+ d
        assert qpt_condition_value(w, 1) == pytest.approx(1.0)
        assert qpt_condition_value(w, 100) == pytest.approx(
            100.0 / math.log(100.0), rel=1e-12
        )


class TestValidation:
    """A family checks the paper's assumptions when it is built."""

    def test_increasing_weights_rejected(self):
        with pytest.raises(ValidationError, match=r"g_2 = 0.5 > g_1 = 0.25"):
            WeightFamily(kind="explicit", values=(0.25, 0.5))

    def test_small_smoothness_rejected(self):
        with pytest.raises(ValidationError, match=r"r_2 = 0.4 must exceed 1/2"):
            SmoothnessFamily(kind="explicit", values=(0.6, 0.4))

    def test_decreasing_smoothness_rejected(self):
        with pytest.raises(ValidationError, match=r"r_3 = 0.9 < r_2 = 1.0"):
            SmoothnessFamily(kind="explicit", values=(0.8, 1.0, 0.9))

    @pytest.mark.parametrize("asymptote", [
        {"rho_g": "abc"}, {"rho_g": True}, {"g_to_zero": "no"},
        {"qpt_sum_bounded": 1}, {"rho_g": 2.0, "oops": True}, [],
    ])
    def test_asymptote_fields_are_typed(self, asymptote):
        with pytest.raises(DomainError):
            WeightFamily(kind="explicit", values=(0.5,), asymptote=asymptote)

    def test_undeclared_asymptote_fields_stay_unknown(self):
        w = WeightFamily(kind="explicit", values=(0.5,),
                         asymptote={"rho_g": "inf"})
        assert w.rho_g_symbolic() == (math.inf, "symbolic")
        assert w.g_to_zero() is None and w.qpt_sum_bounded() is None

    def test_constructor_guards(self):
        with pytest.raises(DomainError):
            WeightFamily(kind="power", rho=0.0)
        with pytest.raises(DomainError):
            WeightFamily(kind="geometric_in_r", v=1.5, smoothness=R_CONST)
        with pytest.raises(DomainError):
            SmoothnessFamily(kind="constant", r0=0.5)


class TestFastDecay:
    """Weights that underflow to 0.0 are valid and the fastest to decay."""

    def test_geometric_weights_on_linear_smoothness(self):
        # g_k = 10^-k, r_k = k: rho_g is infinite, and g_k = 0.0 from k = 324
        sm = SmoothnessFamily(kind="power", c=1.0, s=1.0)
        w = WeightFamily(kind="geometric_in_r", v=0.1, smoothness=sm)
        assert w.g(324) == 0.0 and 0.0 < w.g(323) < 1e-300
        report = classify(w, sm)
        assert (report.spt, report.pt, report.qpt, report.wt) == (
            YES, YES, YES, YES)
        assert report.curse == NO
        assert report.rho_g == math.inf
        values = report.diagnostics["qpt_condition_values"]
        assert all(math.isfinite(v) for v in values.values())
        assert_verdict_chain(report)

    def test_power_weights_with_huge_rho(self):
        report = classify(WeightFamily(kind="power", rho=400.0), R_CONST)
        assert report.spt == YES

    def test_qpt_condition_value_past_the_overflow_of_one_over_g(self):
        # 1/g overflows for g = 1e-320; the term is then -g ln g (a
        # subnormal, so only a few digits are exact)
        w = WeightFamily(kind="explicit", values=(1e-320,))
        want = 1e-320 * 320.0 * math.log(10.0)
        assert qpt_condition_value(w, 1) == pytest.approx(want, rel=1e-3)


class TestRandomizedChain:
    @given(
        st.sampled_from(("power", "constant", "geometric_in_r", "polynomial_in_r")),
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.55, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_chain_always_holds(self, kind, scale, r0):
        sm = SmoothnessFamily(kind="logarithmic", a=scale / 2.0, b=r0)
        if kind == "power":
            w = WeightFamily(kind="power", rho=scale)
        elif kind == "constant":
            w = WeightFamily(kind="constant", g0=min(scale / 4.0, 1.0))
        elif kind == "geometric_in_r":
            w = WeightFamily(kind="geometric_in_r", v=0.5, smoothness=sm)
        else:
            w = WeightFamily(kind="polynomial_in_r", s=scale, smoothness=sm)
        report = classify(w, sm)
        assert_verdict_chain(report)
        if report.spt == YES:
            assert report.exponent is not None and report.exponent > 0.0


class TestKorobovFamily:
    def test_spectra_track_the_families(self):
        fam = KorobovFamily(
            weights=WeightFamily(kind="power", rho=2.0),
            smoothness=SmoothnessFamily(kind="constant", r0=1.5),
        )
        spec = fam.spectrum(3)
        assert spec.g == pytest.approx(3.0 ** -2.0)
        assert spec.r == 1.5
        assert fam.problem(4).d == 4

    @pytest.mark.parametrize("smoothness, k", [
        (SmoothnessFamily(kind="power", c=1.0, s=1000.0), 3),  # 3^1000 overflows
        (SmoothnessFamily(kind="constant", r0=1e308), 1),  # 2 r0 overflows
    ])
    def test_overflowing_smoothness_names_its_coordinate(self, smoothness, k):
        # a valid r_k past half the double range: no OverflowError from r,
        # and the spectrum names the coordinate
        fam = KorobovFamily(weights=WeightFamily(kind="power", rho=3.0),
                            smoothness=smoothness)
        assert not math.isfinite(2.0 * smoothness.r(k))
        with pytest.raises(DomainError,
                           match=rf"^coordinate k={k}: smoothness 2r must be finite"):
            fam.problem(5)

    def test_classification_scaling_invariance(self):
        # classify depends only on the weight sequence, which is already
        # normalized; re-classifying is idempotent
        fam = KorobovFamily(
            weights=WeightFamily(kind="power", rho=3.0),
            smoothness=R_CONST,
        )
        a = fam.classify()
        b = fam.classify()
        assert a == b


def test_family_from_config_roundtrip():
    w = weight_family_from_config(
        {"kind": "geometric_in_r", "v": 0.25,
         "smoothness": {"kind": "logarithmic", "a": 1.0, "b": 0.75}}
    )
    assert w.kind == "geometric_in_r"
    assert w.smoothness.a == 1.0
    sm = smoothness_family_from_config({"kind": "power", "c": 0.6, "s": 1.0})
    assert sm.r(4) == pytest.approx(2.4)


def test_family_from_config_rejects_unknown_fields():
    with pytest.raises(DomainError):
        weight_family_from_config({"kind": "power", "rho": 2.0, "oops": 1})
    with pytest.raises(DomainError):
        smoothness_family_from_config({"kind": "constant", "r0": 1.0, "z": 2})
