import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tractlab.errors import DivergenceError, DomainError
from tractlab.spectra import (
    ExplicitSpectrum,
    KorobovSpectrum,
    spectrum_from_config,
)
from tractlab.zeta import zeta

korobov_params = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.55, max_value=4.0),
)


class TestKorobov:
    def test_eigenvalue_pairing(self):
        spec = KorobovSpectrum(0.5, 1.5)
        assert spec.eigenvalue(1) == 1.0
        for m in range(1, 20):
            v = 0.5 * m ** -3.0
            assert spec.eigenvalue(2 * m) == pytest.approx(v, rel=1e-15)
            assert spec.eigenvalue(2 * m + 1) == pytest.approx(v, rel=1e-15)

    def test_trace_closed_form(self):
        spec = KorobovSpectrum(0.3, 1.0)
        assert spec.trace() == pytest.approx(1.0 + 0.6 * zeta(2.0), rel=1e-14)

    def test_power_sum_closed_form(self):
        spec = KorobovSpectrum(0.3, 1.0)
        want = 1.0 + 2.0 * 0.3 ** 0.8 * zeta(1.6)
        assert spec.power_sum(0.8) == pytest.approx(want, rel=1e-14)

    def test_power_sum_divergence_boundary(self):
        spec = KorobovSpectrum(0.5, 1.0)
        assert spec.tau_min() == 0.5
        with pytest.raises(DivergenceError) as exc_info:
            spec.power_sum(0.5)
        assert exc_info.value.tau_min == 0.5
        assert math.isfinite(spec.power_sum(0.5001))

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            KorobovSpectrum(0.0, 1.0)
        with pytest.raises(DomainError):
            KorobovSpectrum(1.5, 1.0)
        with pytest.raises(DomainError):
            KorobovSpectrum(0.5, 0.5)

    @pytest.mark.parametrize("r", [1e308, math.inf])
    def test_rejects_a_smoothness_whose_2r_overflows(self, r):
        # the closed forms take 2r: at r = 1e308 truncate took log(0) and
        # entropy returned nan
        with pytest.raises(DomainError, match="smoothness 2r must be finite"):
            KorobovSpectrum(0.5, r)
        assert KorobovSpectrum(0.5, 8e307).truncate(1e-6) == 3

    def test_truncate_clamps_its_pairs_at_e69(self):
        # near r = 1/2 the bound asks for about exp(1/(2r - 1)) pairs; the
        # length stays at 2 ceil(e^69) + 1, and the first value past it is
        # below every heap floor (e^-64)
        spec = KorobovSpectrum(0.5, 0.5 + 1e-7)
        length = spec.truncate(1e-7)
        assert length.bit_length() <= 101
        assert length == 2 * math.ceil(math.exp(69.0)) + 1
        assert spec.log_eigenvalue(length + 1) < -64.0
        # below the clamp the length is the least that meets the bound
        assert KorobovSpectrum(0.5, 1.0).truncate(1e-4) == 2 * 3781 + 1

    @given(korobov_params)
    @example((1.0, 0.55))
    @settings(max_examples=40, deadline=None)
    def test_truncate_tail_bound_holds(self, params):
        g, r = params
        spec = KorobovSpectrum(g, r)
        length = spec.truncate(1e-4)
        m, p = (length - 1) // 2, 2.0 * r - 1.0
        # m kept pairs leave out at most the integral 2g m^(1-2r) / (2r - 1),
        # which the length meets where the pairs it needs are below e^69;
        # past that the length is clamped at e^69 pairs
        if math.log(2.0 * g / (p * 1e-4 * spec.trace())) / p < 69.0:
            assert 2.0 * g * m ** -p / p <= 1e-4 * spec.trace() * (1.0 + 1e-9)
        else:
            assert length == 2 * math.ceil(math.exp(69.0)) + 1

    @given(korobov_params, st.floats(min_value=1e-12, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_dense_values_match_eigenvalues(self, params, floor):
        g, r = params
        spec = KorobovSpectrum(g, r)
        vals = spec.dense_values(floor, 10_001)
        direct = [
            spec.eigenvalue(j)
            for j in range(1, 10_002)
            if spec.eigenvalue(j) >= floor
        ]
        # numpy's vectorized pow may differ from scalar pow in the last ulp
        assert len(vals) == len(direct)
        assert np.allclose(vals, np.array(direct), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("g, r", [(0.5, 1.0), (0.37, 1.3), (0.9, 0.6),
                                      (0.05, 2.5)])
    def test_dense_values_keep_the_pair_at_the_floor(self, g, r):
        # a floor equal to pair m's value, as dense_values computes it, keeps
        # that pair; the estimate of the last pair used to round it away
        spec = KorobovSpectrum(g, r)
        pairs = spec.dense_values(1e-14, 6_001)[1::2]
        for m in range(1, len(pairs) + 1):
            floor = float(pairs[m - 1])
            vals = spec.dense_values(floor, 10**7)
            assert len(vals) == 2 * m + 1 and vals[-1] == floor

    def test_entropy_is_positive(self):
        assert KorobovSpectrum(0.5, 1.0).entropy() > 0.0


class TestExplicit:
    def test_rejects_non_monotone(self):
        with pytest.raises(DomainError):
            ExplicitSpectrum((0.5, 1.0))

    def test_rejects_negative_tail(self):
        with pytest.raises(DomainError):
            ExplicitSpectrum((1.0,), tail=-0.1)

    @pytest.mark.parametrize(
        "values",
        [(math.nan, 0.5), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)],
    )
    def test_rejects_non_finite_values(self, values):
        with pytest.raises(DomainError):
            ExplicitSpectrum(values)

    @pytest.mark.parametrize("tail", [math.nan, math.inf])
    def test_rejects_non_finite_tail(self, tail):
        with pytest.raises(DomainError):
            ExplicitSpectrum((1.0, 0.5), tail=tail)

    def test_rejects_a_trace_past_the_largest_double(self):
        with pytest.raises(DomainError, match="trace overflows"):
            ExplicitSpectrum((1e308, 1e308))
        with pytest.raises(DomainError, match="trace overflows"):
            ExplicitSpectrum((1e308,), tail=1e308)

    def test_trace_includes_tail(self):
        spec = ExplicitSpectrum((1.0, 0.5), tail=0.25)
        assert spec.trace() == 1.75

    def test_trace_is_summed_once(self, monkeypatch):
        import pickle
        from types import SimpleNamespace

        from tractlab import spectra

        values, tail = (1.0, 1e-16, 1e-16), 0.125  # a plain sum drops the 1e-16s
        calls = []

        def fsum(terms):
            calls.append(terms)
            return math.fsum(terms)

        # spectra's own name for math, so the global module stays untouched
        monkeypatch.setattr(spectra, "math",
                            SimpleNamespace(**{**vars(math), "fsum": fsum}))
        spec = ExplicitSpectrum(values, tail)
        assert len(calls) == 1
        want = math.fsum(values + (tail,))
        assert want != sum(values) + tail
        assert spec.trace() == spec.trace() == want
        assert len(calls) == 1
        twin = ExplicitSpectrum(list(values), tail)
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(spec) == f"ExplicitSpectrum(values={values!r}, tail={tail!r})"
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.trace() == want

    def test_trace_with_tail_rounds_once(self):
        # the values alone round to 1, and then 1 + 2^-53 ties back to 1;
        # the exact sum 1 + 2^-52 is a double
        spec = ExplicitSpectrum((1.0, 2.0 ** -53), tail=2.0 ** -53)
        assert spec.trace() == 1.0 + 2.0 ** -52

    def test_declared_tail_bounds_power_sums(self):
        # the omitted mass 0.25 is spread over values of at most 0.5
        spec = ExplicitSpectrum((2.0, 0.5), tail=0.25)
        assert spec.power_sum(1.0) == 2.75
        assert spec.power_sum(2.0) == 4.0 + 0.25 + 0.25 * 0.5
        assert spec.excess_power_sum(1.0) == (0.5 + 0.25) / 2.0
        assert spec.excess_power_sum(2.0) == 0.0625 + 0.125 * 0.25
        # below tau = 1 the tail may be split into arbitrarily many values
        for power_sum in (spec.power_sum, spec.excess_power_sum):
            with pytest.raises(DivergenceError) as exc_info:
                power_sum(0.9)
            assert exc_info.value.tau_min == 1.0
        assert spec.tau_min() == 1.0
        bare = ExplicitSpectrum((2.0, 0.5))
        assert bare.power_sum(0.5) == math.sqrt(2.0) + math.sqrt(0.5)
        assert bare.tau_min() == 0.0

    def test_rejects_tail_after_zero(self):
        with pytest.raises(DomainError):
            ExplicitSpectrum((1.0, 0.0), tail=0.1)

    def test_truncate_respects_declared_tail(self):
        spec = ExplicitSpectrum((1.0, 0.5, 0.25), tail=0.5)
        # a tail above the budget cannot be cut away: every value stays
        assert spec.truncate(1e-6) == 3
        length = spec.truncate(0.4)
        assert length >= 1
        assert math.fsum(spec.values[length:]) + spec.tail <= 0.4 * spec.trace()

    def test_entropy_matches_direct_sum(self):
        spec = ExplicitSpectrum((2.0, 1.0, 0.5, 0.25))
        total = spec.trace()
        want = sum(
            (v / total) * math.log(total / v) for v in spec.values
        )
        assert spec.entropy() == pytest.approx(want, rel=1e-14)

    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=25
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_values_are_normalized_and_sorted(self, raw):
        spec = ExplicitSpectrum(tuple(sorted(raw, reverse=True)))
        vals = spec.dense_values(1e-9, len(raw))
        assert vals[0] == 1.0
        assert all(a >= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec", [KorobovSpectrum(0.5, 1.0),
                                  ExplicitSpectrum((1.0, 0.5), tail=0.1)])
@pytest.mark.parametrize("name", ["power_sum", "excess_power_sum"])
def test_power_sums_reject_a_nan_exponent(spec, name):
    # NaN fails every comparison, so a guard written as tau <= 0 passed it
    with pytest.raises(DomainError):
        getattr(spec, name)(float("nan"))


def test_spectrum_from_config_roundtrip():
    k = spectrum_from_config({"kind": "korobov", "g": 0.5, "r": 1.25})
    assert isinstance(k, KorobovSpectrum)
    assert (k.g, k.r) == (0.5, 1.25)
    e = spectrum_from_config(
        {"kind": "explicit", "values": [1.0, 0.5], "tail": 0.1}
    )
    assert isinstance(e, ExplicitSpectrum)
    assert e.tail == 0.1


def test_spectrum_from_config_rejects_unknown_fields():
    with pytest.raises(DomainError):
        spectrum_from_config({"kind": "korobov", "g": 0.5, "r": 1.0, "x": 1})
    with pytest.raises(DomainError):
        spectrum_from_config({"kind": "mystery"})
