import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.errors import (
    DivergenceError,
    DomainError,
    IrreducibleTailError,
)
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

    @given(korobov_params)
    @settings(max_examples=40, deadline=None)
    def test_truncate_tail_bound_holds(self, params):
        g, r = params
        spec = KorobovSpectrum(g, r)
        view = spec.truncate(1e-4)
        # exact omitted mass must not exceed the reported bound
        m0 = (view.length - 1) // 2
        omitted = 2.0 * g * sum(
            m ** (-2.0 * r) for m in range(m0 + 1, m0 + 200_000)
        )
        assert omitted <= view.tail_mass * (1.0 + 1e-9)
        assert view.tail_mass <= 1e-4 * spec.trace() * (1.0 + 1e-12)

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

    def test_trace_includes_tail(self):
        spec = ExplicitSpectrum((1.0, 0.5), tail=0.25)
        assert spec.trace() == 1.75

    def test_power_sum_exactness_flag(self):
        spec = ExplicitSpectrum((1.0, 0.5), tail=0.25)
        assert spec.power_sum_exact(1.0)
        assert not spec.power_sum_exact(0.5)
        assert ExplicitSpectrum((1.0, 0.5)).power_sum_exact(0.5)

    def test_truncate_respects_declared_tail(self):
        spec = ExplicitSpectrum((1.0, 0.5, 0.25), tail=0.5)
        with pytest.raises(IrreducibleTailError):
            spec.truncate(1e-6)
        view = spec.truncate(0.4)
        assert view.length >= 1
        assert view.tail_mass <= 0.4 * spec.trace()

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
