import math
import random

import pytest

from tractlab.errors import DomainError
from tractlab.zeta import zeta, zeta_log_weighted

# Reference values computed once with mpmath at 50 digits and frozen here.
ZETA_REF = {
    1.1: 10.584448464950803,
    1.2: 5.591582441177751,
    1.3: 3.9319492118095436,
    2.0: 1.6449340668482264,
    3.0: 1.2020569031595943,
    4.0: 1.0823232337111381,
    10.0: 1.0009945751278182,
    50.0: 1.0000000000000009,
}

# -zeta'(s) = sum_{m>=2} ln(m) / m^s, same provenance.
ZETA_LOG_REF = {
    1.3: 11.041284605032113,
    2.0: 0.9375482543158438,
    3.0: 0.19812624288563685,
    4.0: 0.06891126589612538,
}


@pytest.mark.parametrize("s,want", sorted(ZETA_REF.items()))
def test_zeta_reference_values(s, want):
    assert zeta(s) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("s,want", sorted(ZETA_LOG_REF.items()))
def test_zeta_log_weighted_reference_values(s, want):
    assert zeta_log_weighted(s) == pytest.approx(want, rel=1e-12)


def test_zeta_monotone_decreasing_in_s():
    values = [zeta(s) for s in (1.05, 1.5, 2.0, 3.0, 6.0, 20.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


def test_zeta_rejects_divergent_arguments():
    for s in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(DomainError):
            zeta(s)


@pytest.mark.parametrize("fn", [zeta, zeta_log_weighted])
def test_nan_is_rejected(fn):
    # NaN fails every comparison, so a guard written as s <= 1 passed it
    with pytest.raises(DomainError):
        fn(float("nan"))


def test_zeta_large_s_approaches_one():
    assert zeta(60.0) == pytest.approx(1.0, abs=1e-15)
    assert math.isfinite(zeta_log_weighted(60.0))


def _oracle_arguments():
    """About 500 seeded s in [1 + 1e-6, 60], log-spaced in s - 1 so the
    pole's neighbourhood is covered, plus a few past the s > 60 branch."""
    rng = random.Random(20111)
    inside = [1.0 + 10.0 ** rng.uniform(-6.0, math.log10(59.0)) for _ in range(496)]
    return inside + [1.0 + 1e-6, 60.0, 60.5, 75.0, 200.0, 1000.0]


def test_zeta_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in _oracle_arguments():
            want = mpmath.zeta(s)
            assert abs(zeta(s) - want) <= 2e-15 * want, s


def test_zeta_log_weighted_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in _oracle_arguments():
            want = -mpmath.zeta(s, derivative=1)
            assert abs(zeta_log_weighted(s) - want) <= 2e-15 * want, s
