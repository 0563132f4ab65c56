import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.numutil import RunningSum

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def assert_reads_fsum(terms):
    acc = RunningSum()
    assert acc.value == 0.0
    for k, x in enumerate(terms, start=1):
        acc.add(x)
        assert acc.value == math.fsum(terms[:k]), terms[:k]


class TestRunningSum:
    def test_correctly_rounded_where_neumaier_is_not(self):
        # a Neumaier running sum reads 1.1805513587944784e+17 here
        terms = [8.133029840061782e-17, 1.045539882468415e+17,
                 1.3501147632606344e+16]
        assert_reads_fsum(terms)
        acc = RunningSum()
        for x in terms:
            acc.add(x)
        assert acc.value == 1.1805513587944786e+17

    def test_cancellation_and_ties(self):
        assert_reads_fsum([1.0, 2.0 ** -53, 2.0 ** -53, -1.0, 1e100, 1.0, -1e100])
        assert_reads_fsum([0.1] * 100 + [-0.1] * 100)
        assert_reads_fsum([1e300, 1e-300, -1e300, 5e-324, 2.0 ** -1074])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, max_size=60))
    def test_reads_fsum_after_every_term(self, terms):
        assert_reads_fsum(terms)

    def test_non_finite_terms_read_as_in_fsum(self):
        assert_reads_fsum([1.0, math.inf, 2.0, 1e300, 1e300])
        assert_reads_fsum([-math.inf, 1e300, 1e300])
        for bad in ([math.nan], [math.inf, -math.inf]):  # fsum: nan, ValueError
            acc = RunningSum()
            for x in [1.0] + bad + [1.0]:
                acc.add(x)
            assert math.isnan(acc.value)

    def test_overflow_raises_and_keeps_the_sum(self):
        acc = RunningSum()
        acc.add(1e308)
        with pytest.raises(OverflowError):
            acc.add(1e308)
        assert acc.value == 1e308
        acc.add(-1e308)
        assert acc.value == 0.0
