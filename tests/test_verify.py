"""The verify checks: what they compare, and that they fail on a fault."""

import random
from pathlib import Path

import pytest

from tractlab import verify
from tractlab.spectra import KorobovSpectrum
from tractlab.tensor import _BruteForceOracle

REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
             / "verify_seed0.txt")


class TestOracleBatch:
    def test_calls_no_oracle_on_a_rejected_instance(self, monkeypatch):
        called = []
        call = _BruteForceOracle.__call__
        monkeypatch.setattr(_BruteForceOracle, "__call__", lambda self, eps: (
            called.append(self.problem), call(self, eps))[1])
        result = verify._check_oracle_batch(random.Random(0), 10)
        rng = random.Random(0)
        problems = [verify.random_instance(rng) for _ in range(10)]
        # instance 7's grids all lose more than they could certify
        assert not _BruteForceOracle(problems[7]).certifiable()
        assert [p in called for p in problems] == [i != 7 for i in range(10)]
        assert result.render() in REFERENCE.read_text().splitlines()


class TestEntropyIdentity:
    def test_holds_for_the_closed_form(self):
        assert verify._check_entropy_identity(random.Random(0)).passed

    @pytest.mark.parametrize("error", [1e-8, -1e-8])
    def test_fails_on_an_entropy_off_by_a_relative_1e_8(self, monkeypatch, error):
        entropy = KorobovSpectrum.entropy
        monkeypatch.setattr(KorobovSpectrum, "entropy",
                            lambda self: entropy(self) * (1.0 + error))
        result = verify._check_entropy_identity(random.Random(0))
        assert not result.passed
        assert result.detail.startswith("g=0.5 r=1.0: closed form")
