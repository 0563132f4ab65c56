"""Tests of the benchmark itself, on reduced inputs (``--quick``).

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    results = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--results", str(results), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, results


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One reduced traced run per workload: (last stdout line, record)."""
    tmp = tmp_path_factory.mktemp("traced")
    out = {}
    for spec in SPEC["workloads"]:
        proc, results = _bench(tmp, spec["name"], 1, "--quick")
        assert proc.returncode == 0, proc.stderr
        out[spec["name"]] = (json.loads(proc.stdout.splitlines()[-1]),
                             json.loads(results.read_text()))
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_traced_run_is_correct_and_complete(traced, workload):
    result, record = traced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]


def test_reduced_untraced_run_reports_end_to_end_metrics(tmp_path):
    proc, results = _bench(tmp_path, "small_answers", 0, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(results.read_text())
    for name, raw in record["raw"].items():  # times are scaled by the calibration
        if name in result["metrics"]:
            assert result["metrics"][name]["value"] == pytest.approx(
                raw * record["speed_scale"])
    for name in want:
        assert name in proc.stdout.split("\n{")[0]


def test_wrapper_calls_match_operation_counts(traced):
    def per(workload, name):
        return traced[workload][1]["per_name"][name]["calls"]

    def passes(workload):
        return len(traced[workload][1]["traced_pass_walls_s"])

    small = workloads.SmallAnswers(0, quick=True)
    assert per("small_answers", "tensor.info_complexity") == len(small.ops) * passes("small_answers")
    assert per("large_answers", "tensor.info_complexity") == passes("large_answers")
    n = passes("criteria")
    assert per("criteria", "cli.main") == 10 * n
    assert per("criteria", "classifier.classify") == 5 * n
    assert per("criteria", "bounds.qpt_criterion") == 5 * n
    assert per("criteria", "bounds.spt_exponent_bisect") == 5 * n
    assert per("verify", "cli.main") == passes("verify")
    assert per("verify", "verify.run_verify") == passes("verify")


def test_self_times_sum_to_at_most_the_wall_time(traced):
    for result, record in traced.values():
        share = result["metrics"]["trace.self_s_share"]["value"]
        assert 0.5 < share <= 1.0
        total_self = sum(v["self_s"] for v in record["per_name"].values())
        assert total_self <= sum(record["traced_pass_walls_s"])


def test_workload_property_counters(traced):
    def metric(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    assert metric("small_answers", "spectra.dense_values.calls") == 0
    assert metric("small_answers", "tensor.max_n") > 0
    assert metric("large_answers", "tensor.dense_point_frac") == 1.0
    assert metric("criteria", "tensor.info_complexity.calls") == 0
    assert metric("criteria", "zeta.calls") > 0


def test_wrong_reference_n_counts_as_failure(monkeypatch):
    (fam, d, eps, n), = workloads.LARGE_POINTS_QUICK
    monkeypatch.setattr(workloads, "LARGE_POINTS_QUICK", ((fam, d, eps, n + 1),))
    workload = workloads.LargeAnswers(0, quick=True)
    _walls, outs = run.run_passes(workload.ops, 0.0)
    bad = run.failures(workload, outs)
    assert len(bad) / sum(len(got) for got in outs) > 0
    assert "pinned" in next(iter(bad.values()))


def test_criteria_gate_detects_a_changed_value(tmp_path):
    workload = workloads.Criteria(0, quick=True, workdir=tmp_path)
    ref = json.loads(workload.reference_path().read_text())
    key = "power_const.qpt_criterion"
    text = ref[key]
    assert workloads._same_up_to_rounding(text, text)
    value = json.loads(text)["value"]
    assert workloads._same_up_to_rounding(
        text, text.replace(repr(value), repr(value * (1 + 1e-12))))
    assert not workloads._same_up_to_rounding(
        text, text.replace(repr(value), repr(value * (1 + 1e-6))))


def test_recorded_references_match_the_committed_ones(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    for name in ("criteria_seed0_quick.json", "verify_seed0.txt"):
        (tmp_path / "perfbench" / "reference" / name).unlink()
    for workload in ("criteria", "verify"):
        proc, _ = _bench(tmp_path, workload, 0, "--quick", "--record-reference",
                         cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
        assert proc.returncode == 0, proc.stderr
    for name in ("criteria_seed0_quick.json", "verify_seed0.txt"):
        assert ((tmp_path / "perfbench" / "reference" / name).read_bytes()
                == (BENCH / "reference" / name).read_bytes())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, _ = _bench(tmp_path, "small_answers", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
