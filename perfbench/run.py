"""tractlab benchmark: one workload, one seed, one process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload small_answers --seed 0 --seconds 31 --trace 0

The workload's operations form a pass; passes repeat in a closed loop
with one caller until the next pass would end after ``--seconds`` (at
least one pass runs).  ``wall_s`` is the mean pass time,
``op_p50_ms`` the median of every operation's latency over the passes
and ``setup_s`` the median of several set-ups run between passes.

On a shared host the speed moves by 10-30% in phases of a minute or
so, which made the medians of ten runs of identical code spread by 20%
and more.  So a fixed calibration work, which does not touch tractlab,
is timed before the first pass and after every pass, and these three
times are scaled to the reference speed at which it takes
``CALIBRATION_REF_S``: ``metric = raw * CALIBRATION_REF_S / mean
calibration time``.  A change to tractlab cannot move the calibration;
the raw times and the calibration times are kept in the full record.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs untraced passes for half the
time and traced passes for the other half, and reports the per-layer
metrics (per traced pass) and the tracing overhead.  Outputs are
checked by the workload's correctness gate after the measured passes.
The last line of standard output is the JSON result; the full record,
with the environment, goes to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout, never from an
installed copy; without ``src/tractlab`` the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
CALIBRATION_REF_S = 0.045


class Calibration:
    """Times of a fixed piece of work, one pure-Python loop and one
    numpy sort, the two kinds of work tractlab does; across runs their
    mean moves with the host's speed (correlation 0.7-0.9 between the
    run means of calibration and pass times, on every workload)."""

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).random(1 << 17)
        self._work = np.empty_like(self._data)  # sorted in place: no allocation
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        for _ in range(4):
            self._work[:] = self._data
            self._work.sort()
        self.times.append(time.perf_counter() - t0)

    def scale(self):
        """Factor from this host's time to the reference speed's time."""
        return CALIBRATION_REF_S / statistics.fmean(self.times)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(
        "small_answers", "large_answers", "criteria", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=31.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced inputs, for the benchmark's own tests")
    p.add_argument("--results", default=None,
                   help="path of the full JSON record (default perfbench/out/)")
    p.add_argument("--record-reference", action="store_true",
                   help="write the seed-0 reference output of the workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class OpError:
    """Outcome of an operation that raised."""

    def __init__(self, exc):
        self.reason = f"raised {exc!r}"

    def __eq__(self, other):
        return isinstance(other, OpError) and other.reason == self.reason


def run_passes(ops, seconds, latencies=None, between=None):
    """Closed loop over passes; returns (pass walls, outputs per pass).
    ``between`` is called after each pass, outside its time."""
    clock = time.perf_counter
    walls, outs = [], []
    start = clock()
    while True:
        gc.collect()
        got = []
        t0 = clock()
        for op in ops:
            a = clock()
            try:
                got.append(op.fn())
            except Exception as exc:  # counted as a failed operation
                got.append(OpError(exc))
            if latencies is not None:
                latencies.append(clock() - a)
        walls.append(clock() - t0)
        outs.append(got)
        if between is not None:
            between()
        if clock() - start + statistics.median(walls) > seconds:
            return walls, outs


def failures(workload, outs):
    """{(pass, op index): reason} over every pass.

    An operation fails when it raised, returned an uncertified result,
    disagrees with the gate (checked on the first pass) or returned
    something else than in the first pass.
    """
    first = outs[0]
    try:
        bad = workload.check(first)
    except Exception as exc:  # a gate that cannot run fails every operation
        bad = dict.fromkeys(range(len(first)), f"gate raised {exc!r}")
    for i, out in enumerate(first):
        if isinstance(out, OpError):
            bad[i] = out.reason
        elif isinstance(out, dict) and out.get("certified") is False:
            bad[i] = "uncertified"
    found = {}
    for p, got in enumerate(outs):
        for i, out in enumerate(got):
            if i in bad:
                found[(p, i)] = bad[i]
            elif out != first[i]:
                found[(p, i)] = "output differs from the first pass"
    return found


def setup_once(args):
    """Wall time of a fresh process that imports tractlab and builds the
    workload's inputs, up to the first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    # a blocking wait: with a timeout, Popen.wait polls in 50 ms steps
    code = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).wait()
    took = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return took


def environment():
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tractlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a checkout without git history has no commit
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def layer_metrics(tracer, traced_walls, untraced_wall):
    """Per-layer metrics, per traced pass, from the recorded spans."""
    from tracing import CLOSED_FORMS

    per, self_total = tracer.summary()
    passes = len(traced_walls)

    def calls(*names):
        return sum(per[n][0] for n in names) / passes

    def own(*names):
        return sum(per[n][1] for n in names) / passes

    bounds = [n for n in per if n.startswith("bounds.")]
    closed = [f"spectra.{m}" for m in CLOSED_FORMS]
    engine = tracer.results.get("tensor.info_complexity", [])
    oracle = tracer.results.get("tensor.brute_force", [])
    sum_n = sum(n for _i, (n, _pops) in engine)
    sum_pops = sum(pops for _i, (_n, pops) in engine)
    dense = {tracer.nearest_ancestor(i, "tensor.info_complexity")
             for i, _entries in tracer.results.get("spectra.dense_values", [])}
    dense.discard(-1)
    truncs = tracer.spans_named("spectra.truncate")
    in_engine = sum(tracer.nearest_ancestor(i, "tensor.info_complexity") >= 0
                    for i in truncs)
    return {
        "tensor.pops_per_n": sum_pops / sum_n if sum_n else 0.0,
        "tensor.pops": sum_pops / passes,
        "tensor.max_n": max((n for _i, (n, _p) in engine), default=0),
        "tensor.max_pops": max((p for _i, (_n, p) in engine), default=0),
        "tensor.dense_point_frac": len(dense) / len(engine) if engine else 0.0,
        "tensor.info_complexity.calls": calls("tensor.info_complexity"),
        "tensor.info_complexity.self_s": own("tensor.info_complexity"),
        "tensor.brute_force.calls": calls("tensor.brute_force"),
        "tensor.brute_force.self_s": own("tensor.brute_force"),
        "tensor.brute_force.pops": sum(p for _i, (_n, p) in oracle) / passes,
        "spectra.dense_values.calls": calls("spectra.dense_values"),
        "spectra.dense_values.self_s": own("spectra.dense_values"),
        "spectra.dense_values.entries": sum(
            e for _i, e in tracer.results.get("spectra.dense_values", [])) / passes,
        "spectra.truncate.calls": calls("spectra.truncate"),
        "spectra.truncate.self_s": own("spectra.truncate"),
        "spectra.truncate.per_info_complexity": in_engine / len(engine) if engine else 0.0,
        "spectra.closed_form.calls": calls(*closed),
        "spectra.closed_form.self_s": own(*closed),
        "zeta.calls": calls("zeta.zeta", "zeta.zeta_log_weighted"),
        "zeta.self_s": own("zeta.zeta", "zeta.zeta_log_weighted"),
        "bounds.calls": calls(*bounds),
        "bounds.self_s": own(*bounds),
        "bounds.qpt_criterion.self_s": own("bounds.qpt_criterion"),
        "bounds.spt_exponent_bisect.self_s": own("bounds.spt_exponent_bisect"),
        "classifier.classify.calls": calls("classifier.classify"),
        "classifier.classify.self_s": own("classifier.classify"),
        "config.load_config.self_s": own("config.load_config"),
        "config.build_problem.calls": calls("config.build_problem"),
        "config.build_problem.self_s": own("config.build_problem"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": own("cli.main"),
        "verify.run_verify.self_s": own("verify.run_verify"),
        "trace.self_s_share": self_total / sum(traced_walls),
        "trace.overhead": statistics.fmean(traced_walls) / untraced_wall,
    }


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def execute(args):
    """Run one workload; returns the full record (see module docstring)."""
    import tractlab
    import workloads

    src = (ROOT / "src").resolve()
    if src not in Path(tractlab.__file__).resolve().parents:
        raise SystemExit(f"tractlab was imported from {tractlab.__file__}, not {src}")
    workdir = HERE / "out" / f"work-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, quick=args.quick, workdir=workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        # set-ups run between passes, so that they sample the host's speed
        # over the whole run rather than in one phase of it
        setups = []
        calibration = Calibration()
        calibration()

        def set_up():
            calibration()
            if not args.trace and len(setups) < SETUP_REPEATS:
                setups.append(setup_once(args))

        latencies = []
        walls, outs = run_passes(workload.ops, budget, latencies, set_up)
        while len(setups) < SETUP_REPEATS and not args.trace:
            setups.append(setup_once(args))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall_s = statistics.fmean(walls)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "quick": args.quick, "env": environment(),
                  "operations_per_pass": len(workload.ops),
                  "untraced_pass_walls_s": walls,
                  "first_pass_op_s": dict(zip((op.key for op in workload.ops),
                                              latencies))}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(keep={
                "tensor.info_complexity": lambda r: (r.n, r.pops),
                "tensor.brute_force": lambda r: (r.n, r.pops),
                "spectra.dense_values": len,
            })
            try:
                traced_walls, traced_outs = run_passes(workload.ops, budget)
            finally:
                tracer.uninstall()
            outs += traced_outs
            record["traced_pass_walls_s"] = traced_walls
            record["per_name"] = {k: {"calls": c, "self_s": s}
                                  for k, (c, s) in tracer.summary()[0].items()}
            metrics = layer_metrics(tracer, traced_walls, wall_s)
            spans = Path(args.results).parent if args.results else HERE / "out"
            spans.mkdir(parents=True, exist_ok=True)
            tracer.save(spans / f"spans-{args.workload}.npz")
        else:
            raw = {
                "setup_s": statistics.median(setups),
                "wall_s": wall_s,
                "op_p50_ms": 1e3 * statistics.median(latencies),
            }
            if len(latencies) >= 1000:  # at least ten samples beyond p99
                raw["op_p99_ms"] = 1e3 * statistics.quantiles(
                    latencies, n=100, method="inclusive")[98]
            scale = calibration.scale()
            metrics = {k: v * scale for k, v in raw.items()}
            record["op_p99_ms"] = metrics.pop("op_p99_ms", None)
            metrics["peak_rss_mb"] = rss_mb
            record["raw"] = raw
            record["calibration_s"] = calibration.times
            record["speed_scale"] = scale
            record["setup_runs_s"] = setups
            record["op_samples"] = len(latencies)
        if args.record_reference:
            path = workload.reference_path()
            text = workload.reference(outs[0])
            path.write_text(text if isinstance(text, str)
                            else json.dumps(text, indent=1, sort_keys=True) + "\n")
        bad = failures(workload, outs)
        attempted = sum(len(got) for got in outs)
        extra = getattr(workload, "extra_checks", lambda _outs: [])
        for key, reason in extra(outs[0]):
            attempted += 1
            if reason:
                bad[("gate", key)] = reason
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    record["failures"] = [f"{k}: {v}" for k, v in sorted(bad.items(), key=str)]
    record["result"] = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items()},
    }
    return record


def _print(record):
    env = record["env"]
    result = record["result"]
    print(f"tractlab benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    walls = record["untraced_pass_walls_s"]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "wall_s": f"mean of {len(walls)} passes of {record['operations_per_pass']} operations",
        "op_p50_ms": f"{record.get('op_samples')} samples",
        "op_p99_ms": f"{record.get('op_samples')} samples",
    }
    if "raw" in record:
        print(f"times at the reference speed; this host's times are "
              f"{1 / record['speed_scale']!r} times as long")
    shown = dict(result["metrics"])
    if record.get("op_p99_ms") is not None:
        shown["op_p99_ms"] = {"value": record["op_p99_ms"], "unit": "ms"}
    for name, m in shown.items():
        note = notes.get(name, "")
        if name in record.get("raw", {}):
            note += f"; raw {record['raw'][name]!r}"
        note = f"  ({note})" if note else ""
        print(f"{name:40s} {m['value']!r} {m['unit']}{note}")
    print(f"{'fail_frac':40s} {result['failed'] / result['attempted']!r} "
          f"({result['failed']}/{result['attempted']} operations)")
    for line in record["failures"][:20]:
        print("FAILED " + line)


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "tractlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tractlab sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        import workloads

        workdir = HERE / "out" / f"setup-{os.getpid()}"
        try:
            workloads.WORKLOADS[args.workload](args.seed, quick=args.quick,
                                               workdir=workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    record = execute(args)
    out = Path(args.results) if args.results else (
        HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    _print(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
