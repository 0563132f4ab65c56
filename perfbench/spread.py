"""Run the benchmark over several seeds and summarize each metric.

Run from the root of a checkout::

    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline/BENCH_0.json

For every workload the untraced runs give each end-to-end metric's
median, quartiles and spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), compared with the
metric's bound in BENCHMARK.json; one traced run at the first seed gives
the per-layer metrics.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record["env"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"),
                   help="inclusive range such as 0-9")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            result, env = bench(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            summary["env"] = env
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "values": values}
            ok = spread <= metric["bound"]
            steady &= ok and entry["correct"]
            print(f"  {metric['name']:12s} median={med:.6g} spread={spread:.3f} "
                  f"bound={metric['bound']} {'ok' if ok else 'TOO WIDE'}", flush=True)
        result, _env = bench(name, args.seeds[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
