"""Batch command-line front end.

Subcommands::

    tractlab complexity --config cfg.json [--format csv|json] [--out path]
    tractlab bounds     --config cfg.json ...
    tractlab sweep      --config cfg.json ...   (complexity + bounds joined)
    tractlab classify   --config cfg.json ...
    tractlab verify     [--seed N] [--instances N] [--timings] ...

Exit codes: 0 full success, 2 when any grid point is uncertified, 3 when
any grid point hits its enumeration budget (3 wins over 2).  ``verify``
exits 0 iff every check passes.  Output is deterministic: fixed row order
(d-major, epsilon-minor), repr float formatting, and a ``#schema=1``
header line on CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import multiprocessing
import os
import sys
from typing import List, Optional

from . import bounds as bounds_mod
from .config import ExperimentConfig, load_config
from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    TractlabError,
    ValidationError,
)
from .tensor import Budget, info_complexity
from .verify import render_report, run_verify

_COMPLEXITY_COLUMNS = (
    "d", "epsilon", "n", "certified", "n_low", "n_high",
    "pops", "trace", "partial_sum", "status",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _apply_env_budget(budget: Budget) -> Budget:
    raw = os.environ.get("TRACTLAB_BUDGET_NMAX")
    if not raw:
        return budget
    try:
        n_max = int(raw)
    except ValueError:
        raise DomainError(
            f"TRACTLAB_BUDGET_NMAX must be an integer, got {raw!r}"
        ) from None
    if n_max < 1:
        raise DomainError(f"TRACTLAB_BUDGET_NMAX must be at least 1, got {raw!r}")
    return Budget(n_max=n_max, heap_bytes=budget.heap_bytes)


def _complexity_point(task):
    cfg, d, eps = task
    problem = cfg.build_problem(d)
    try:
        res = info_complexity(problem, eps, budget=cfg.budget)
    except BudgetExceededError as exc:
        return {
            "d": d, "epsilon": eps, "n": None, "certified": False,
            "n_low": exc.n_lower, "n_high": None, "pops": exc.pops,
            "trace": None, "partial_sum": None, "status": "budget",
        }
    return {
        "d": d, "epsilon": eps, "n": res.n, "certified": res.certified,
        "n_low": res.n_low, "n_high": res.n_high, "pops": res.pops,
        "trace": res.trace, "partial_sum": res.partial_sum,
        "status": "ok" if res.certified else "uncertified",
    }


def _bound_row(request, problem, d, eps) -> dict:
    """{"status", "value"} of one bound request at one grid point."""
    try:
        return {"status": "ok",
                "value": bounds_mod.requested_bound(*request, problem, d, eps)}
    except DivergenceError:
        return {"status": "divergent", "value": None}


def _emit(rows: List[dict], columns, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows, indent=2, default=str))
        out.write("\n")
        return
    out.write("#schema=1\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _exit_code(rows: List[dict]) -> int:
    statuses = {row.get("status") for row in rows}
    if "budget" in statuses:
        return 3
    if "uncertified" in statuses:
        return 2
    return 0


def _grid(cfg: ExperimentConfig):
    return [(cfg, d, eps) for d in cfg.dims for eps in cfg.epsilons]


def _map_tasks(tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [_complexity_point(t) for t in tasks]
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(_complexity_point, tasks)


def cmd_complexity(cfg: ExperimentConfig, jobs: int, fmt: str, out) -> int:
    rows = _map_tasks(_grid(cfg), jobs)
    _emit(rows, _COMPLEXITY_COLUMNS, fmt, out)
    return _exit_code(rows)


def cmd_bounds(cfg: ExperimentConfig, fmt: str, out) -> int:
    requests = cfg.bounds or (("chebyshev", ()), ("curse", ()))
    rows = []
    for d in cfg.dims:
        problem = cfg.build_problem(d)
        for eps in cfg.epsilons:
            for request in requests:
                rows.append({"d": d, "epsilon": eps, "bound": request[0],
                             **_bound_row(request, problem, d, eps)})
    columns = ("d", "epsilon", "bound", "value", "status")
    _emit(rows, columns, fmt, out)
    return _exit_code(rows)


def cmd_sweep(cfg: ExperimentConfig, jobs: int, fmt: str, out) -> int:
    # a column is named after its request's given parameters
    colnames = ["_".join([name] + [str(x) for _key, x in params])
                for name, params in cfg.bounds]
    # the bound columns are evaluated first, so that a bad bound parameter
    # fails before the complexity grid runs
    values = {}
    for d in cfg.dims:
        problem = cfg.build_problem(d)
        for eps in cfg.epsilons:
            values[d, eps] = [_bound_row(request, problem, d, eps)["value"]
                              for request in cfg.bounds]
    rows = _map_tasks(_grid(cfg), jobs)
    for row in rows:
        row.update(zip(colnames, values[row["d"], row["epsilon"]]))
    _emit(rows, tuple(_COMPLEXITY_COLUMNS) + tuple(colnames), fmt, out)
    return _exit_code(rows)


def cmd_classify(cfg: ExperimentConfig, fmt: str, out) -> int:
    report = cfg.family.classify(horizon=cfg.horizon)
    record = report.to_record()
    out.write(json.dumps(record, indent=2, default=str))
    out.write("\n")
    for key in ("spt", "pt", "qpt", "wt", "curse"):
        out.write(f"# {key:6s} {record[key]}\n")
    if record.get("exponent") is not None:
        out.write(f"# exponent {_fmt(record['exponent'])}\n")
    return 0


def _write_timing(result, seconds: float) -> None:
    sys.stderr.write(f"{result.name} {seconds:.6f}\n")


def cmd_verify(seed: int, instances: int, out, timings: bool) -> int:
    results = run_verify(seed, instances=instances,
                         timed=_write_timing if timings else None)
    out.write(render_report(results, seed))
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractlab",
        description="information complexity and tractability toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("complexity", "bounds", "sweep", "classify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    v = sub.add_parser("verify")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--instances", type=int, default=50)
    v.add_argument("--out", default=None)
    v.add_argument("--timings", action="store_true",
                   help="write one '{check} {seconds}' line per check to stderr")
    return parser


def _write_out(path: Optional[str], text: str) -> None:
    """Write a command's rendered output to ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write output: {exc.strerror}") from exc


def _run(args, out) -> int:
    if args.command == "verify":
        return cmd_verify(args.seed, args.instances, out, args.timings)
    cfg = load_config(args.config)
    cfg = dataclasses.replace(cfg, budget=_apply_env_budget(cfg.budget))
    if args.command == "complexity":
        return cmd_complexity(cfg, args.jobs, args.format, out)
    if args.command == "bounds":
        return cmd_bounds(cfg, args.format, out)
    if args.command == "sweep":
        return cmd_sweep(cfg, args.jobs, args.format, out)
    if cfg.family is None:
        raise DomainError("classify needs a problem of kind 'korobov_family'")
    return cmd_classify(cfg, args.format, out)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the output is rendered in full before it is written, so that a
        # failing run leaves an existing --out file as it was, or none
        out = io.StringIO()
        code = _run(args, out)
        _write_out(args.out, out.getvalue())
        return code
    except TractlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
