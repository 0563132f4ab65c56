"""Experiment configuration: JSON in, validated problem builders out.

A config names one problem family, the (epsilon, d) grid to run it on,
optional budgets, and what to do (which bounds, classifier horizon...).
Every descriptor in it goes through one reader (_descriptors.py), which
rejects unknown fields and values of the wrong type, so typos fail
loudly instead of silently running defaults.  The whole config, its
bound requests and problem included, is checked once when it loads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from ._descriptors import (
    LIST, NUMBER, OBJECT, OBJECTS, integer, is_number, list_of, read, read_kind,
)
from .bounds import BOUND_REQUESTS, check_request
from .classifier import (
    KorobovFamily,
    smoothness_family_from_config,
    weight_family_from_config,
)
from .errors import DomainError, ValidationError
from .fixtures import tower_problem, uniform_block_problem, uniform_block_size
from .spectra import spectrum_from_config
from .tensor import Budget, ProductProblem

# (fields, defaults) of each descriptor, read by _descriptors.read(_kind)
_CONFIG = (
    {"problem": OBJECT, "epsilons": LIST,
     "dims": list_of(integer(1), "integers of at least 1"),
     "budgets": OBJECT, "bounds": OBJECTS, "horizon": integer(10)},
    {"budgets": {}, "bounds": [], "horizon": 10_000},
)
_BUDGETS = (
    {"n_max": integer(1), "heap_bytes": integer(1)},
    {"n_max": Budget().n_max, "heap_bytes": Budget().heap_bytes},
)
_PROBLEMS = {
    "korobov_family": ({"weights": OBJECT, "smoothness": OBJECT}, {}),
    "coordinates": ({"coordinates": OBJECTS}, {}),
    "uniform_block": ({"M": NUMBER, "delta": NUMBER}, {"M": 2.0, "delta": 0.5}),
    "tower_ordering": ({}, {}),
}
_REQUESTS = {name: (dict.fromkeys(defaults, NUMBER), defaults)
             for name, (_value, defaults, _checks) in BOUND_REQUESTS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment description that every command can run.

    ``problem`` maps d to the ProductProblem; like every field it pickles,
    so the config travels to worker processes.  ``bounds`` holds each bound
    request as (name, its given (parameter, number) pairs, sorted)."""

    problem: Callable[[int], ProductProblem] = field(compare=False)
    epsilons: tuple
    dims: tuple
    budget: Budget
    bounds: tuple = ()
    horizon: int = 10_000
    family: Optional[KorobovFamily] = field(default=None, compare=False)

    def build_problem(self, d: int) -> ProductProblem:
        """The ProductProblem at dimension d for this config's family."""
        return self.problem(d)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _first_coordinates(coords: tuple, d: int) -> ProductProblem:
    _require(d <= len(coords),
             f"d={d} exceeds the {len(coords)} configured coordinates")
    return ProductProblem(coords[:d])


def _resolve_problem(desc, d_max: int):
    """(problem: d -> ProductProblem, family or None) of a problem
    descriptor, checked up to dimension d_max."""
    kind, fields = read_kind(desc, "problem", _PROBLEMS)
    if kind == "korobov_family":
        family = KorobovFamily(
            weights=weight_family_from_config(fields["weights"]),
            smoothness=smoothness_family_from_config(fields["smoothness"]),
        )
        return family.problem, family
    if kind == "coordinates":
        coords = tuple(spectrum_from_config(c) for c in fields["coordinates"])
        _require(coords, "'coordinates' must be a non-empty list")
        _first_coordinates(coords, d_max)  # raises if dims exceed the coordinates
        return functools.partial(_first_coordinates, coords), None
    if kind == "uniform_block":
        big_m, delta = float(fields["M"]), float(fields["delta"])
        uniform_block_size(1, big_m, delta)  # checks M > 1 and delta in (0, 1)
        return functools.partial(uniform_block_problem, big_m=big_m, delta=delta), None
    return tower_problem, None


def _checked_config(raw) -> ExperimentConfig:
    top = read(raw, "config", *_CONFIG)
    _require(top["epsilons"], "'epsilons' must be a non-empty list")
    for e in top["epsilons"]:
        _require(is_number(e) and 0.0 < e <= 1.0,
                 f"epsilon values must be in (0, 1], got {e!r}")
    _require(top["dims"], "'dims' must be a non-empty list")
    problem, family = _resolve_problem(top["problem"], max(top["dims"]))
    bounds = []
    for request in top["bounds"]:
        name, _args = read_kind(request, "bound", _REQUESTS, key="name")
        params = tuple(sorted((key, x) for key, x in request.items() if key != "name"))
        check_request(name, params)
        bounds.append((name, params))
    return ExperimentConfig(
        problem=problem,
        epsilons=tuple(float(e) for e in top["epsilons"]),
        dims=tuple(top["dims"]),
        budget=Budget(**read(top["budgets"], "budget", *_BUDGETS)),
        bounds=tuple(bounds),
        horizon=top["horizon"],
        family=family,
    )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The checked config of a parsed JSON document; any fault in it raises
    ValidationError."""
    try:
        return _checked_config(raw)
    except DomainError as exc:
        raise ValidationError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read config: {exc.strerror}") from exc
    try:
        return config_from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
