"""Experiment configuration: JSON in, validated problem builders out.

A config names one problem family, the (epsilon, d) grid to run it on,
optional budgets, and what to do (which bounds, classifier horizon...).
Unknown fields are rejected everywhere so typos fail loudly instead of
silently running defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .classifier import (
    KorobovFamily,
    smoothness_family_from_config,
    weight_family_from_config,
)
from .errors import ValidationError
from .fixtures import tower_problem, uniform_block_problem
from .spectra import spectrum_from_config
from .tensor import Budget, ProductProblem

_TOP_FIELDS = {
    "problem", "epsilons", "dims", "budgets", "bounds",
    "classify", "delta", "horizon",
}
_BUDGET_FIELDS = {"n_max", "heap_bytes", "tol_rel"}
_PROBLEM_KINDS = {
    "korobov_family", "coordinates", "uniform_block", "tower_ordering",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description."""

    problem: dict
    epsilons: tuple
    dims: tuple
    budget: Budget
    tol_rel: Optional[float] = None
    bounds: tuple = ()
    classify_request: Optional[dict] = None
    delta: float = 0.5
    horizon: int = 10_000
    family: Optional[KorobovFamily] = field(default=None, compare=False)

    def build_problem(self, d: int) -> ProductProblem:
        """The ProductProblem at dimension d for this config's family."""
        kind = self.problem["kind"]
        if kind == "korobov_family":
            return self.family.problem(d)
        if kind == "coordinates":
            coords = [
                spectrum_from_config(c) for c in self.problem["coordinates"]
            ]
            if d > len(coords):
                raise ValidationError(
                    f"d={d} exceeds the {len(coords)} configured coordinates"
                )
            return ProductProblem(tuple(coords[:d]))
        if kind == "uniform_block":
            return uniform_block_problem(
                d,
                big_m=float(self.problem.get("M", 2.0)),
                delta=float(self.problem.get("delta", 0.5)),
            )
        return tower_problem(d)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _integer(value, name: str, minimum: int) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"'{name}' must be an integer of at least {minimum}, got {value!r}",
    )
    return value


def _fraction(value, name: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and 0.0 < value < 1.0,
        f"'{name}' must be a number in (0, 1), got {value!r}",
    )
    return float(value)


def _validate_problem(desc) -> dict:
    _require(isinstance(desc, dict), "'problem' must be an object")
    _require("kind" in desc, "'problem' needs a 'kind' field")
    kind = desc["kind"]
    _require(
        kind in _PROBLEM_KINDS,
        f"unknown problem kind {kind!r}; expected one of {sorted(_PROBLEM_KINDS)}",
    )
    allowed = {
        "korobov_family": {"kind", "weights", "smoothness"},
        "coordinates": {"kind", "coordinates"},
        "uniform_block": {"kind", "M", "delta"},
        "tower_ordering": {"kind"},
    }[kind]
    extra = set(desc) - allowed
    _require(not extra, f"unknown problem fields: {sorted(extra)}")
    if kind == "korobov_family":
        _require(
            "weights" in desc and "smoothness" in desc,
            "korobov_family needs 'weights' and 'smoothness'",
        )
    if kind == "coordinates":
        _require(
            isinstance(desc.get("coordinates"), list) and desc["coordinates"],
            "'coordinates' must be a non-empty list",
        )
    return desc


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config must be a JSON object")
    extra = set(raw) - _TOP_FIELDS
    _require(not extra, f"unknown config fields: {sorted(extra)}")
    problem = _validate_problem(raw.get("problem"))

    epsilons = raw.get("epsilons", [])
    _require(
        isinstance(epsilons, list) and epsilons,
        "'epsilons' must be a non-empty list",
    )
    eps = []
    for e in epsilons:
        _require(
            isinstance(e, (int, float)) and not isinstance(e, bool)
            and 0.0 < float(e) <= 1.0,
            f"epsilon values must be in (0, 1], got {e!r}",
        )
        eps.append(float(e))

    dims = raw.get("dims", [])
    _require(isinstance(dims, list) and dims, "'dims' must be a non-empty list")
    ds = [_integer(d, "dims", 1) for d in dims]

    budgets = raw.get("budgets", {})
    _require(isinstance(budgets, dict), "'budgets' must be an object")
    bextra = set(budgets) - _BUDGET_FIELDS
    _require(not bextra, f"unknown budget fields: {sorted(bextra)}")
    budget = Budget(
        n_max=_integer(budgets.get("n_max", Budget().n_max), "n_max", 1),
        heap_bytes=_integer(
            budgets.get("heap_bytes", Budget().heap_bytes), "heap_bytes", 1),
    )
    tol_rel = budgets.get("tol_rel")
    if tol_rel is not None:
        tol_rel = _fraction(tol_rel, "tol_rel")

    bounds = raw.get("bounds", [])
    _require(isinstance(bounds, list), "'bounds' must be a list")
    for b in bounds:
        _require(
            isinstance(b, dict) and "name" in b,
            f"each bound request needs a 'name': {b!r}",
        )

    delta = _fraction(raw.get("delta", 0.5), "delta")
    horizon = _integer(raw.get("horizon", 10_000), "horizon", 10)

    family = None
    if problem["kind"] == "korobov_family":
        family = KorobovFamily(
            weights=weight_family_from_config(problem["weights"]),
            smoothness=smoothness_family_from_config(problem["smoothness"]),
        )

    return ExperimentConfig(
        problem=problem,
        epsilons=tuple(eps),
        dims=tuple(ds),
        budget=budget,
        tol_rel=tol_rel,
        bounds=tuple(
            tuple(sorted(b.items())) for b in bounds
        ),
        classify_request=raw.get("classify"),
        delta=delta,
        horizon=horizon,
        family=family,
    )


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
