"""Span tracing for the benchmark, applied from outside the package.

``Tracer.install`` replaces public tractlab functions and methods with
wrappers that record one span per call: the span's name, its start, its
end and the span that was open when it began (its parent).  Spans stay
in flat in-memory arrays until the run ends; ``summary`` then derives
per-name call counts and self times, where a span's self time is its
duration minus the durations of its direct children (calls are strictly
nested on one thread, so children never overlap).

Per-element calls (``eigenvalue``, ``log_eigenvalue``,
``CompensatedSum.add``) are never wrapped: they run millions of times
per point and a wrapper would swamp what it measures.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of a module-level function
FUNCTIONS = {
    "zeta.zeta": ("tractlab.zeta", "zeta"),
    "zeta.zeta_log_weighted": ("tractlab.zeta", "zeta_log_weighted"),
    "tensor.info_complexity": ("tractlab.tensor", "info_complexity"),
    "tensor.brute_force": ("tractlab.tensor", "brute_force_complexity"),
    "classifier.classify": ("tractlab.classifier", "classify"),
    "config.load_config": ("tractlab.config", "load_config"),
    "cli.main": ("tractlab.cli", "main"),
    "verify.run_verify": ("tractlab.verify", "run_verify"),
}
for _name in (
    "chebyshev_bound", "curse_lower_bound", "entropy_sum", "jensen_lhs",
    "jensen_lower_bound", "poly_tract_constant", "poly_tract_ratio",
    "pt_log_criterion", "qpt_criterion", "qpt_criterion_general",
    "spt_exponent_bisect", "weak_tract_theta",
):  # series_converges is spt_exponent_bisect's loop and stays in its self time
    FUNCTIONS[f"bounds.{_name}"] = ("tractlab.bounds", _name)

# span name -> (module, class, method); one name may cover several classes
METHODS = {
    "config.build_problem": [("tractlab.config", "ExperimentConfig", "build_problem")],
}
CLOSED_FORMS = ("trace", "power_sum", "excess_power_sum", "entropy")
for _method in ("truncate", "dense_values") + CLOSED_FORMS:
    METHODS[f"spectra.{_method}"] = [
        ("tractlab.spectra", cls, _method)
        for cls in ("KorobovSpectrum", "ExplicitSpectrum")
    ]


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.results = {}  # span name -> [(span index, return value summary)]
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn, keep):
        nid = self._id[name]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        kept = self.results.setdefault(name, []) if keep else None

        def wrapper(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append((i, keep(out)))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, keep=None):
        """Patch every binding of every traced callable.

        A function is looked up through each module that imported it
        (``tractlab.spectra.zeta``, ``tractlab.cli.info_complexity`` ...),
        so every tractlab module attribute holding it is replaced.
        ``keep`` maps span names to a function that summarizes the
        return value, for counters read from results.
        """
        keep = keep or {}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "tractlab" or n.startswith("tractlab."))
        ]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig, keep.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, targets in METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(importlib.import_module(modname), clsname)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, keep.get(name)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def arrays(self):
        """Copies of the span columns (the arrays keep growing)."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def summary(self):
        """{span name: (calls, self seconds)} over every recorded span,
        plus the sum of all self times (equal to the root spans' time)."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        per_name = {
            name: (int(calls[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }
        return per_name, float(own.sum())

    def nearest_ancestor(self, span, name):
        """Index of the closest enclosing span called ``name``, or -1."""
        target = self._id[name]
        p = self.parent[span]
        while p >= 0 and self.name_id[p] != target:
            p = self.parent[p]
        return p

    def spans_named(self, name):
        name_id = self.arrays()[0]
        return np.flatnonzero(name_id == self._id[name])

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
