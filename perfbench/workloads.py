"""The benchmark's workloads: seeded inputs, operations and correctness gates.

A workload is built from its seed (that is its set-up), then exposes a
fixed list of operations, one *pass*.  ``run.py`` repeats passes in a
closed loop with one caller.  Each operation returns a plain summary of
its output; ``check`` receives the first pass's summaries and returns
``{operation index: reason}`` for every operation that disagrees with
the workload's correctness gate.  Gates run outside the timed and traced
regions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import tractlab
from tractlab import bounds, cli, config, tensor
from tractlab.spectra import ExplicitSpectrum, KorobovSpectrum

REFERENCE = Path(__file__).resolve().parent / "reference"


class Op:
    __slots__ = ("key", "fn")

    def __init__(self, key, fn):
        self.key = key
        self.fn = fn


def _complexity(result):
    return {"n": result.n, "certified": result.certified, "pops": result.pops}


def _cli(argv):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "out": buf.getvalue()}


def _sandwich(problem, eps, n):
    """Reason why n violates curse <= n <= chebyshev, or None."""
    lower = bounds.curse_lower_bound(problem, eps)
    if n < lower * (1.0 - 1e-12):
        return f"n={n} below the curse lower bound {lower!r}"
    for tau in (0.7, 0.9):
        for z in (0.75, 1.0):
            upper = bounds.chebyshev_bound(problem, eps, tau=tau, z=z)
            if n > upper * (1.0 + 1e-12):
                return f"n={n} above the Chebyshev bound {upper!r} (tau={tau}, z={z})"
    return None


class SmallAnswers:
    """Many small problems: per-point set-up and the lazy heap do the work.

    Half the points have d in 1..4 with Korobov coordinates
    (g in [0.05, 0.8], r in [1, 3]) or explicit geometric lists of at
    most 30 values; the other half are points of the power-weight Korobov
    family g_k = k^-rho (rho in [2, 4], r in [1, 2], d in 5..10).
    eps is drawn from [0.45, 0.75], which keeps every answer in the range
    the heap serves.  The gate compares a seeded sample of the low-d
    points with the brute-force oracle and checks every point against
    the curse and Chebyshev bounds.
    """

    name = "small_answers"
    points = 1000
    oracle_sample = 100

    def __init__(self, seed, quick=False, workdir=None):
        rng = random.Random(seed)
        count = 100 if quick else self.points
        self.problems = []
        self.low_d = []
        for i in range(count):
            if i % 2 == 0:
                coords = []
                for _ in range(rng.randint(1, 4)):
                    if rng.random() < 0.5:
                        coords.append(KorobovSpectrum(rng.uniform(0.05, 0.8),
                                                      rng.uniform(1.0, 3.0)))
                    else:
                        q = rng.uniform(0.2, 0.7)
                        m = rng.randint(2, 30)
                        coords.append(ExplicitSpectrum(tuple(q ** j for j in range(m))))
                self.low_d.append(i)
            else:
                rho, r = rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0)
                coords = [KorobovSpectrum(k ** -rho, r)
                          for k in range(1, rng.randint(5, 10) + 1)]
            self.problems.append(
                (tractlab.ProductProblem(tuple(coords)), rng.uniform(0.45, 0.75)))
        sample = min(10 if quick else self.oracle_sample, len(self.low_d))
        self.oracle = sorted(random.Random(f"oracle-{seed}").sample(self.low_d, sample))
        self.ops = [
            Op(f"point{i}", lambda p=p, e=e: _complexity(tensor.info_complexity(p, e)))
            for i, (p, e) in enumerate(self.problems)
        ]

    def check(self, outs):
        bad = {}
        for i, ((p, eps), out) in enumerate(zip(self.problems, outs)):
            reason = _sandwich(p, eps, out["n"])
            if reason:
                bad[i] = reason
        for i in self.oracle:
            p, eps = self.problems[i]
            ref = tensor.brute_force_complexity(p, eps)
            n = outs[i]["n"]
            if ref.certified and ref.n != n:
                bad[i] = f"oracle n={ref.n}, engine n={n}"
            elif not ref.n_low <= n <= ref.n_high:
                bad[i] = f"engine n={n} outside the oracle bracket [{ref.n_low}, {ref.n_high}]"
        return bad


# (family, d, eps, n at seed 0 or None): the timed points.  A pass takes
# 3-6 s (strong d=20 alone 2-4 s, most of it per-point set-up), so a
# run repeats every point several times.
LARGE_POINTS = (
    ("curse", 6, 0.5, 239_007),
    ("curse", 6, 0.45, None),
    ("strong", 20, 0.1, 226_190),
)
LARGE_POINTS_QUICK = LARGE_POINTS[:1]
# The other reference points, with answers of 2e6 to 5e6 (2-14 s each):
# computed once, untimed, by the seed-0 gate.
LARGE_POINTS_GATE = (
    ("curse", 7, 0.5, 2_312_736),
    ("curse", 6, 0.3, 4_859_793),
    ("strong", 20, 0.05, 3_777_146),
)


class LargeAnswers:
    """Answers of 10^5 to 10^6: the dense fold works on every point.

    Families: curse ``KorobovSpectrum(0.5, 1)^d`` and strong
    ``g_k = k^-3, r = 1``.  Seed 0 runs them exactly; any other seed
    scales each family's weights down by a factor drawn from
    [0.99, 1].  The gate checks certification, curse <= n <= Chebyshev,
    n non-increasing in eps, and at seed 0 the pinned answers, including
    those of LARGE_POINTS_GATE.
    """

    name = "large_answers"

    def __init__(self, seed, quick=False, workdir=None):
        rng = random.Random(seed)
        self.scale = {
            fam: 1.0 - (rng.uniform(0.0, 0.01) if seed else 0.0)
            for fam in ("curse", "strong")
        }
        self.seed = seed
        self.quick = quick
        self.points = LARGE_POINTS_QUICK if quick else LARGE_POINTS
        self.problems = [(self._problem(fam, d), eps)
                         for fam, d, eps, _n in self.points]
        self.ops = [
            Op(f"{fam}_d{d}_eps{eps}",
               lambda p=p, e=e: _complexity(tensor.info_complexity(p, e)))
            for (fam, d, eps, _n), (p, e) in zip(self.points, self.problems)
        ]

    def _problem(self, fam, d):
        if fam == "curse":
            coords = (KorobovSpectrum(0.5 * self.scale[fam], 1.0),) * d
        else:
            coords = tuple(KorobovSpectrum(self.scale[fam] * k ** -3.0, 1.0)
                           for k in range(1, d + 1))
        return tractlab.ProductProblem(coords)

    @staticmethod
    def _problems_of(points, problems, outs):
        """{index: reason} for pinned answers, the sandwich and monotone eps."""
        bad = {}
        for i, ((fam, d, eps, pinned), (p, _e), out) in enumerate(
                zip(points, problems, outs)):
            reason = _sandwich(p, eps, out["n"])
            if pinned is not None and out["n"] != pinned:
                reason = f"n={out['n']}, pinned n={pinned}"
            if reason:
                bad[i] = reason
        # same family and d: a smaller eps never needs fewer functionals
        for i, (fam, d, eps, _n) in enumerate(points):
            for j, (fam2, d2, eps2, _n2) in enumerate(points):
                if (fam, d) == (fam2, d2) and eps2 < eps and outs[j]["n"] < outs[i]["n"]:
                    bad[j] = f"n={outs[j]['n']} at eps={eps2} below n={outs[i]['n']} at eps={eps}"
        return bad

    def _pinned(self, points):
        return points if self.seed == 0 else [
            (fam, d, eps, None) for fam, d, eps, _n in points]

    def check(self, outs):
        return self._problems_of(self._pinned(self.points), self.problems, outs)

    def extra_checks(self, outs):
        """At seed 0, the gate-only reference points: (key, reason or None)."""
        if self.seed != 0 or self.quick:
            return []
        points = list(self.points) + list(LARGE_POINTS_GATE)
        problems = self.problems + [(self._problem(fam, d), eps)
                                    for fam, d, eps, _n in LARGE_POINTS_GATE]
        extra = []
        for p, eps in problems[len(self.points):]:
            try:
                extra.append(_complexity(tensor.info_complexity(p, eps)))
            except Exception as exc:  # counted as a failed operation
                extra.append({"n": -1, "certified": False, "raised": repr(exc)})
        bad = self._problems_of(points, problems, list(outs) + extra)
        checks = []
        for j, (fam, d, eps, _n) in enumerate(points[len(self.points):],
                                              len(self.points)):
            out = extra[j - len(self.points)]
            reason = bad.get(j) or (None if out["certified"] else
                                    out.get("raised", "uncertified"))
            checks.append((f"{fam}_d{d}_eps{eps}", reason))
        return checks


def _family_descriptors(rng):
    """Five Korobov families, one per weight kind, covering every
    smoothness kind; returns (label, weights, smoothness) triples."""
    u = rng.uniform

    def const():
        return {"kind": "constant", "r0": u(0.8, 3.0)}

    log = {"kind": "logarithmic", "a": u(0.2, 1.0), "b": u(0.8, 2.0)}
    power = {"kind": "power", "c": u(0.8, 2.0), "s": u(0.1, 0.3)}
    return [
        ("power_const", {"kind": "power", "rho": u(1.5, 4.0)}, const()),
        ("geometric_log", {"kind": "geometric_in_r", "v": u(0.3, 0.8),
                           "smoothness": log}, log),
        ("polynomial_power", {"kind": "polynomial_in_r", "s": u(1.0, 3.0),
                              "smoothness": power}, power),
        ("constant_explicit", {"kind": "constant", "g0": u(0.1, 0.9)},
         {"kind": "explicit",
          "values": sorted(u(0.8, 3.0) for _ in range(rng.randint(1, 10)))}),
        ("explicit_const", {"kind": "explicit", "values": sorted(
            (u(0.01, 1.0) for _ in range(rng.randint(1, 30))), reverse=True)},
         const()),
    ]


def expected_verdicts(weights, smoothness):
    """Classifier verdicts from the criteria, derived from the parameters.

    rho_g is rho for power weights, a*ln(1/v) for geometric weights on
    logarithmic smoothness, s*(smoothness exponent) for polynomial
    weights on power smoothness and 0 for constant weights; explicit
    weights with no declared asymptote leave every verdict unknown.
    (S)PT and QPT hold iff rho_g > 1 (the weight-sum condition fails
    otherwise); WT holds iff g_k -> 0, and the curse iff not.
    """
    kind = weights["kind"]
    if kind == "explicit":
        return dict.fromkeys(("spt", "pt", "qpt", "wt", "curse"), "unknown")
    rho = {
        "power": lambda: weights["rho"],
        "geometric_in_r": lambda: smoothness["a"] * math.log(1.0 / weights["v"]),
        "polynomial_in_r": lambda: weights["s"] * smoothness["s"],
        "constant": lambda: 0.0,
    }[kind]()
    tract = "yes" if rho > 1.0 else "no"
    to_zero = kind != "constant"
    return {"spt": tract, "pt": tract, "qpt": tract,
            "wt": "yes" if to_zero else "no",
            "curse": "no" if to_zero else "yes"}


_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")
CRITERIA_REL_TOL = 1e-9


def _same_up_to_rounding(a, b, rel_tol=CRITERIA_REL_TOL):
    """Texts equal except for numbers, which agree within rel_tol."""
    ta, tb = _NUMBER.split(a), _NUMBER.split(b)
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    if ta != tb or len(na) != len(nb):
        return False
    for x, y in zip(na, nb):
        fx, fy = float(x), float(y)
        if fx == fy or (math.isnan(fx) and math.isnan(fy)):
            continue
        if not abs(fx - fy) <= rel_tol * max(abs(fx), abs(fy)):
            return False
    return True


def _family_op(path, f, qpt_d, d_max, k_max):
    """Every criterion for one family; returns {call name: output}."""
    calls = {
        "cli_bounds": lambda: _cli(["bounds", "--config", path, "--jobs", "1"]),
        "cli_classify": lambda: _cli(["classify", "--config", path, "--jobs", "1"]),
        "qpt_criterion": lambda: bounds.qpt_criterion(f, 0.3, qpt_d).to_record(),
        "pt_log_criterion": lambda: bounds.pt_log_criterion(f, 0.9, d_max).to_record(),
        "poly_tract_constant": lambda: bounds.poly_tract_constant(
            f, 1.0, 0.9, d_max).to_record(),
        "weak_tract_theta": lambda: bounds.weak_tract_theta(f, 0.9, d_max),
        "spt_exponent_bisect": lambda: bounds.spt_exponent_bisect(
            f, k_max=k_max, tau_grid=(0.35, 0.5, 0.65, 0.8, 0.95)).to_record(),
    }
    return lambda: {name: call() for name, call in calls.items()}


class Criteria:
    """Closed-form criteria and the classifier over Korobov families.

    One operation evaluates everything for one family: the CLI runs
    ``bounds`` (every bound name, eps 0.1, dims up to 400) and
    ``classify``; the library runs ``pt_log_criterion``,
    ``poly_tract_constant`` and ``weak_tract_theta`` at d_max=400,
    ``qpt_criterion`` at d_max=60 and ``spt_exponent_bisect`` on a
    five-point tau grid with k_max=1024.  These sizes keep a pass of the
    five families near 5 s, so every family is repeated several times in
    a run (``qpt_criterion`` is O(d^2) in zeta calls: d_max=400 alone
    takes 6-7 s; the default grid and k_max of ``spt_exponent_bisect``
    took 84 s on some power-weight families).
    The gate checks exit codes and verdicts exactly, and at seed 0 every
    number against the stored reference within CRITERIA_REL_TOL.
    """

    name = "criteria"
    bound_names = ("chebyshev", "curse", "jensen_lhs", "jensen_lower",
                   "entropy", "weak_theta", "poltract_ratio", "pt_log")

    def __init__(self, seed, quick=False, workdir=None):
        self.seed = seed
        self.quick = quick
        rng = random.Random(seed)
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        d_max, qpt_d = (40, 25) if quick else (400, 60)
        dims = [1, 10, 25] if quick else [1, 10, 100, 400]
        k_max = 512 if quick else 1024
        self.families = _family_descriptors(rng)
        self.ops = []
        for label, weights, smoothness in self.families:
            raw = {
                "problem": {"kind": "korobov_family", "weights": weights,
                            "smoothness": smoothness},
                "epsilons": [0.1],
                "dims": dims,
                "bounds": [{"name": b} for b in self.bound_names],
            }
            path = str(workdir / f"{label}.json")
            Path(path).write_text(json.dumps(raw))
            f = config.config_from_dict(raw).family.spectrum
            self.ops.append(Op(label, _family_op(path, f, qpt_d, d_max, k_max)))

    def reference_path(self):
        return REFERENCE / ("criteria_seed0_quick.json" if self.quick
                            else "criteria_seed0.json")

    @staticmethod
    def _texts(label, out):
        return {f"{label}.{name}": json.dumps(value, sort_keys=True)
                for name, value in out.items()}

    def reference(self, outs):
        texts = {}
        for op, out in zip(self.ops, outs):
            texts.update(self._texts(op.key, out))
        return texts

    def check(self, outs):
        ref = (json.loads(self.reference_path().read_text())
               if self.seed == 0 else {})
        bad = {}
        for i, ((label, weights, smoothness), out) in enumerate(
                zip(self.families, outs)):
            reasons = [f"{name}: exit code {out[name]['exit']}"
                       for name in ("cli_bounds", "cli_classify")
                       if out[name]["exit"] != 0]
            want = expected_verdicts(weights, smoothness)
            record = json.loads(out["cli_classify"]["out"].split("\n# ")[0])
            got = {k: record[k] for k in want}
            if got != want:
                reasons.append(f"verdicts {got}, expected {want}")
            reasons += [f"{key} differs from the seed-0 reference"
                        for key, text in self._texts(label, out).items()
                        if ref and not _same_up_to_rounding(text, ref[key])]
            if reasons:
                bad[i] = "; ".join(reasons)
        return bad


class Verify:
    """``tractlab verify`` through ``cli.main``: engine, oracle and bounds.

    The timed operation is the seed-0 report on 10 instances, whose cost
    is fixed and about 3 s (the default 50 instances take 9-13 s, too
    long to repeat often in a run); the cost of other verify seeds varies
    threefold with their random instances, so the run's own seed is
    verified once, untimed and with the default 50 instances, in the
    gate.  The gate requires exit code 0 and PASS on every line, and the
    seed-0 report byte-identical to the stored reference.
    """

    name = "verify"
    argv = ["verify", "--seed", "0", "--instances", "10"]

    def __init__(self, seed, quick=False, workdir=None):
        self.seed = seed
        self.ops = [Op("verify_seed0", lambda: _cli(self.argv))]

    def reference_path(self):
        return REFERENCE / "verify_seed0.txt"

    def check(self, outs):
        reason = self._report_problem(outs[0])
        if reason is None and outs[0]["out"] != self.reference_path().read_text():
            reason = "seed-0 report differs from the stored reference"
        return {0: reason} if reason else {}

    def extra_checks(self, outs):
        """Gate-only operations: (key, reason or None)."""
        if self.seed == 0:
            return []
        out = _cli(["verify", "--seed", str(self.seed)])
        return [(f"verify_seed{self.seed}", self._report_problem(out))]

    @staticmethod
    def _report_problem(out):
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        lines = out["out"].splitlines()[1:-1]
        failing = [line for line in lines if not line.startswith("PASS")]
        return f"failing checks: {failing}" if failing else None

    def reference(self, outs):
        return outs[0]["out"]


WORKLOADS = {w.name: w for w in (SmallAnswers, LargeAnswers, Criteria, Verify)}
