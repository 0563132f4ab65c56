"""Product spectra and the exact information-complexity engine.

The d-variate eigenvalues are all products of univariate eigenvalues,
one factor per coordinate.  The minimal number of linear functionals
needed to cut the initial error by a factor eps is the smallest n whose
top-n eigenvalue sum reaches (1 - eps^2) times the exact trace.

Small answers come from a max-heap over multi-indices that enumerates
product eigenvalues in non-increasing order, generating each index
exactly once: from index z, coordinate i may be incremented only if every
later coordinate still sits at index 1.  Values are handled as sums of
logarithms so the ordering survives small products.  The heap runs only
where it may decide: when Cauchy-Schwarz, with the sum of squared products
in closed form, puts the answer past its pop cap, it is skipped.  Every
other answer comes from a level-set fold: two balanced sides, each every
product above the floor of its coordinates, whose pairs it counts and sums
above a value level without materializing them; it sorts only the boundary
slice where the partial sum crosses the threshold.  Both engines are
exact above their floors: they miss only the declared tails of explicit
spectra.  One scan decides every crossing, on the heap's values, the
fold's boundary slice and the oracle's grid alike.

A result is *certified* when those tails plus a rounding allowance
provably cannot move the integer answer.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ._descriptors import integer
from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
)
from .spectra import ExplicitSpectrum, Spectrum

_DEFAULT_N_MAX = 10_000_000
_DEFAULT_HEAP_BYTES = 2 << 30
# brute_force_complexity's limits: product grid entries, values per coordinate
_BRUTE_GRID_CAP = 10_000_000
_BRUTE_COORD_CAP = 1_000_000


@dataclass(frozen=True)
class Budget:
    """Resource limits for one complexity computation."""

    n_max: int = _DEFAULT_N_MAX
    heap_bytes: int = _DEFAULT_HEAP_BYTES

    def __post_init__(self):
        if not all(map(integer(1).test, (self.n_max, self.heap_bytes))):
            raise DomainError(f"budget limits must be positive integers, got {self}")

    def heap_entries(self, d: int) -> int:
        # rough per-entry footprint: heap slot + float + d-tuple of small ints
        return max(1024, self.heap_bytes // (120 + 16 * d))


@dataclass(frozen=True)
class ComplexityResult:
    """Exact (or bracketed) information complexity at one (eps, d) point."""

    epsilon: float
    d: int
    n: int
    partial_sum: float
    trace: float
    certified: bool
    pops: int
    n_low: int
    n_high: int

    def to_record(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d": self.d,
            "n": self.n,
            "certified": self.certified,
            "partial_sum": self.partial_sum,
            "trace": self.trace,
            "pops": self.pops,
        }


@dataclass(frozen=True)
class ProductProblem:
    """Ordered list of univariate spectra defining a tensor-product problem."""

    coordinates: Tuple[Spectrum, ...]

    def __post_init__(self):
        coords = tuple(self.coordinates)
        object.__setattr__(self, "coordinates", coords)
        if not coords:
            raise DomainError("a product problem needs at least one coordinate")

    @property
    def d(self) -> int:
        return len(self.coordinates)

    def log_trace_d(self) -> float:
        return math.fsum(math.log(c.trace()) for c in self.coordinates)

    def trace_d(self) -> float:
        """Product of coordinate traces (inf when outside double range)."""
        lt = self.log_trace_d()
        return math.exp(lt) if lt < 709.0 else math.inf

    def log_power_sum_d(self, tau: float) -> float:
        total = 0.0
        for k, c in enumerate(self.coordinates, start=1):
            try:
                total += math.log(c.power_sum(tau))
            except DivergenceError as exc:
                raise DivergenceError(
                    f"power sum diverges at tau={tau} in coordinate {k}",
                    tau_min=exc.tau_min,
                    coordinate=k,
                ) from exc
        return total

    def log_leading(self) -> float:
        return math.fsum(math.log(c.leading()) for c in self.coordinates)

    def normalized_log_trace(self) -> float:
        """ln of trace / leading-eigenvalue, the scale-free problem size."""
        return math.fsum(
            math.log(c.trace()) - math.log(c.leading()) for c in self.coordinates
        )

    def normalized_trace(self) -> float:
        """trace / leading-eigenvalue as a direct product.

        A direct product keeps exactly-representable traces exact (one
        rounding per factor), where exp(sum of logs) would not; callers
        must guard against overflow via normalized_log_trace first.
        """
        out = 1.0
        for c in self.coordinates:
            out *= c.trace() / c.leading()
        return out


def _coordinate_tables(coords: Sequence[Tuple[Spectrum, int]]) -> list:
    """Normalized log eigenvalue accessors of (spectrum, length) pairs: a
    table for lengths up to 4096, built eagerly, and past that a memoized
    call, since the heap asks for the same few values once per child."""
    logb = []
    for src, length in coords:
        base = src.log_eigenvalue(1)
        if length <= 4096:
            table = [src.log_eigenvalue(j) - base for j in range(1, length + 1)]
            logb.append(table.__getitem__)  # 0-based
        else:
            logb.append(functools.lru_cache(maxsize=None)(
                lambda j0, s=src, b=base: s.log_eigenvalue(j0 + 1) - b))
    return logb


def _stream_normalized(
    coords: Sequence[Tuple[Spectrum, int]],
    log_floor: float,
    max_entries: int,
) -> Iterator[Tuple[tuple, float]]:
    """Yield (multi-index, log normalized value) in non-increasing order,
    each (spectrum, length) pair cut after its first length eigenvalues.

    Only indices whose value is >= exp(log_floor) are visited; children
    below the floor are pruned, which is safe because values are
    non-increasing along every successor edge.  An entry (-log v, z,
    first) carries the last position of z above index 1 (0-based, or 0),
    the first its children may increment (z is unique: first is never
    compared).  Past first, z sits at index 1, where a child's value is
    exactly logv + logb[i](1); once logv + reach[i], the largest such step
    at or after i, is below the floor, every later child would be pruned
    and the loop stops, so the stream is that of the unpruned loop.  With
    non-increasing weights a pop reads about as many values as it keeps
    children, not d.
    """
    logb, lengths = _coordinate_tables(coords), [m for _c, m in coords]
    d = len(coords)
    steps = [logb[i](1) if lengths[i] > 1 else -math.inf for i in range(d)]
    reach = list(itertools.accumulate(steps[::-1], max))[::-1]
    heap = [(-0.0, (1,) * d, 0)]
    while heap:
        neg, z, first = heapq.heappop(heap)
        logv = -neg
        yield z, logv
        for i in range(first, d):
            ji = z[i]
            if ji == 1 and logv + reach[i] < log_floor:
                break
            if ji >= lengths[i]:
                continue
            child_log = logv - logb[i](ji - 1) + logb[i](ji)
            if child_log < log_floor:
                continue
            if len(heap) >= max_entries:
                raise BudgetExceededError(
                    "enumeration heap exceeded its memory budget",
                    n_lower=0,
                )
            heapq.heappush(heap, (-child_log, z[:i] + (ji + 1,) + z[i + 1 :], i))


def _cut(spectra, tol: float, log_floor: float):
    """Each spectrum cut with truncate(tol), as (spectrum, length) pairs, and
    log_floor raised to the largest normalized log value the cuts leave out.
    A product left out has a coordinate past its cut, so it is at most that
    coordinate's first left-out value (every other factor is at most 1):
    above the raised floor, the pairs hold every product, and the cut only
    sizes the tables.  Declared tails hold no listed value and stay out."""
    coords = [(c, c.truncate(tol)) for c in spectra]
    return coords, max([log_floor] + [
        c.log_eigenvalue(m + 1) - c.log_eigenvalue(1) for c, m in coords])


def top_eigenvalues(
    problem: ProductProblem,
    n_max: int,
    floor: float = 0.0,
    budget: Optional[Budget] = None,
) -> Iterator[Tuple[tuple, float]]:
    """Stream the largest product eigenvalues in non-increasing order.

    Stops after ``n_max`` items or once values drop below ``floor``.
    Each multi-index is produced exactly once.  Each coordinate is cut at a
    1e-9 share of its trace, which raises the floor to the largest value
    the cuts leave out (_cut): the stream may end early, even at floor 0,
    but it never skips a larger product.
    """
    if not integer(0).test(n_max):
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    if not floor >= 0.0:  # NaN fails too
        raise DomainError(f"floor must be >= 0, got {floor!r}")
    budget = budget or Budget()
    log_scale = problem.log_leading()
    log_floor = math.log(floor) - log_scale if floor > 0.0 else -math.inf
    coords, log_floor = _cut(problem.coordinates, 1e-9, log_floor)
    stream = _stream_normalized(coords, log_floor, budget.heap_entries(problem.d))
    items = ((z, math.exp(logv + log_scale) if logv + log_scale > -745.0 else 0.0)
             for z, logv in itertools.islice(stream, n_max))
    return itertools.takewhile(lambda item: item[1] >= floor, items)


def _reduced_spectra(problem: ProductProblem) -> tuple:
    """(spectra, ln of the share of the trace that the declared tails leave).
    Spectra with no mass past their leading eigenvalue only rescale the
    problem and are dropped: explicit lists with no tail and nothing positive
    after it, and Korobov spectra whose trace 1 + 2g zeta(2r) >= 1 + 2g
    rounds to 1 (so g <= 2^-54)."""
    spectra, log_untailed = [], 0.0
    for c in problem.coordinates:
        if isinstance(c, ExplicitSpectrum):
            if c.tail == 0.0 and (len(c.values) == 1 or c.values[1] == 0.0):
                continue
            a = c.trace() / c.leading()
            log_untailed += math.log(max(a - c.tail / c.leading(), 1e-300) / a)
        elif c.g <= 2.0 ** -54 and c.trace() == 1.0:
            continue
        spectra.append(c)
    return spectra, log_untailed


_TINY = 2.0 ** -1022  # the least normal double


class _Target:
    """The decision at one (problem, eps) point, shared by both engines.

    Values are normalized by the leading product eigenvalue; the answer is
    the first n whose top-n sum S_n reaches ``threshold`` = (1 - eps^2) *
    ``trace``.  Values keeping a share exp(log_kept) of the trace miss at
    most ``lost(log_kept)`` of it: the declared tails for the engine, a
    truncation's tails for the oracle; ``rounding``, a 10^-12 share of the
    trace, covers the summation error (the scan rounds each S_n correctly,
    _first_reaching; the fold's row terms add a few u, _LevelFold).  A
    crossing at n is certified when threshold - S_(n-1) > lost + rounding;
    top sets of kept values short of ``low(lost)`` = threshold - (lost +
    rounding) leave their exact counterparts short of the threshold, a lower
    bound for uncertified answers and the n_lower of over-budget ones, the
    oracle's grids that do not cross included.  ``trivial`` is the n = 0
    answer of eps = 1, also where the trace overflows and the threshold
    0 * inf is NaN.

    Results report sums times the leading product eigenvalue, ``scale``:
    multiplied out when every partial product of the coordinates' leading
    values is a normal double, so that it is within (d - 1)u of exact and a
    scaled sum takes one more rounding; else (scale None) formed in log
    space, where ln x + ln(scale) errs by about |ln x + ln(scale)| u."""

    def __init__(self, problem: ProductProblem, epsilon: float):
        if not 0.0 < epsilon <= 1.0:
            raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon, self.d = epsilon, problem.d
        leads = list(itertools.accumulate(
            (c.leading() for c in problem.coordinates), operator.mul))
        normal = all(_TINY <= p < math.inf for p in leads)
        self.scale = leads[-1] if normal else None
        self.log_scale = None if normal else problem.log_leading()
        self.trace = problem.normalized_trace()
        self.threshold = (1.0 - epsilon * epsilon) * self.trace
        self.rounding = 1e-12 * self.trace
        self.trivial = self.result(0, 0.0, True, 0, 0) if epsilon == 1.0 else None

    def lost(self, log_kept: float) -> float:
        return max(self.trace * (1.0 - math.exp(min(log_kept, 0.0))), 0.0)

    def low(self, lost: float) -> float:
        return self.threshold - (lost + self.rounding)

    def certified(self, crossed: bool, prev: float, lost: float) -> bool:
        return crossed and self.threshold - prev > lost + self.rounding

    def decide(self, values, lost: float, bound: float = math.inf):
        """(crossing, certified, short) on non-increasing kept values that
        miss at most ``lost``: _first_reaching's crossing at the threshold,
        and the size of the largest top set short of low(lost), n - 1 when
        certified (then S_(n-1) < low).

        ``bound``, a double at or above the exact sum of the values, spares
        the scans it decides: every prefix sum, correctly rounded, is at
        most the double bound, so a bound below the threshold proves that no
        n crosses (the crossing then reads (False, len, nan, nan): its sums
        go unscanned), and a bound below low(lost) too that every top set is
        short of low."""
        if bound < self.threshold:
            crossing = (False, len(values), math.nan, math.nan)
        else:
            crossing = _first_reaching(values, self.threshold)
        crossed, n, _partial, prev = crossing
        if self.certified(crossed, prev, lost):
            return crossing, True, n - 1
        low = self.low(lost)
        if bound < low:
            return crossing, False, len(values)
        reached, n_low = _first_reaching(values, low)[:2]
        return crossing, False, n_low - reached

    def _scaled(self, x: float) -> float:
        """x times the leading product eigenvalue (see the class)."""
        if self.scale is not None:
            return x * self.scale
        lv = math.log(x) + self.log_scale if x > 0.0 else -math.inf
        return math.exp(lv) if lv < 709.0 else math.inf

    def result(self, n, partial, certified, pops, n_low) -> ComplexityResult:
        return ComplexityResult(
            epsilon=self.epsilon, d=self.d, n=n, partial_sum=self._scaled(partial),
            trace=self._scaled(self.trace), certified=certified, pops=pops,
            n_low=n_low, n_high=n)


def info_complexity(problem: ProductProblem, epsilon: float,
                    budget: Optional[Budget] = None) -> ComplexityResult:
    """Exact n^avg(eps, d): minimal n with top-n sum >= (1 - eps^2) * trace.

    The decision (_Target) is made against the exact closed-form trace;
    declared tails and rounding are accounted for so that a certified result
    is a proof about the integer answer.  Uncertified results carry the
    bracketing interval [n_low, n_high] and report its larger end.

    The lazy heap runs once, for at most _HANDOFF_POPS pops, and a crossing
    it finds is the answer.  It runs only where it may decide: when the
    answer provably lies past its pops (_beyond_heap), it is skipped.
    Otherwise one fold walk answers, from where the heap stopped or from the
    level _beyond_heap proves.  Both hold every product above their floors,
    so either answer is certified against the declared tails alone.  When
    the threshold needs mass that only those tails hold, they may split into
    any number of values: BudgetExceededError, n_lower from a fold walk.
    ``pops`` counts heap pops (none when the heap is skipped) plus, for the
    fold decision, the products at or above its final lower level.  The
    closed forms take zeta(2r) and zeta(4r) from zeta's bounded memo, so
    each distinct argument is evaluated once."""
    target = _Target(problem, epsilon)
    if target.trivial:
        return target.trivial
    budget = budget or Budget()
    if problem.normalized_log_trace() > 690.0:  # the curse bound alone is past any budget
        raise BudgetExceededError("normalized trace overflows double range; n is "
                                  "astronomically large (curse of dimensionality)",
                                  n_lower=budget.n_max)
    d, threshold, trace = problem.d, target.threshold, target.trace
    spectra, log_untailed = _reduced_spectra(problem)
    tails = target.lost(log_untailed)
    low = target.low(tails)
    if tails > 0.0 and trace - tails < threshold + target.rounding:
        (crossed, n, _p, _q), _c, _n, ranked = _fold_decide(
            spectra, target, tails, low, 1.0, budget, 0)
        raise BudgetExceededError("declared tails block the threshold",
                                  n_lower=n - 1 if crossed else n, pops=ranked)
    heap_left = min(_HANDOFF_POPS, budget.n_max, budget.heap_entries(d) // d)
    values, upper = np.ones(0 if spectra else 1), 1.0  # all single atoms: 1 is the trace
    skip = _beyond_heap(spectra, threshold, heap_left) if spectra else None
    if skip is not None:
        upper = skip
    elif spectra and heap_left:
        values, upper = _heap_scan(spectra, target, heap_left)
    pops = len(values) if spectra else 0
    (crossed, n, partial, _prev), certified, short = target.decide(values, tails)
    if crossed:
        return target.result(n, partial, certified, pops, short + 1)
    (_c, n, partial, _prev), certified, n_low, ranked = _fold_decide(
        spectra, target, tails, threshold, upper, budget, pops)
    return target.result(n, partial, certified, pops + ranked, n_low)


# Heap pops a call may spend before the fold takes over, sooner once the pops
# left, each at most the last value, cannot reach the threshold.  The cap keeps
# every small_answers point (<= 1,963 pops) on the heap; timings in CHANGES.md.
# The heap runs only where it may decide: _beyond_heap skips it, and its pops,
# for answers that Cauchy-Schwarz puts past the cap.
_HANDOFF_POPS = 2048


def _beyond_heap(spectra, threshold, heap_left):
    """The level where the fold walk starts when no crossing lies within
    heap_left pops, proven without a pop; else None.

    The normalized products sum their squares to S2, the product over the
    spectra of 1 + excess_power_sum(2) (a declared tail's bound included),
    so by Cauchy-Schwarz any k of them sum to at most sqrt(k S2): with
    heap_left S2 < threshold^2, even the top heap_left fall short.  A
    margin of 2e-9 on that test allows for rounding (u = 2^-53):
    * the heap's values are exp of sums of logs, not exact products.  A
      value's log is its factors' table entries plus two roundings per
      step along its fewer than heap_left ancestors.  An entry errs by u
      times the logs it takes: two below 745 for an explicit value and
      its leading one, under 4 * 64 for a Korobov one (1.8e-13); a step's
      terms lie within the floor's [-64, 64] (1.4e-14).  So a value, and a
      sum of them, is within 2048 * 1.94e-13 < 4e-10 of exact, 8e-10
      once squared;
    * each factor 1 + x of S2 is within 1e-15 x + 6u: zeta's error on a
      Korobov x = 2 g^2 zeta(4r) < 3.3, and a few roundings (an explicit x
      is an fsum of terms rounded thrice); the d - 1 products round once
      each.  As ln(1 + x) > x / 4.3 for those x and ln S2 <= ln(trace) <=
      690, S2 is within 7d u + 1e-15 * 4.3 * 690 < 7.8e-10 for d < 10^6.
    Together 1.6e-9, and the test rounds thrice.  Then n > K = threshold^2
    / S2, and S2 / threshold (or 1 if that is lower) is a valid start for
    the walk: fewer than K <= n products lie above it, as each adds more
    than (S2 / threshold)^2 to S2, and its first fold, at e^-1 of it,
    holds at most e^2 K < 7.4 n products.  As S2 >= 1, a threshold^2
    within the margin of heap_left decides without S2 (or zeta(4r))."""
    room = threshold * threshold * (1.0 - 2e-9)
    if room <= heap_left:
        return None
    s2 = math.prod(1.0 + c.excess_power_sum(2.0) for c in spectra)
    return min(1.0, s2 / threshold) if heap_left * s2 < room else None


def _heap_scan(spectra, target, pops_left):
    """(values, level): the values the lazy heap pops, in order, and a level
    no unpopped value exceeds, where the fold starts if _Target.decide finds
    no crossing in them.  It pops until their float sum s_n surely crosses
    the threshold, its pops left (each at most the last value) cannot reach
    it, it has popped pops_left values, or its values above the floor run
    out.  Summed in order, n values >= 0 err by at most (n - 1)u / (1 - (n -
    1)u) <= 2nu of their sum (u = 2^-53), so s_n - threshold > 2.3e-16 n s_n
    puts that sum, and its correct rounding, at or above the threshold.
    Each spectrum is cut once, at tol = min(1e-3 (1 - eps^2), 1e-6) / d of
    its trace, to bound the heap's tables, and _cut raises the floor over
    every value the cuts leave out, so the heap streams every product above
    it, as the fold holds them.  A pop adds at most d heap entries, so
    pops_left bounds the heap's memory."""
    eps2, threshold = target.epsilon * target.epsilon, target.threshold
    tol = min(1e-3 * (1.0 - eps2), 1e-6) / target.d
    coords, log_floor = _cut(spectra, tol, max(min(-8.0, math.log(eps2) - 2.0), -64.0))
    values, acc, level = [], 0.0, 1.0
    stream = _stream_normalized(coords, log_floor, math.inf)
    for n, (_z, logv) in enumerate(itertools.islice(stream, pops_left), 1):
        level = math.exp(logv)
        values.append(level)
        acc += level
        if (acc - threshold > 2.3e-16 * n * acc
                or threshold - acc > (pops_left - n) * level):
            return np.array(values), level
    dry = len(values) < pops_left  # the stream, not the cap, ended the pops
    return np.array(values), math.exp(log_floor) if dry else level


def _runs(values, mults=None):
    """(values, multiplicities): the distinct values of a multiset,
    descending, each with its number of copies.  Without ``mults`` each
    value is one copy and ``values`` is non-increasing already, as a column
    from dense_values is (a Korobov pair is one run of 2); with them, values
    come in any order and are sorted first.  Multiplicities are doubles
    that hold integers (exact: see _LevelFold)."""
    if mults is not None:
        order = np.argsort(values)[::-1]
        values, mults = values[order], mults[order]
    edges = np.empty(len(values) + 1, dtype=bool)  # where a run starts or all end
    edges[0] = edges[-1] = True
    np.not_equal(values[1:], values[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    starts = bounds[:-1]
    if mults is None:
        return values[starts], (bounds[1:] - starts).astype(np.float64)
    return values[starts], np.add.reduceat(mults, starts)


def _memory_error():
    return BudgetExceededError("dense enumeration exceeded its memory budget")


# A fold holds fewer products than this, or it raises: then every sum of
# multiplicities is an exact double, and each splits into two 26-bit halves.
_COUNT_CAP = 2.0 ** 52


def _dense_fold(side, col, floor, max_entries):
    """Every product >= floor of a value of side, each >= floor (as
    _two_sides's sides are), and one of col (non-increasing from exactly
    1), as unordered (values, multiplicities), equal values not merged: a
    product's multiplicity is its factors' multiplied.  Products < floor
    drop, as further factors are <= 1.  A value of side times col's 1 is
    itself, so side is copied whole, and only the rows that reach past the
    1 (floor / prod <= col's second value) are searched and multiplied out:
    in a short column's fold most rows meet only its 1."""
    (prod, prod_mult), (v, v_mult) = side, col
    need = floor / prod  # the least factor that keeps a row's products
    reach = need <= (v[1] if len(v) > 1 else 0.0)
    rows, tail = prod[reach], v[1:]
    counts = np.searchsorted(-tail, -need[reach], side="right")
    start = len(prod)
    total = start + int(counts.sum())
    if total > max_entries:
        raise _memory_error()
    idx = np.arange(total - start) - np.repeat(np.cumsum(counts) - counts, counts)
    out, mult = np.empty(total), np.empty(total)
    out[:start] = prod
    np.multiply(np.repeat(rows, counts), tail[idx], out=out[start:])
    np.multiply(prod_mult, v_mult[0], out=mult[:start])
    np.multiply(np.repeat(prod_mult[reach], counts), v_mult[1:][idx], out=mult[start:])
    return out, mult


def _two_sides(cols, floor, max_entries, keys=None):
    """(col, rows) of _LevelFold from the columns' runs: col descending,
    rows ascending, each (values, multiplicities) with distinct values.
    Longest first (in products), each column folds into the side of fewer
    products, as the same doubles whatever merges: equal factors make
    equal products.  A side merges its equal values (a sort) once its
    folds have at least doubled the entries it held at its last merge, and
    after its last fold; a lone column is merged already.  So every merge
    sorts at most twice the entries the folds added since the one before:
    equal coordinates, whose products repeat, merge after nearly every
    fold, and distinct ones, whose folds add few entries to a long side,
    do not sort it again for each.  Rows is the side of fewer distinct
    values.

    ``keys`` (default: all distinct) are equal for equal columns.  A side
    is a function of the keys folded into it, in order: the same folds and
    merges of the same inputs, in the same order, give the same doubles.
    So a side whose next fold would give it the other side's keys takes
    that side, bit for bit what the fold would build, and merges it once."""
    sides, counts, merged = [(np.ones(1), np.ones(1))] * 2, [1.0, 1.0], [1, 1]
    seqs = [(), ()]  # the keys folded into each side
    keys = range(len(cols)) if keys is None else keys
    for c, n, k in sorted(((c, c[1].sum(), k) for c, k in zip(cols, keys)),
                          key=lambda cnk: cnk[1], reverse=True):
        if n == 1.0:
            continue  # the leading 1 alone changes no product
        i = int(counts[1] < counts[0])
        seqs[i] += (k,)
        if seqs[i] == seqs[1 - i]:
            sides[i], counts[i], merged[i] = sides[1 - i], counts[1 - i], merged[1 - i]
            continue
        if counts[i] == 1.0:
            sides[i], merged[i] = c, len(c[0])
        else:
            side = _dense_fold(sides[i], c, floor, max_entries)
            if len(side[0]) >= 2 * merged[i]:
                side = _runs(*side)
                merged[i] = len(side[0])
            sides[i] = side
        counts[i] = sides[i][1].sum()
    # a side longer than at its last merge has unmerged entries; a shared
    # side merges once, and rows is then a reversed view of col
    shared = seqs[0] == seqs[1]
    sides = [s if len(s[0]) == m else _runs(*s)
             for s, m in zip(sides[:2 - shared], merged)]
    rows, col = sorted(sides * (1 + shared), key=lambda s: len(s[0]))
    return col, (rows[0][::-1], rows[1][::-1])


def _prefix_sums(x):
    """Compensated prefix sums of x >= 0: np.cumsum plus the cumsum of each
    addition's exact error (Knuth's TwoSum, exact whatever the order of the
    terms' sizes), rounded once.  With u = 2^-53 and S_k = sum(x[:k+1]),
    each error e_i <= u hi_i <~ u S_k, their rounded cumsum errs by <= (k-1)
    u sum e_i <= k^2 u^2 S_k, and entry k lies within u + k^2 u^2 of S_k,
    relative: correctly rounded unless near a tie."""
    hi = np.cumsum(x)
    prev = np.concatenate(([0.0], hi[:-1]))  # the sum before each addition
    kept = hi - prev  # the part of the term that the addition kept
    err = x - kept  # the term's error, plus the sum's below
    np.add(err, np.subtract(prev, np.subtract(hi, kept, out=kept), out=prev), out=err)
    return np.add(hi, np.cumsum(err, out=err), out=hi)


_SLICE_ENTRIES = 1 << 16  # a boundary slice this small is sorted, not split


class _LevelFold:
    """Every normalized product eigenvalue >= floor of the spectra, held as
    level sets of distinct values with multiplicities.  Its columns hold
    each spectrum's values >= floor, so it misses only the declared tails of
    explicit spectra.

    _two_sides folds the columns' runs into two sides, each every product
    >= floor of its coordinates (a product >= floor has every factor >=
    floor), with equal products merged: descending distinct values ``col``
    with multiplicities b_j, and the side of fewer distinct values as
    ascending ``rows`` with multiplicities a_i.  The products >= a level t
    in row i are the b_j copies of rows_i col_j over the first c_i = #{j :
    col_j >= t / rows_i} values of ``col``, a_i B[c_i] products (B the
    cumulative b_j, ``below``) summing to a_i rows_i M[c_i] (M the prefix
    sums of b_j col_j, ``prefix``): a level costs a search per distinct
    row, memory |rows| + |col| distinct values, however many copies.

    Each b_j col_j rounds once and _prefix_sums errs by u + m^2 u^2 (u =
    2^-53, m = len(col)), so M is within 2u + m^2 u^2 of its exact sum;
    a_i rows_i, ``weights``, and its product with M[c_i] round once each,
    which puts each row term within 4u + m^2 u^2, and the correct rounding
    of their exact sum (_exact_parts) within 5u + m^2 u^2: below 6u for m <
    9e7.  In either association a product takes at most d - 1 roundings,
    (d - 1)u relative, so the sums err by far less than _Target's 1e-12
    share of the trace for d < 4000.

    Multiplicities and counts are integers held as doubles.  The fold
    raises BudgetExceededError when it holds _COUNT_CAP = 2^52 products or
    more; else they are exact, as every count it forms is at most that:
    each value of a side meets the other side's leading 1, so a side, and
    each side before it folds on, counts at most what the fold holds.

    No coordinate's column holds more than ``cap`` = n_max + 1 values: one
    reaching cap raises the floor to its cap-th value, and with the others'
    leading 1 gives cap products at or above it, so the fold keeps the top
    n_max products.  Values left out lie at or below the new floor, the cut
    to cap drops only values equal to it and the sides only products below
    it: the fold holds every product above its floor and some of those
    equal to it, so its counts and sums are still those of top sets.

    ``keys`` (default: all distinct) gives each spectrum the index of the
    first one equal to it; equal spectra share one column and _two_sides
    builds equal sides once.  dense_values is a function of the spectrum,
    floor and limit, so the shared column, the raised floor and every
    value, multiplicity and count are bit for bit those of one column per
    coordinate."""

    def __init__(self, spectra, floor, max_entries, cap, keys=None):
        keys = range(len(spectra)) if keys is None else keys
        # fetching cap + 1 values makes a column cut short by the limit
        # (Korobov keeps whole pairs) reach cap, so the floor rises to at
        # least every value the limit left out
        cols = {k: spectra[k].dense_values(floor, cap + 1) for k in dict.fromkeys(keys)}
        raised = [float(c[cap - 1]) for c in cols.values() if len(c) >= cap]
        if raised:
            floor = max(raised)
            cols = {k: c[c >= floor][:cap] for k, c in cols.items()}
        if max(len(c) for c in cols.values()) > max_entries:
            raise _memory_error()
        cols = {k: _runs(c) for k, c in cols.items()}  # freeing the full columns
        (col, col_mult), (self.rows, self.row_mult) = _two_sides(
            [cols[k] for k in keys], floor, max_entries, keys)
        del cols
        # the prefix sums first, while their temporaries are the only others
        self.prefix = np.concatenate(([0.0], _prefix_sums(col * col_mult)))
        self.below = np.concatenate(([0.0], np.cumsum(col_mult)))
        self._ends = np.concatenate((col, [0.0, math.inf]))  # empty-slice pads
        self.col = self._ends[:-2]
        self._neg_col = -self.col
        self.floor, self.max_entries = floor, max_entries
        self.weights = self.rows * self.row_mult
        self.bottom = self.counts(floor)
        held = self.row_mult @ self.below[self.bottom]  # bounds every count
        if held >= _COUNT_CAP:
            raise BudgetExceededError("the fold holds 2^52 products or more")
        self.held = int(held)
        self.total = float(self.mass(self.bottom).sum())

    def counts(self, level):
        """c_i = #{j : col_j >= level / rows_i}, per row."""
        return np.searchsorted(self._neg_col, -level / self.rows, side="right")

    def number(self, counts):
        """The products at these per-row counts: the sum of a_i B[c_i]."""
        return int(self.row_mult @ self.below[counts])

    def mass(self, counts, start=0):
        """a_i rows_i M[c_i], per row from ``start`` on."""
        return self.weights[start:] * self.prefix[counts]

    def first_reaching(self, target, upper):
        """(n, partial_n, partial_(n-1), count at the final lower level) for
        the first n whose top-n sum reaches target, or None.
        Splits the levels between the floor and ``upper`` until at most
        _SLICE_ENTRIES products lie between them or they all tie;
        _first_reaching then decides on that slice: its distinct (row, col)
        pairs, merged into runs of equal values.  With the slice's values in
        [b, a], a split aims where the mass, linear in ln(level) between the
        sums at the slice's ends, reaches target, within the middle 80% of
        ln(a/b); after an aimed split that did not halve the slice, the next
        is at sqrt(ab).  No split widens ln(a/b) and each sqrt(ab) halves
        it, from ln(1 / 1e-300) < 700 to a tie's 2^-40 in at most 50: with
        the aimed splits that halve the slice, at most 101 + log2(slice /
        2^16) rounds.  The splits move the count at the final lower level
        and, by a few u, the row terms above the slice's values, whose
        correctly rounded sum is the scan's base."""
        rows, lo, lo_mass = self.rows, self.bottom, self.total
        hi = self.counts(upper)

        def mass_at(counts):
            terms = self.mass(counts)
            total = float(terms.sum())
            # any summation order errs by at most (k-1)u of the sum, so only
            # a total this close to the target needs the correct rounding
            if abs(total - target) <= 2.3e-16 * (len(terms) + 4) * total:
                total = math.fsum(_exact_parts(terms))
            return total

        hi_mass = mass_at(hi)
        if hi_mass >= target:
            hi, hi_mass = np.zeros_like(lo), 0.0
        size, aim = self.number(lo) - self.number(hi), True
        while size > _SLICE_ENTRIES:
            a = float((rows * self._ends[hi]).max())  # largest value in the slice
            b = float((rows * self._ends[lo - 1]).min())  # smallest
            if a <= b * (1.0 + 2.0 ** -40):
                break  # one tied value fills the slice: no level splits it
            share = (min(max((target - hi_mass) / (lo_mass - hi_mass), 0.1), 0.9)
                     if aim and lo_mass > hi_mass else 0.5)
            mid = self.counts(a * (b / a) ** share)
            mass = mass_at(mid)
            if mass >= target:
                lo, lo_mass = mid, mass
            else:
                hi, hi_mass = mid, mass
            last, size = size, self.number(lo) - self.number(hi)
            aim = not aim or 2 * size <= last
        z = max(int(np.searchsorted(hi, 1)) - 1, 0)  # counts ascend with rows
        base = math.fsum(_exact_parts(self.mass(hi[z:], z)))
        width = lo - hi
        size, count = int(width.sum()), self.number(hi)
        if size > self.max_entries:
            raise _memory_error()
        ends = np.cumsum(width)  # row i's slice: idx hi_i to lo_i - 1
        idx = np.repeat(np.subtract(lo, ends, out=ends), width) + np.arange(size)
        values, mults = _runs(
            np.repeat(rows, width) * self.col[idx],
            np.repeat(self.row_mult, width) * (self.below[idx + 1] - self.below[idx]))
        crossed, k, partial, prev = _first_reaching(values, target, base, mults)
        return (count + k, partial, prev, self.number(lo)) if crossed else None


def _fold_decide(spectra, target, lost, goal, upper, budget, pops):
    """Level-set walk to the first n whose top-n sum reaches ``goal``, with
    folds at floors stepping down from e^-1 ``upper``.  The mass below a
    level falls about like a power of it, so the next floor extrapolates
    ln(kept - sum) in ln(level) from the last two levels to the crossing, in
    steps clamped to [0.25, 2]; ``kept``, the trace less ``lost``, the
    declared tails, is the mass of all products.  That power grows with
    depth on the curse and k^-3 weights, so the walk lands a little below
    the crossing.  It ends uncrossed only at the floor 1e-300.  Returns
    ((crossed, n, partial_n, partial_(n-1)), certified, n_low, count at its
    lower level), certified and n_low as _Target decides them.

    Past n_max it raises BudgetExceededError.  Its n_lower, which the answer
    exceeds, is proven with the proven-short level low(lost) (_Target.low):
    it holds for every top set below the first reaching low, and for the
    whole fold when its total stays below it.  A memory check of the fold
    raises the same error with the largest fold proven short of low so far
    as its n_lower, and the products that fold counted as its pops."""
    low, kept = target.low(lost), target.trace - lost
    # a distinct value of a fold's rows and col, and an entry of a side or a
    # slice before it is merged, keeps about eight 8-byte arrays (values,
    # multiplicities, counts, sums, sort order) alive at once
    max_entries = max(budget.heap_bytes // 64, 1 << 20)
    first = {}  # equal spectra fold as one, keyed by the first of them
    keys = [first.setdefault(c, i) for i, c in enumerate(spectra)]
    step = 1.0
    above = None  # the sum of the values >= upper, once known
    short = counted = 0  # the largest count proven short of low; the last fold's
    try:
        while True:
            floor = max(upper * math.exp(-step), 1e-300)
            fold = _LevelFold(spectra, floor, max_entries, budget.n_max + 1, keys)
            floor, count, total = fold.floor, fold.held, fold.total
            counted = count
            if total < low:
                short = count
            hit = fold.first_reaching(goal, upper) if total >= goal else None
            if hit or floor <= 1e-300 or count > budget.n_max:
                break
            if above is None:
                above = float(fold.mass(fold.counts(upper)).sum())
            fall = (math.log((kept - above) / (kept - total))
                    if total < goal < kept else 0.0)
            gap = math.log((kept - total) / (kept - goal)) * math.log(
                upper / floor) / fall if fall > 0.0 else 2.0
            upper, above, step = floor, total, min(max(gap, 0.25), 2.0)
        if hit and hit[0] <= budget.n_max or not hit and floor <= 1e-300:
            crossing = (True,) + hit[:3] if hit else (False, count, total, total)
            certified = target.certified(crossing[0], crossing[3], lost)
            n_low = crossing[1]
            if not certified:
                reach = fold.first_reaching(low, math.inf) if low > 0.0 else (1,)
                n_low = reach[0] if reach else n_low
            return crossing, certified, n_low, hit[3] if hit else count
        # past n_max: the fold holds a top set that falls short
        over = fold.first_reaching(low, math.inf) if total >= low else None
    except BudgetExceededError as exc:  # only the fold's own checks raise here
        raise BudgetExceededError(str(exc), n_lower=short,
                                  pops=pops + counted) from exc
    raise BudgetExceededError("answer exceeds the enumeration budget",
                              n_lower=over[0] - 1 if over else count,
                              pops=pops + (hit[3] if hit else count))


_SUM_CHUNK = 1 << 14  # _exact_parts's chunk: a call traces about 0.3 MB
_LOW_BITS = (1 << 26) - 1  # the mantissa bits that _exact_parts splits off
_SHORT_PARTS = 64  # arrays up to this long are their own exact parts


def _exact_parts(x):
    """A list of doubles whose exact sum is that of x, for finite doubles
    x >= 0 with a finite sum.

    An array of at most _SHORT_PARTS values is its own list of parts: its
    values as Python floats, exactly, for one numpy call where the split
    below pays about eleven.  A longer one is split in numpy per
    _SUM_CHUNK entries.  Each value splits exactly into hi, itself with its
    26 low mantissa bits cleared, and lo = x - hi, those bits alone.
    Among entries that share an exponent field, of exponent e, every hi is
    a multiple of 2^(e-26) below 2^(e+1) and every lo one of 2^(e-52)
    below 2^(e-26) (subnormals: of 2^-1074, as for e = -1022).  So each
    part's sum over up to 2^26 such entries, and a chunk holds fewer, is an
    integer below 2^53 times its unit: every addition is exact, in any
    order.  The parts are those sums over each exponent of the chunk
    (np.bincount), at most two per exponent, in sorted input or not.
    """
    if len(x) <= _SHORT_PARTS:
        return x.tolist()
    if x.strides[0] < 0:
        x = x[::-1]  # the same values, in the memory order numpy runs fastest
    parts = []
    for k in range(0, len(x), _SUM_CHUNK):
        chunk = x[k:k + _SUM_CHUNK]
        bits = chunk.view(np.int64)
        exp = bits >> 52
        hi = np.bitwise_and(bits, ~_LOW_BITS).view(np.float64)
        for sums in (np.bincount(exp, weights=hi),
                     np.bincount(exp, weights=np.subtract(chunk, hi, out=hi))):
            parts += sums[sums != 0.0].tolist()
    return parts


def _run_parts(values, mults=None):
    """_exact_parts of np.repeat(values, mults), without the copies, for
    doubles values >= 0 and integer mults below _COUNT_CAP.  A value splits
    into its 27 high significant bits and its 26 low ones, as in
    _exact_parts, and a multiplicity into two 26-bit halves (the upper one
    0 below 2^26), so each product of a piece of each is exact: its
    significand has at most 53 bits."""
    if mults is None:
        return _exact_parts(values)
    hi = np.bitwise_and(values.view(np.int64), ~_LOW_BITS).view(np.float64)
    low = np.fmod(mults, 2.0 ** 26)
    high = mults - low
    parts = []
    for m in (low, high) if high.any() else (low,):
        for piece in (hi, values - hi):
            parts += _exact_parts(m * piece)
    return parts


def _times(t, v):
    """Doubles whose exact sum is t * v, for an int t >= 0 and a finite
    double v >= 0: t times v's integer significand, an exact int, is cut
    into correctly rounded doubles until nothing is left (at most three),
    each scaled by v's power of two.  Every cut keeps the trailing zeros
    that make v a multiple of 2^-1074, so the scaling is exact."""
    mant, exp = math.frexp(v)
    rest, parts = t * int(math.ldexp(mant, 53)), []
    while rest:
        part = float(rest)
        parts.append(math.ldexp(part, exp - 53))
        rest -= int(part)
    return parts


def _first_reaching(values, target, base=0.0, mults=None):
    """The scan every decision is made on: (crossed, k, P_k, P_(k-1)) for the
    first k >= 1 with P_k >= target in a non-increasing, non-negative
    array, where P_k = math.fsum([base] + values[:k]), the correctly rounded
    prefix sum; (False, len, P_len, P_len) when no k reaches target.  With
    ``mults``, integers (as doubles) that sum below _COUNT_CAP, the same
    scan of np.repeat(values, mults), without the copies.

    A correct rounding of a sum that gains a term >= 0 never falls, so P_k
    is monotone in k.  The scan keeps the exact parts (_run_parts) of the
    values it has passed, a _SUM_CHUNK-entry chunk at a time, and bisects
    the chunk whose parts first reach target, adding the parts of each half
    that falls short: the memory of one chunk and its parts, and every P_k
    it reports is fsum of exact parts, fsum's own double.  The bisection
    first splits where the chunk's np.cumsum crosses, then next to it: the
    exact parts still decide each split, so a wrong guess costs only a
    step, and a right one ends the search after two.  Within the run of m
    copies of v that first reaches target, t copies add _times(t, v), the
    exact t v, and a bisection over t in [1, m] decides, first at the
    quotient of the shortfall by v and next to it.
    """
    parts = [base]
    for k in range(0, len(values), _SUM_CHUNK):
        chunk = values[k:k + _SUM_CHUNK]
        reps = None if mults is None else mults[k:k + _SUM_CHUNK]
        more = _run_parts(chunk, reps)
        if math.fsum(parts + more) < target:
            parts += more
            continue
        lo, hi = 0, len(chunk)  # parts: base + values[:k+lo]; P_(k+hi) >= target
        # splits first at np.cumsum's crossing and next to it, a guess that
        # the exact parts check like any other split
        guess = int(np.searchsorted(np.cumsum(chunk if reps is None else chunk * reps),
                                    target - math.fsum(parts)))
        tries = iter((guess, guess + 1, guess - 1))
        while hi - lo > 1:
            mid = next((t for t in tries if lo < t < hi), (lo + hi) // 2)
            more = _run_parts(chunk[lo:mid], None if reps is None else reps[lo:mid])
            if math.fsum(parts + more) < target:
                parts += more
                lo = mid
            else:
                hi = mid
        v, n, t = float(chunk[lo]), k + lo, 1  # the values before, and copies of v
        if reps is not None:
            n = int(mults[:k + lo].sum())
            t = _copies_reaching(parts, v, int(reps[lo]), target)
        return (True, n + t, math.fsum(parts + _times(t, v)),
                math.fsum(parts + _times(t - 1, v)))
    total = math.fsum(parts)
    return False, len(values) if mults is None else int(mults.sum()), total, total


def _copies_reaching(parts, v, m, target):
    """The least t in [1, m] with fsum(parts + t copies of v) >= target,
    where m copies reach it: a bisection on the exact sums, first at the
    shortfall over v and just below it."""
    lo, hi = 0, m  # t = lo falls short, t = hi reaches
    guess = min(max(math.ceil((target - math.fsum(parts)) / v), 1), m)
    tries = iter((guess, guess - 1))
    while hi - lo > 1:
        t = next((t for t in tries if lo < t < hi), (lo + hi) // 2)
        if math.fsum(parts + _times(t, v)) < target:
            lo = t
        else:
            hi = t
    return hi


class _BruteForceOracle:
    """The brute-force oracle of one problem, called with an epsilon.

    Each attempt materializes every product of its truncation lengths and
    sorts them in place, so the grid of 8 bytes per entry (at most 80 MB at
    _BRUTE_GRID_CAP) is the only array of its length alive during a call:
    the scans of _Target.decide hold one chunk beside it.  The grid depends
    on epsilon only through those lengths: the first attempt's come from
    tol = 0.01/d and the grid cap alone.  So the oracle keeps the last
    attempt's lengths, descending grid and log kept mass for the next call,
    and drops them before it builds a grid for other lengths: at most one
    grid is alive.

    When the last grid does not cross (a declared tail, a cap or the attempt
    limit stops the refinement), its size bounds nothing, and the call raises
    BudgetExceededError with _Target.decide's short count as n_lower: a top
    set misses at most the grid's lost mass of the kept mass.

    Each grid comes with _grid_bound, a double at or above its exact sum,
    from its columns' sums alone.  _Target.decide skips the scans that bound
    decides, so a grid that falls short of the threshold is proven short
    without a scan over all of it.  The columns' closed forms take their
    zeta values from zeta's bounded memo.

    certifiable() bounds the kept mass of every grid the oracle can build
    from its columns' closed forms, and so tells, without a grid, whether
    any call can certify an answer.
    """

    def __init__(self, problem: ProductProblem):
        self.problem = problem
        self._lengths = None
        self._grid = None  # (descending grid, log kept mass, _grid_bound)

    def _lengths_at(self, tol):
        return [min(c.truncate(tol), _BRUTE_COORD_CAP)
                for c in self.problem.coordinates]

    def _sorted_grid(self, lengths):
        if lengths != self._lengths:
            self._lengths = self._grid = None  # free the old grid first
            coords = self.problem.coordinates
            grids = [c.dense_values(1e-300, m) for c, m in zip(coords, lengths)]
            prod = np.ones(1)  # a fresh grid even at d = 1, so grids stay unsorted
            for arr in grids:
                prod = np.multiply.outer(prod, arr).ravel()
            prod.sort()  # in place; prod[::-1].sort() would copy the whole grid
            log_kept = _log_kept(coords, [float(np.sum(g)) for g in grids])
            self._grid = (prod[::-1], log_kept, _grid_bound(grids))
            self._lengths = lengths
        return self._grid

    def certifiable(self) -> bool:
        """False when no grid this oracle can build certifies an answer at
        any eps < 1, decided without building one; True when one may.

        Every grid is cut at one tol in [1e-16, 0.5] (the refinement stops
        at 1e-16, and the first cut raises GridSizeError past 0.5) to the
        lengths _lengths_at(tol), whose product fits _BRUTE_GRID_CAP.  No
        truncate rises as tol grows, so when the lengths at lo do not fit,
        every grid is cut above lo and is no longer than they are.  The
        search bisects between such a lo and a hi whose lengths fit, and
        stops once the lengths at lo lose too much (False), the lengths at
        hi do not (True), or no double lies between the two (False: every
        grid is cut at hi or above).

        A column's kept mass never falls as it lengthens, so _kept_bound
        at lengths no grid exceeds bounds every grid's column sums.  Each
        bound exceeds its column's sum by 2^-30 of the coordinate's trace,
        so its share of the trace exceeds the column's by far more than
        the few u that np.sum, the division and the logarithm err: the
        log_kept a call computes is below the one computed here, and the
        mass it counts lost is at least ``lost`` here.

        A crossing at n certifies only when lost + rounding < threshold -
        P_(n-1), where P_k is the correctly rounded sum of the top k
        values (_first_reaching) and S_k its exact sum.  With P_n >=
        threshold and u = 2^-53, threshold - P_(n-1) <= P_n - P_(n-1) <=
        lambda_n + u (S_n + S_(n-1)), where the value lambda_n <= 1 (a
        product of normalized values) and S_n is at most the grid's 10^7
        entries: below 1 + 3e-9 with the subtraction's rounding.  So a grid
        that loses more than 2, twice the leading value, certifies nothing.
        Any change to how the oracle picks its grids' lengths must keep
        this argument sound.
        """
        coords, trace = self.problem.coordinates, self.problem.normalized_trace()

        def probe(tol):  # (the lengths at tol fit, every grid within them loses > 2)
            lengths = self._lengths_at(tol)
            log_kept = _log_kept(coords, list(map(_kept_bound, coords, lengths)))
            lost = trace * (1.0 - math.exp(min(log_kept, 0.0)))
            return math.prod(lengths) <= _BRUTE_GRID_CAP, lost > 2.0

        lo, hi = 1e-16, 0.5
        fits, loses = probe(lo)
        if fits or loses:  # no grid is longer than the lengths at lo
            return not loses
        fits, hi_loses = probe(hi)
        if not fits:
            return False  # no grid fits: the oracle raises GridSizeError
        while hi_loses:
            mid = math.sqrt(lo * hi)
            if not lo < mid < hi:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    return False  # every grid is cut at hi or above
            fits, loses = probe(mid)
            if fits:
                hi, hi_loses = mid, loses
            elif loses:
                return False  # every grid is cut above mid
            else:
                lo = mid
        return True

    def __call__(self, epsilon: float) -> ComplexityResult:
        target = _Target(self.problem, epsilon)
        if target.trivial:
            return target.trivial
        d, threshold = target.d, target.threshold
        tol = 0.01 / d  # coarse first pass; the margin drives refinement below
        while math.prod(self._lengths_at(tol)) > _BRUTE_GRID_CAP:
            tol *= 4.0
            if tol > 0.5:
                raise GridSizeError(
                    f"no truncation below tol=0.5 fits {_BRUTE_GRID_CAP} grid entries")
        pops, built = 0, None
        for _attempt in range(24):
            lengths = self._lengths_at(tol)
            if math.prod(lengths) > _BRUTE_GRID_CAP:
                break  # certification needs a grid the cap cannot hold
            if lengths != built:  # a tol that drops no more just shrinks again
                built = lengths
                order, log_kept, bound = self._sorted_grid(lengths)
                pops += len(order)
                t_mass = target.lost(log_kept)
                (crossed, n, partial, prev), certified, short = target.decide(
                    order, t_mass, bound)
                del order  # so that _sorted_grid can free this grid before the next
                if certified or t_mass <= 0.0:
                    break
                if crossed:
                    # jump straight to a tolerance that makes the total truncation
                    # mass comfortably smaller than the observed margin
                    need = max(threshold - prev, target.rounding) / (
                        8.0 * target.trace * d)
                else:
                    need = tol * 0.0625  # kept mass below threshold: just add length
            tol = max(min(need, tol * 0.25), 1e-16)
        if not crossed:  # the last grid's size bounds nothing; its short top sets do
            raise BudgetExceededError("the oracle's grid falls short of the threshold",
                                      n_lower=short, pops=pops)
        return target.result(n, partial, certified, pops, short + 1)


def _grid_bound(cols):
    """A double at or above the exact sum of the oracle's grid of cols.

    Each column is non-increasing from exactly 1 in (0, 1], and a grid
    entry is the product of one value per column, rounded after each
    factor in column order; the first factor, times 1, is exact.  With u =
    2^-53 and S_c a column's exact sum, so that the product of the S_c is
    the exact sum of the unrounded products:
    * each entry is at most its exact product times (1 + u)^(d-1), plus at
      most (d - 1) 2^-1074 where a partial product falls below the normal
      range (later factors <= 1 do not grow that);
    * fsum is correctly rounded: S_c <= fsum(c) / (1 - u);
    * the product B of the fsums, each >= 1, rounds d - 1 times: the exact
      product of the fsums is at most B / (1 - u)^(d-1).
    So the grid sums to at most B (1 + u)^(d-1) / (1 - u)^(2d-1) plus at
    most 10^7 d 2^-1074, below B (1 + (3d + 1)u) as B >= 1.  The factor
    1 + 4(d + 1)u is a double, and the rounded product B(1 + 4(d + 1)u)
    is at least B(1 + (4d + 3)u)(1 - u) > B (1 + (3d + 1)u)."""
    d, bound = len(cols), 1.0
    for c in cols:
        bound *= math.fsum(_exact_parts(c))
    return bound * (1.0 + 4 * (d + 1) * 2.0 ** -53)


def _log_kept(coords, sums):
    """ln of the share of the trace that columns of these sums keep."""
    return math.fsum(math.log(max(s / (c.trace() / c.leading()), 1e-300))
                     for c, s in zip(coords, sums))


def _kept_bound(c, length):
    """A double above the sum of the oracle's column of spectrum c at this
    length by at least 2^-30 of c's normalized trace.

    An explicit column, each value divided by the leading one, sums to
    within a few u of the fsum of the values, divided.  A Korobov column
    holds at most M = length // 2 pairs (a length is 2M + 1, or the even
    coordinate cap), and as x^-2r falls the pairs past M sum to at least
    2g times the integral of x^-2r from M + 1, 2g (M + 1)^(1-2r) / (2r -
    1): the column keeps at most the trace less that.  Both forms err by a
    few u of the trace (1e-15 relative for zeta), far below the slack."""
    if isinstance(c, ExplicitSpectrum):
        return (math.fsum(c.values[:length]) + 2.0 ** -30 * c.trace()) / c.leading()
    p = 2.0 * c.r - 1.0
    return c.trace() * (1.0 + 2.0 ** -30) - 2.0 * c.g * (length // 2 + 1.0) ** -p / p


def brute_force_complexity(problem: ProductProblem, epsilon: float) -> ComplexityResult:
    """Oracle engine: materialize every truncated product, sort, scan.

    Makes info_complexity's decision (_Target) on that grid, which caps it
    to small d, and raises BudgetExceededError when its last grid does not
    cross.  A one-shot call of the problem's oracle, _BruteForceOracle,
    which serves every eps from the grids it builds."""
    return _BruteForceOracle(problem)(epsilon)
