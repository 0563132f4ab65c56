"""Product spectra and the exact information-complexity engine.

The d-variate eigenvalues are all products of univariate eigenvalues,
one factor per coordinate.  The minimal number of linear functionals
needed to cut the initial error by a factor eps is the smallest n whose
top-n eigenvalue sum reaches (1 - eps^2) times the exact trace.

Small answers come from a max-heap over multi-indices that enumerates
product eigenvalues in non-increasing order, generating each index
exactly once: from index z, coordinate i may be incremented only if every
later coordinate still sits at index 1.  Values are handled as sums of
logarithms so the ordering survives small products; partial sums are
accumulated in linear space with compensated summation.  Every other
answer comes from a level-set fold that counts and sums the products
above a value level without materializing them, and sorts only the
boundary slice where the partial sum crosses the threshold.  Both engines
are exact above their floors: they miss only the declared tails of
explicit spectra.

A result is *certified* when those tails plus a rounding allowance
provably cannot move the integer answer.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ._descriptors import integer
from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
    IrreducibleTailError,
)
from .numutil import CompensatedSum
from .spectra import ExplicitSpectrum, Spectrum, TruncatedView

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

    def power_sum_d(self, tau: float) -> float:
        lp = self.log_power_sum_d(tau)
        return math.exp(lp) if lp < 709.0 else math.inf

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


def _coordinate_tables(
    views: Sequence[TruncatedView],
) -> Tuple[list, list]:
    """Per-coordinate normalized log eigenvalue accessors and lengths."""
    logb = []
    lengths = []
    for view in views:
        src = view.source
        base = src.log_eigenvalue(1)
        if view.length <= 4096:
            table = [src.log_eigenvalue(j) - base for j in range(1, view.length + 1)]
            logb.append(table.__getitem__)  # 0-based
        else:
            logb.append(lambda j0, s=src, b=base: s.log_eigenvalue(j0 + 1) - b)
        lengths.append(view.length)
    return logb, lengths


def _stream_normalized(
    views: Sequence[TruncatedView],
    log_floor: float,
    max_entries: int,
) -> Iterator[Tuple[tuple, float]]:
    """Yield (multi-index, log normalized value) in non-increasing order.

    Only indices whose value is >= exp(log_floor) are visited; children
    below the floor are pruned, which is safe because values are
    non-increasing along every successor edge.
    """
    logb, lengths = _coordinate_tables(views)
    d = len(views)
    start = (1,) * d
    heap = [(-0.0, start)]
    while heap:
        neg, z = heapq.heappop(heap)
        logv = -neg
        yield z, logv
        # last coordinate sitting above index 1 (0-based); successors may
        # only increment positions at or after it
        first = 0
        for i in range(d - 1, -1, -1):
            if z[i] > 1:
                first = i
                break
        for i in range(first, d):
            ji = z[i]
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
            heapq.heappush(heap, (-child_log, z[:i] + (ji + 1,) + z[i + 1 :]))


def top_eigenvalues(
    problem: ProductProblem,
    n_max: int,
    floor: float = 0.0,
    views: Optional[Sequence[TruncatedView]] = None,
    budget: Optional[Budget] = None,
) -> Iterator[Tuple[tuple, float]]:
    """Stream the largest product eigenvalues in non-increasing order.

    Stops after ``n_max`` items or once values drop below ``floor``.
    Each multi-index is produced exactly once.
    """
    if views is None:
        views = [c.truncate(1e-9) for c in problem.coordinates]
    budget = budget or Budget()
    log_scale = problem.log_leading()
    if floor > 0.0:
        log_floor = math.log(floor) - log_scale
    else:
        log_floor = -math.inf
    count = 0
    for z, logv in _stream_normalized(
        views, log_floor, budget.heap_entries(problem.d)
    ):
        if count >= n_max:
            return
        value = math.exp(logv + log_scale) if logv + log_scale > -745.0 else 0.0
        if floor > 0.0 and value < floor:
            return
        yield z, value
        count += 1


def _truncated(c: Spectrum, tol: float) -> TruncatedView:
    """c truncated at tol, or all its values when its declared tail exceeds tol."""
    try:
        return c.truncate(tol)
    except IrreducibleTailError:
        return TruncatedView(c, len(c.values), c.tail)


def _reduced_views(problem: ProductProblem, tol_per_coord: float) -> tuple:
    """(views, ln of the share of the trace that the declared tails leave).
    Coordinates that truncate to one eigenvalue with no tail only rescale
    the problem and are dropped."""
    views, log_untailed = [], 0.0
    for c in problem.coordinates:
        view = _truncated(c, tol_per_coord)
        if view.length == 1 and view.tail_mass == 0.0:
            continue
        if isinstance(c, ExplicitSpectrum):
            a = c.trace() / c.leading()
            log_untailed += math.log(max(a - c.tail / c.leading(), 1e-300) / a)
        views.append(view)
    return views, log_untailed


class _Target:
    """The decision at one (problem, eps) point, shared by both engines.

    Values are normalized by the leading product eigenvalue; the answer is
    the first n whose top-n sum S_n reaches ``threshold`` = (1 - eps^2) *
    ``trace``.  Values keeping a share exp(log_kept) of the trace miss at
    most ``lost(log_kept)`` of it: the declared tails for the engine, a
    truncation's tails for the oracle; ``rounding``, a 10^-12 share of the
    trace, covers the summation error.  A crossing at n is certified when
    threshold - S_(n-1) > lost + rounding; top sets of kept values short of
    ``low(lost)`` = threshold - (lost + rounding) leave their exact
    counterparts short of the threshold, a lower bound for uncertified and
    over-budget answers.  ``trivial`` is the n = 0 answer of eps = 1, also
    where the trace overflows and the threshold 0 * inf is NaN."""

    def __init__(self, problem: ProductProblem, epsilon: float):
        if not 0.0 < epsilon <= 1.0:
            raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
        self.epsilon, self.d = epsilon, problem.d
        self.log_scale = problem.log_leading()
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

    def _scaled(self, x: float) -> float:
        """x times the leading product eigenvalue, formed in log space."""
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
    truncation and rounding are accounted for so that a certified result is
    a proof about the integer answer.  Uncertified results carry the
    bracketing interval [n_low, n_high] and report its larger end.

    The lazy heap runs once, on one truncation, for at most _HANDOFF_POPS
    pops, and a crossing it finds is the answer.  Otherwise one fold walk
    from where the heap stopped answers.  Both hold every product above
    their floors, so either answer is certified against the declared tails
    alone.  When the threshold needs mass that only those tails hold, they
    may split into any number of values: BudgetExceededError, n_lower from
    a fold walk.  ``pops`` counts heap pops plus, for the fold decision, the
    products at or above its final lower level."""
    target = _Target(problem, epsilon)
    if target.trivial:
        return target.trivial
    budget = budget or Budget()
    if problem.normalized_log_trace() > 690.0:  # the curse bound alone is past any budget
        raise BudgetExceededError("normalized trace overflows double range; n is "
                                  "astronomically large (curse of dimensionality)",
                                  n_lower=budget.n_max)
    d, threshold, trace = problem.d, target.threshold, target.trace
    eps2 = epsilon * epsilon
    views, log_untailed = _reduced_views(problem, min(1e-3 * (1.0 - eps2), 1e-6) / d)
    tails = target.lost(log_untailed)
    low = target.low(tails)
    if tails > 0.0 and trace - tails < threshold + target.rounding:
        _fold, (crossed, n, _p, _q), ranked = _fold_decide(
            views, low, low, trace - tails, 1.0, budget, 0)
        raise BudgetExceededError("declared tails block the threshold",
                                  n_lower=n - 1 if crossed else n, pops=ranked)
    pops, upper, found = 0, 1.0, None
    heap_left = min(_HANDOFF_POPS, budget.n_max, budget.heap_entries(d) // d)
    if not views:  # all single atoms: one eigenvalue carries the trace
        found = (1, 1.0, 0.0, 1)
    elif heap_left:
        found, pops, upper = _heap_scan(views, threshold, low, heap_left, eps2)
    if found:
        n, partial, prev, n_low = found
        certified = target.certified(True, prev, tails)
        return target.result(n, partial, certified, pops, n if certified else n_low)
    fold, (crossed, n, partial, prev), ranked = _fold_decide(
        views, threshold, low, trace - tails, upper, budget, pops)
    certified = target.certified(crossed, prev, tails)
    n_low = n
    if not certified:
        hit = fold.first_reaching(low, math.inf) if low > 0.0 else (1,)
        n_low = hit[0] if hit else n
    return target.result(n, partial, certified, pops + ranked, n_low)


# Heap pops a call may spend before the fold takes over, sooner once the pops
# left, each at most the last value, cannot reach the threshold.  The cap keeps
# every small_answers point (<= 1,963 pops) on the heap; timings in CHANGES.md.
_HANDOFF_POPS = 2048


def _heap_scan(views, threshold, low, pops_left, eps2):
    """Lazy-heap crossing for one truncation: (found, pops, level).  found is
    (n, partial, partial_prev, n_low), n_low the first n reaching ``low``
    (_Target.low), or None when the values above the heap's floor or the
    reach of its pops left ran out; the crossing then lies below ``level``,
    where the fold starts.  A product the views leave out has a coordinate
    past its view, so it is at most that coordinate's first left-out value;
    the floor sits at or above all of those, so the heap streams every
    product above it, in order, as the fold holds them.  A pop adds at most
    d heap entries, so the pops left bound the heap's memory."""
    log_floor = max(min(-8.0, math.log(eps2) - 2.0), -64.0, *(
        v.source.log_eigenvalue(v.length + 1) - v.source.log_eigenvalue(1)
        for v in views))
    acc, n, n_low, level = CompensatedSum(), 0, 0, 1.0
    for _z, logv in _stream_normalized(views, log_floor, math.inf):
        prev = acc.value
        level = math.exp(logv)
        acc.add(level)
        n += 1
        if not n_low and acc.value >= low:
            n_low = n
        if acc.value >= threshold:
            return (n, acc.value, prev, n_low), n, level
        if threshold - acc.value > (pops_left - n) * level:
            return None, n, level
    return None, n, math.exp(log_floor)


def _dense_fold(arrays, floor, max_entries):
    """Every product >= floor of one value per array (each non-increasing
    from 1), unordered; partial products < floor drop, as the rest are <= 1."""
    prod = np.ones(1)
    for v in arrays:
        if len(v) == 1:
            continue  # only the (normalized) leading 1 survives the floor
        counts = np.searchsorted(-v, -(floor / prod), side="right")
        total = int(counts.sum())
        if total > max_entries:
            raise BudgetExceededError("dense enumeration exceeded its memory budget")
        idx = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        prod = np.repeat(prod, counts) * v[idx]
    return prod


def _prefix_sums(x):
    """Compensated prefix sums: np.cumsum plus the cumsum of each addition's
    exact error (Knuth's TwoSum), rounded once.  For x >= 0, u = 2^-53 and
    S_k = sum(x[:k+1]): each error e_i <= u hi_i <~ u S_k, their rounded
    cumsum errs by <= (k-1) u sum e_i <= k^2 u^2 S_k, and entry k lies within
    u + k^2 u^2 of S_k, relative: a correct rounding but within k^2 u^2 of a tie."""
    hi = np.cumsum(x)
    err = np.concatenate(([0.0], hi[:-1]))  # the sum before each addition
    part = hi - err  # the part of x[k] that the addition kept
    err -= hi - part
    err += x - part
    return hi + np.cumsum(err, out=err)


_SLICE_ENTRIES = 1 << 16  # a boundary slice this small is sorted, not split


def _total(x):
    """_prefix_sums(x)[-1] in the memory of one 2^16-value slice: the slices'
    totals added by fsum, within 2u + 2^32 u^2 of exact for x >= 0."""
    return math.fsum(float(_prefix_sums(x[k:k + _SLICE_ENTRIES])[-1])
                     for k in range(0, len(x), _SLICE_ENTRIES))


class _LevelFold:
    """Every normalized product eigenvalue >= floor, held as level sets.
    Its columns come from the views' sources, whatever their lengths, so it
    misses only the declared tails of explicit spectra.

    The coordinate with the most values >= floor stays a descending array
    ``col``; the others are folded into ascending ``rows``.  The products
    >= a level t in row i are the first c_i = #{j : col_j >= t / rows_i}
    entries of ``col``, summing to rows_i * prefix(c_i): a level costs a
    pass over the rows, memory that of the (d-1)-fold.  Prefix sums within
    u + m^2 u^2 of exact (_prefix_sums; u = 2^-53, m = len(col)) put each
    row term within 2u + m^2 u^2, and their _total within 4u + (m^2 +
    2^32) u^2 of exact: below 5u for m < 6e7.

    No column holds more than ``cap`` = n_max + 1 values: a column reaching
    cap raises the floor to its cap-th value.  Times the other coordinates'
    leading 1, that column alone gives cap products at or above the new
    floor, so the fold keeps the top n_max products.  Values left out lie
    at or below the new floor and the cut to cap drops only values equal to
    it: the fold holds every product above its floor and some of those
    equal to it, so its counts and sums are still those of top sets."""

    def __init__(self, views, floor, max_entries, cap):
        # fetching cap + 1 values makes a column cut short by the limit
        # (Korobov keeps whole pairs) reach cap, so the floor rises to at
        # least every value the limit left out
        cols = [view.source.dense_values(floor, cap + 1) for view in views]
        raised = [float(c[cap - 1]) for c in cols if len(c) >= cap]
        if raised:
            floor = max(raised)
            cols = [c[c >= floor][:cap] for c in cols]
        if max(len(c) for c in cols) > max_entries:
            raise BudgetExceededError("dense enumeration exceeded its memory budget")
        self.col = cols.pop(max(range(len(cols)), key=lambda i: len(cols[i])))
        self._neg_col = -self.col
        self.rows = np.sort(_dense_fold(cols, floor, max_entries))  # see counts
        self.floor, self.max_entries = floor, max_entries
        self._ends = np.concatenate((self.col, [0.0, math.inf]))  # empty-slice pads
        self.prefix = np.concatenate(([0.0], _prefix_sums(self.col)))
        self.bottom = self.counts(floor)

    def counts(self, level):
        """c_i = #{j : -col_j <= keys_i = -level / rows_i}; keys ascend with the
        rows, so past len(col) rows each col value is placed among the keys."""
        keys = -level / self.rows
        if len(keys) < len(self.col):
            return np.searchsorted(self._neg_col, keys, side="right")
        c = np.bincount(np.searchsorted(keys, self._neg_col), minlength=len(keys) + 1)
        return np.cumsum(c, out=c)[:-1]

    def mass(self, rows, counts):
        """rows_i * (col[0] + ... + col[counts_i - 1]), per row."""
        return rows * self.prefix[counts]

    def first_reaching(self, target, upper):
        """(n, partial_n, partial_(n-1), count at the final lower level) for
        the first n whose top-n sum reaches target, or None.
        Bisects the levels between the floor and ``upper`` until at most
        _SLICE_ENTRIES values lie between them or they all tie;
        _first_reaching then decides on that sorted slice."""
        rows, lo = self.rows, self.bottom
        hi = self.counts(upper)

        def reaches(counts):
            terms = self.mass(rows, counts)
            total = float(terms.sum())
            # any summation order errs by at most (k-1)u of the sum, so only
            # a total this close to the target needs the compensated sum
            if abs(total - target) <= 2.3e-16 * (len(terms) + 4) * total:
                total = _total(terms)
            return total >= target

        if reaches(hi):
            hi = np.zeros_like(lo)
        while int((lo - hi).sum()) > _SLICE_ENTRIES:
            a = float((rows * self._ends[hi]).max())  # largest value in the slice
            b = float((rows * self._ends[lo - 1]).min())  # smallest
            if a <= b * (1.0 + 2.0 ** -40):
                break  # one tied value fills the slice: no level splits it
            mid = self.counts(math.sqrt(a) * math.sqrt(b))
            if reaches(mid):
                lo = mid
            else:
                hi = mid
        z = max(int(np.searchsorted(hi, 1)) - 1, 0)  # counts ascend with rows
        base = _total(self.mass(rows[z:], hi[z:]))
        width = lo - hi
        size, count = int(width.sum()), int(hi.sum())
        if size > self.max_entries:
            raise BudgetExceededError("dense enumeration exceeded its memory budget")
        ends = np.cumsum(width)  # row i's slice: idx hi_i to lo_i - 1
        idx = np.repeat(np.subtract(lo, ends, out=ends), width) + np.arange(size)
        values = np.repeat(rows, width) * self.col[idx]
        values[::-1].sort()  # descending
        crossed, k, partial, prev = _first_reaching(values, target, base)
        return (count + k, partial, prev, count + size) if crossed else None


def _fold_decide(views, goal, low, kept, upper, budget, pops):
    """Level-set walk to the first n whose top-n sum reaches ``goal``, with
    folds at floors stepping down from e^-1 ``upper``.  The mass below a
    level falls about like a power of it, so the next floor extrapolates
    ln(kept - sum) in ln(level) from the last two levels to the crossing, in
    steps clamped to [0.25, 2]; ``kept``, the trace less the declared tails,
    is the mass of all products.  That power grows with depth on the curse
    and k^-3 weights, so the walk lands a little below the crossing.  It
    ends uncrossed only at the floor 1e-300.  Returns (fold, (crossed, n,
    partial_n, partial_(n-1)), count at its lower level).

    Past n_max it raises BudgetExceededError.  Its n_lower, which the answer
    exceeds, is proven with the proven-short level ``low`` (_Target.low): it
    holds for every top set below the first reaching ``low``, and for the
    whole fold when its total stays below it."""
    # a fold keeps about eight float arrays per column or row entry
    max_entries = max(budget.heap_bytes // 64, 1 << 20)
    step = 1.0
    above = None  # the sum of the values >= upper, once known

    def exceeded(ranked):
        hit = fold.first_reaching(low, math.inf) if total >= low else None
        return BudgetExceededError("answer exceeds the enumeration budget",
                                   n_lower=hit[0] - 1 if hit else count,
                                   pops=pops + ranked)

    while True:
        floor = max(upper * math.exp(-step), 1e-300)
        fold = _LevelFold(views, floor, max_entries, budget.n_max + 1)
        floor = fold.floor
        count = int(fold.bottom.sum())
        total = float(fold.mass(fold.rows, fold.bottom).sum())
        hit = fold.first_reaching(goal, upper) if total >= goal else None
        if hit:
            if hit[0] > budget.n_max:
                raise exceeded(hit[3])
            return fold, (True,) + hit[:3], hit[3]
        if floor <= 1e-300:
            return fold, (False, count, total, total), count
        if count > budget.n_max:  # the fold holds a top set that falls short
            raise exceeded(count)
        if above is None:
            above = float(fold.mass(fold.rows, fold.counts(upper)).sum())
        fall = (math.log((kept - above) / (kept - total))
                if total < goal < kept else 0.0)
        gap = math.log((kept - total) / (kept - goal)) * math.log(
            upper / floor) / fall if fall > 0.0 else 2.0
        upper, above, step = floor, total, min(max(gap, 0.25), 2.0)


def _first_reaching(values, target, base=0.0, cs=None):
    """The scan both engines decide on: (crossed, k, partial_k,
    partial_(k-1)) for the first k >= 1 with base + sum(values[:k]) >= target
    in a non-increasing, non-negative array (k = len(values) if none).
    ``cs`` is np.cumsum(values), when the caller already has it.

    A cumsum of non-negative terms errs by at most (k-1)u times its k-th
    entry (u = 2^-53), so every index where it lies more than
    len * 2.3e-16 * total below the target provably falls short.  That prefix
    is summed exactly (fsum), the rest term by term with compensation.

    When every index falls short (base + cs[-1] is more than that drift
    below the target), no exact sum crosses either, and no sum is taken:
    the result is (False, len, p, p) with p = base + cs[-1], within
    (len-1)u * total of the exact sum of values, plus the one rounding of
    adding base.  The fold discards the partial sums of a slice that does
    not cross, so only the oracle reports such a p.
    """
    if cs is None:
        cs = np.cumsum(values)
    drift = 2.3e-16 * len(values) * float(cs[-1])
    start = int(np.searchsorted(cs, target - base - drift))
    if start == len(values):
        partial = base + float(cs[-1])
        return False, len(values), partial, partial
    acc = CompensatedSum(base)
    acc.add(math.fsum(values[:start]))
    prev = acc.value
    for k in range(start, len(values)):
        prev = acc.value
        acc.add(float(values[k]))
        if acc.value >= target:
            return True, k + 1, acc.value, prev
    return False, len(values), acc.value, prev


class _BruteForceOracle:
    """The brute-force oracle of one problem, called with an epsilon.

    Each attempt materializes every product of its truncation lengths,
    sorts them and takes one cumsum, which the scans for n and, when
    uncertified, for n_low share.  The grid depends on epsilon only through
    those lengths: the first attempt's come from tol = 0.01/d and the grid
    cap alone.  So the oracle keeps the last attempt's lengths, descending
    grid, cumsum and log kept mass for the next call, and drops them before
    it builds a grid for other lengths: at most one grid is alive.
    """

    def __init__(self, problem: ProductProblem):
        self.problem = problem
        self._lengths = None
        self._grid = None  # (descending grid, its cumsum, log kept mass)

    def _lengths_at(self, tol):
        return [min(_truncated(c, tol).length, _BRUTE_COORD_CAP)
                for c in self.problem.coordinates]

    def _sorted_grid(self, lengths):
        if lengths != self._lengths:
            self._lengths = self._grid = None  # free the old grid first
            coords = self.problem.coordinates
            grids = [c.dense_values(1e-300, m) for c, m in zip(coords, lengths)]
            prod = np.ones(1)  # a fresh grid even at d = 1, so grids stay unsorted
            for arr in grids:
                prod = np.multiply.outer(prod, arr).ravel()
            prod.sort()
            order = prod[::-1]
            log_kept = math.fsum(
                math.log(max(float(np.sum(g)) / (c.trace() / c.leading()), 1e-300))
                for g, c in zip(grids, coords)
            )
            self._grid = (order, np.cumsum(order), log_kept)
            self._lengths = lengths
        return self._grid

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
        pops, result, built = 0, None, None
        for _attempt in range(24):
            lengths = self._lengths_at(tol)
            if math.prod(lengths) > _BRUTE_GRID_CAP:
                break  # certification needs a grid the cap cannot hold
            if lengths != built:  # a tol that drops no more just shrinks again
                built = lengths
                order, cs, log_kept = self._sorted_grid(lengths)
                pops += len(order)
                t_mass = target.lost(log_kept)
                crossed, n, partial, prev = _first_reaching(order, threshold, cs=cs)
                certified = target.certified(crossed, prev, t_mass)
                n_low = n if certified else _first_reaching(
                    order, target.low(t_mass), cs=cs)[1]
                result = target.result(n, partial, certified, pops, n_low)
                if certified or t_mass <= 0.0:
                    return result
                if crossed:
                    # jump straight to a tolerance that makes the total truncation
                    # mass comfortably smaller than the observed margin
                    need = max(threshold - prev, target.rounding) / (
                        8.0 * target.trace * d)
                else:
                    need = tol * 0.0625  # kept mass below threshold: just add length
            tol = max(min(need, tol * 0.25), 1e-16)
        return result


def brute_force_complexity(problem: ProductProblem, epsilon: float) -> ComplexityResult:
    """Oracle engine: materialize every truncated product, sort, scan.

    Makes info_complexity's decision (_Target) on that grid, which caps it
    to small d.  A one-shot call of the problem's oracle, _BruteForceOracle,
    which serves every eps from the grids it builds."""
    return _BruteForceOracle(problem)(epsilon)
