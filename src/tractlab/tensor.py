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
answer comes from a level-set fold that counts and sums the products above
a value level without materializing them, and sorts only the boundary
slice where the partial sum crosses the threshold.

A result is *certified* when the coordinate truncation mass plus a
rounding allowance provably cannot move the integer answer.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
    IrreducibleTailError,
)
from .numutil import CompensatedSum
from .spectra import Spectrum, TruncatedView

_DEFAULT_N_MAX = 10_000_000
_DEFAULT_HEAP_BYTES = 2 << 30
_BRUTE_GRID_CAP = 10_000_000


@dataclass(frozen=True)
class Budget:
    """Resource limits for one complexity computation."""

    n_max: int = _DEFAULT_N_MAX
    heap_bytes: int = _DEFAULT_HEAP_BYTES

    def __post_init__(self):
        if not (self.n_max > 0 and self.heap_bytes > 0):
            raise DomainError(f"budget limits must be positive, got {self}")

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

    def power_sum_d_exact(self, tau: float) -> bool:
        return all(c.power_sum_exact(tau) for c in self.coordinates)

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


def _reduced_views(problem: ProductProblem, tol_per_coord: float) -> list:
    """Truncate every coordinate; drop coordinates that reduce to a single
    eigenvalue with no tail (they only rescale the problem).  Coordinates
    whose declared tail cannot meet the budget keep all their values and
    carry the irreducible tail into the certification mass."""
    views = []
    for c in problem.coordinates:
        try:
            view = c.truncate(tol_per_coord)
        except IrreducibleTailError:
            view = TruncatedView(c, len(c.values), c.tail)
        if view.length == 1 and view.tail_mass == 0.0:
            continue
        views.append(view)
    return views


def _truncation_mass(views: Sequence[TruncatedView], log_trace_norm: float) -> float:
    """Upper bound on the normalized product mass lost to truncation."""
    if not views:
        return 0.0
    log_kept = 0.0
    for view in views:
        src = view.source
        a = src.trace() / src.leading()
        tail = view.tail_mass / src.leading()
        kept = max(a - tail, 1e-300)
        log_kept += math.log(kept / a)
    t_norm = math.exp(log_trace_norm) * (1.0 - math.exp(min(log_kept, 0.0)))
    return max(t_norm, 0.0)


def info_complexity(
    problem: ProductProblem,
    epsilon: float,
    budget: Optional[Budget] = None,
    tol_rel: Optional[float] = None,
) -> ComplexityResult:
    """Exact n^avg(eps, d): minimal n with top-n sum >= (1 - eps^2) * trace.

    The decision is made against the exact closed-form trace; truncation
    and rounding are accounted for so that a certified result is a proof
    about the integer answer.  Uncertified results carry the bracketing
    interval [n_low, n_high] and report the conservative (larger) end.

    Answers within _HANDOFF_POPS heap pops come out of the lazy heap; when the
    pops left cannot reach the threshold, the call hands off to the level-set
    fold, which serves every later truncation too.  ``pops`` counts heap pops
    plus, per fold decision, the products at or above its final lower level.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    budget = budget or Budget()
    d = problem.d
    eps2 = epsilon * epsilon
    log_t_norm = problem.normalized_log_trace()
    log_scale = problem.log_leading()

    def _scaled(x: float) -> float:
        if x <= 0.0 or not math.isfinite(log_scale):
            return 0.0
        lv = math.log(x) + log_scale
        return math.exp(lv) if lv < 709.0 else math.inf

    if log_t_norm > 690.0:
        # The curse lower bound alone exceeds any realistic budget.
        raise BudgetExceededError(
            "normalized trace overflows double range; "
            "n is astronomically large (curse of dimensionality)",
            n_lower=budget.n_max,
        )
    trace_norm = problem.normalized_trace()
    threshold = (1.0 - eps2) * trace_norm
    rounding = 1e-12 * trace_norm
    if threshold <= 0.0:
        return ComplexityResult(
            epsilon=epsilon, d=d, n=0, partial_sum=0.0, trace=_scaled(trace_norm),
            certified=True, pops=0, n_low=0, n_high=0,
        )

    tol = tol_rel if tol_rel is not None else min(1e-3 * (1.0 - eps2), 1e-6) / d
    pops = 0
    heap_left = min(_HANDOFF_POPS, budget.n_max, budget.heap_entries(d) // d)
    hint = (1.0, 1.0)  # the fold's first floor: (upper level, step in ln)
    fold = last = None
    prev_t_mass = math.inf
    for _attempt in range(24):
        views = _reduced_views(problem, tol)
        t_mass = _truncation_mass(views, log_t_norm)
        if t_mass >= 0.95 * prev_t_mass and last is not None:
            break  # irreducible declared tails; refinement cannot help
        prev_t_mass = t_mass
        slack = t_mass + rounding
        found = None
        if not views:  # all single atoms: one eigenvalue carries the trace
            found = (True, 1, 1.0, 0.0, 1)
        elif heap_left:
            found, used, hint = _heap_scan(views, threshold, slack, heap_left, eps2)
            pops += used
            heap_left = heap_left - used if found else 0
        if found is None:
            # a truncation adding no value above the fold's floor leaves
            # the fold, and so its decision, unchanged
            if fold is None or not fold.covers(views):
                fold, decided, ranked, hint = _fold_decide(
                    views, threshold, trace_norm, hint, budget, pops)
                pops += ranked
            found = decided
        crossed, n, partial, prev, n_low = found
        certified = crossed and threshold - prev > slack
        last = (n, partial, certified, n if certified else n_low, threshold - slack)
        if certified or t_mass <= 0.0:
            break
        shrink = 0.1 * max(threshold - prev, rounding) / t_mass
        tol *= min(0.5, max(shrink, 1e-6))
    n, partial, certified, n_low, low_target = last
    if n_low is None:  # a fold decision: find the bracket's lower end now
        hit = fold.first_reaching(low_target, math.inf) if low_target > 0.0 else (1,)
        n_low = hit[0] if hit else n
    return ComplexityResult(epsilon=epsilon, d=d, n=n, partial_sum=_scaled(partial),
                            trace=_scaled(trace_norm), certified=certified,
                            pops=pops, n_low=n_low, n_high=n)


# Heap pops a call may spend before the fold takes over, sooner once the pops
# left, each at most the last value, cannot reach the threshold.  The cap keeps
# every small_answers point (<= 1,963 pops) on the heap; timings in CHANGES.md.
_HANDOFF_POPS = 2048

# Relative margin of _LevelFold.covers: 2^-49 is 8 to 16 ulps, against the
# one ulp by which numpy's and Python's powers have been seen to differ.
_COVER_MARGIN = 2.0 ** -49


def _heap_scan(views, threshold, slack, pops_left, eps2):
    """Lazy-heap decision for one truncation: (found, pops, hint).  found is
    (True, n, partial, partial_prev, n_low), or None when the values above
    the heap's floor or the reach of its pops left ran out; the crossing then
    lies below ``hint`` = (level, step in ln), where the fold starts.  A pop
    adds at most d heap entries, so the pops left bound the heap's memory."""
    log_floor = max(min(-8.0, math.log(eps2) - 2.0), -64.0)
    acc, n, n_low, level = CompensatedSum(), 0, 0, 1.0
    for _z, logv in _stream_normalized(views, log_floor, math.inf):
        prev = acc.value
        level = math.exp(logv)
        acc.add(level)
        n += 1
        if not n_low and acc.value + slack >= threshold:
            n_low = n
        if acc.value >= threshold:
            return (True, n, acc.value, prev, n_low), n, (level, 1.0)
        if threshold - acc.value > (pops_left - n) * level:
            return None, n, (level, 1.0)
    return None, n, (math.exp(log_floor), 1.0)


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
        cols = [view.source.dense_values(floor, min(view.length, cap + 1))
                for view in views]
        raised = [float(c[cap - 1]) for c in cols if len(c) >= cap]
        if raised:
            floor = max(raised)
            cols = [c[c >= floor][:cap] for c in cols]
        if max(len(c) for c in cols) > max_entries:
            raise BudgetExceededError("dense enumeration exceeded its memory budget")
        self.col = cols.pop(max(range(len(cols)), key=lambda i: len(cols[i])))
        self._neg_col = -self.col
        self.rows = np.sort(_dense_fold(cols, floor, max_entries))  # see counts
        self.views, self.floor, self.max_entries = views, floor, max_entries
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

    def covers(self, views):
        """Whether ``views`` add only values below the floor to this fold's.

        The fold's arrays come from ``dense_values``, whose numpy powers
        may differ from ``eigenvalue()`` by an ulp, so a value counts as
        below the floor only when it is so by more than _COVER_MARGIN:
        one within a few ulps of it makes the fold be built again."""
        below = self.floor * (1.0 - _COVER_MARGIN)
        return len(views) == len(self.views) and all(
            v.source is w.source and v.length >= w.length
            and v.source.eigenvalue(w.length + 1) / v.source.leading() < below
            for v, w in zip(views, self.views))

    def first_reaching(self, target, upper):
        """(n, partial_n, partial_(n-1), count at the final lower level, n-th
        value) for the first n whose top-n sum reaches target, or None.
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
        return (count + k, partial, prev, count + size, float(values[k - 1])
                ) if crossed else None


def _fold_decide(views, threshold, trace, hint, budget, pops):
    """Level-set decision for one truncation: folds at floors stepping down
    from ``hint`` = (level, step in ln) until the values reach the threshold.
    The mass below a level falls about like a power of it, so the next floor
    extrapolates ln(trace - sum) in ln(level) from the last two levels to the
    crossing, in steps clamped to [0.25, 2]; that power grows with depth on
    the curse and k^-3 weights, so the walk lands a little below the crossing.
    Past every positive kept product, the next fold takes them all if they
    fit the budgets; one holding all ends the walk uncertified (a declared
    tail keeps it short).  Returns (fold, found with n_low None, count at its
    lower level, hint)."""
    # a fold keeps about eight float arrays per column or row entry
    max_entries = max(budget.heap_bytes // 64, 1 << 20)
    kept, lowest = _kept_products(views)
    upper, step = hint
    above = None  # the sum of the values >= upper, once known
    while True:
        floor = max(upper * math.exp(-step), 1e-300)
        fold = _LevelFold(views, floor, max_entries, budget.n_max + 1)
        floor = fold.floor
        count = int(fold.bottom.sum())
        total = float(fold.mass(fold.rows, fold.bottom).sum())
        hit = fold.first_reaching(threshold, upper) if total >= threshold else None
        if hit:
            if hit[0] > budget.n_max:  # the top hit[0] - 1 values fall short
                raise BudgetExceededError("answer exceeds the enumeration budget",
                                          n_lower=hit[0] - 1, pops=pops + hit[3])
            # the next truncation's crossing sits close to this one
            hint = (hit[4] * math.exp(0.25), 0.5)
            return fold, (True,) + hit[:3] + (None,), hit[3], hint
        if floor <= 1e-300 or (count == kept and kept <= budget.n_max):
            return fold, (False, count, total, total, None), count, (floor, 2.0)
        if count > budget.n_max:
            # the fold holds a top set of `count` values and falls short:
            # the crossing provably lies beyond n_max
            raise BudgetExceededError("answer exceeds the enumeration budget",
                                      n_lower=count, pops=pops + count)
        if above is None:
            above = float(fold.mass(fold.rows, fold.counts(upper)).sum())
        fall = (math.log((trace - above) / (trace - total))
                if total < threshold < trace else 0.0)
        gap = math.log((trace - total) / (trace - threshold)) * math.log(
            upper / floor) / fall if fall > 0.0 else 2.0
        upper, above, step = floor, total, min(max(gap, 0.25), 2.0)
        if floor * math.exp(-gap) < lowest and kept <= min(budget.n_max, max_entries):
            step = math.log(floor / lowest) + 0.5  # just below the smallest


def _kept_products(views):
    """(number, smallest) of the positive products of kept normalized values;
    only the view of an irreducible explicit spectrum keeps trailing zeros.
    Logarithms, as a Korobov view may be too long for a float index."""
    number, log_smallest = 1, 0.0
    for view in views:
        src, n = view.source, view.length
        while src.log_eigenvalue(n) == -math.inf:
            n -= 1
        number *= n
        log_smallest += src.log_eigenvalue(n) - src.log_eigenvalue(1)
    return number, math.exp(log_smallest)


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


def brute_force_complexity(
    problem: ProductProblem,
    epsilon: float,
    per_coord_cap: int = 1_000_000,
    grid_cap: int = _BRUTE_GRID_CAP,
) -> ComplexityResult:
    """Oracle engine: materialize every truncated product, sort, scan.

    Shares the decision and certification semantics of info_complexity
    but is limited to small d by the grid cap.  Each attempt sorts its
    grid in place and takes one cumsum of it, which the scans for n and,
    when uncertified, for n_low share.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    if per_coord_cap < 1:
        raise DomainError("per_coord_cap must be positive")
    d = problem.d
    eps2 = epsilon * epsilon

    trace_norm = problem.normalized_trace()
    threshold = (1.0 - eps2) * trace_norm
    rounding = 1e-12 * trace_norm
    log_scale = problem.log_leading()
    scale = math.exp(log_scale) if log_scale < 709.0 else math.inf

    if threshold <= 0.0:
        return ComplexityResult(
            epsilon=epsilon, d=d, n=0, partial_sum=0.0,
            trace=trace_norm * scale, certified=True, pops=0, n_low=0, n_high=0,
        )

    if 2 ** min(d, 60) > grid_cap:
        raise GridSizeError(f"product grid would exceed {grid_cap} entries at d={d}")

    def lengths_at(tol):
        out = []
        for c in problem.coordinates:
            try:
                length = c.truncate(tol).length
            except IrreducibleTailError:
                length = len(c.values)
            out.append(min(length, per_coord_cap))
        return out

    tol = 0.01 / d  # coarse first pass; the margin drives refinement below
    while math.prod(lengths_at(tol)) > grid_cap:
        tol *= 4.0
        if tol > 0.5:
            raise GridSizeError(
                f"no truncation below tol=0.5 fits {grid_cap} grid entries")
    pops = 0
    result = None
    prev_lengths = None
    for _attempt in range(24):
        lengths = lengths_at(tol)
        if math.prod(lengths) > grid_cap or lengths == prev_lengths:
            break  # certification needs a grid the cap cannot hold
        prev_lengths = lengths
        grids = [c.dense_values(1e-300, m)
                 for c, m in zip(problem.coordinates, lengths)]
        prod = np.ones(1)  # a fresh grid even at d = 1, so grids stay unsorted
        for arr in grids:
            prod = np.multiply.outer(prod, arr).ravel()
        prod.sort()
        order = prod[::-1]
        cs = np.cumsum(order)
        pops += len(order)

        log_kept = math.fsum(
            math.log(max(float(np.sum(g)) / (c.trace() / c.leading()), 1e-300))
            for g, c in zip(grids, problem.coordinates)
        )
        t_mass = max(trace_norm * (1.0 - math.exp(min(log_kept, 0.0))), 0.0)

        crossed, n, partial, prev = _first_reaching(order, threshold, cs=cs)
        certified = crossed and threshold - prev > t_mass + rounding
        result = ComplexityResult(
            epsilon=epsilon, d=d, n=n, partial_sum=partial * scale,
            trace=trace_norm * scale, certified=certified, pops=pops,
            n_low=n if certified else _first_reaching(
                order, threshold - t_mass - rounding, cs=cs)[1],
            n_high=n,
        )
        if certified:
            return result
        if crossed:
            # jump straight to a tolerance that makes the total truncation
            # mass comfortably smaller than the observed margin
            need = max(threshold - prev, rounding) / (8.0 * trace_norm * d)
        else:
            need = tol * 0.0625  # kept mass below threshold: just add length
        if t_mass <= 0.0:
            break
        tol = max(min(need, tol * 0.25), 1e-16)
    return result
