import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractlab.errors import BudgetExceededError, DomainError, GridSizeError
from tractlab.spectra import ExplicitSpectrum, KorobovSpectrum
from tractlab.tensor import (
    Budget,
    ProductProblem,
    _BruteForceOracle,
    brute_force_complexity,
    info_complexity,
    top_eigenvalues,
)
from tractlab.verify import random_instance
from tractlab.zeta import zeta


def small_problem():
    return ProductProblem(
        (
            ExplicitSpectrum((1.0, 0.5)),
            ExplicitSpectrum((1.0, 0.5)),
        )
    )


class TestZetaPerCall:
    """A call evaluates each distinct zeta(2r) once; the memo keeps it."""

    @staticmethod
    def evaluations(call):
        """zeta evaluations, from a cleared memo, of call() and then
        zeta(2): 1 exactly when call() evaluated zeta(2) and nothing else."""
        zeta.cache_clear()
        call()
        zeta(2.0)
        return zeta.cache_info().misses

    def test_engine(self):
        p = ProductProblem(tuple(KorobovSpectrum(k ** -3.0, 1.0) for k in range(1, 11)))
        for eps in (0.5, 0.1):  # a heap answer, a fold answer
            assert self.evaluations(lambda: info_complexity(p, eps)) == 1

    def test_oracle(self):
        p = ProductProblem(tuple(KorobovSpectrum(k ** -3.0, 1.0) for k in range(1, 4)))
        oracle = _BruteForceOracle(p)
        for eps in (0.5, 0.1):
            assert self.evaluations(lambda: oracle(eps)) == 1


class TestInfoComplexity:
    def test_two_coordinate_example(self):
        # eigenvalues {1, .5, .5, .25}, trace 2.25; at eps=0.6 the target
        # is 0.64 * 2.25 = 1.44, reached by the top two values
        res = info_complexity(small_problem(), 0.6)
        assert res.n == 2
        assert res.certified

    def test_epsilon_one_is_free(self):
        # at d = 2000 the trace overflows, and n = 0 still comes before any
        # overflow or grid size check
        for p in (small_problem(), ProductProblem((KorobovSpectrum(0.5, 1.0),) * 2000)):
            for res in (info_complexity(p, 1.0), brute_force_complexity(p, 1.0)):
                assert (res.n, res.certified, res.n_low, res.n_high) == (0, True, 0, 0)

    def test_epsilon_monotonicity(self):
        p = ProductProblem(tuple(KorobovSpectrum(0.5, 1.0) for _ in range(3)))
        ns = [info_complexity(p, e).n for e in (0.9, 0.7, 0.5, 0.3, 0.2)]
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_dimension_monotonicity(self):
        ns = []
        for d in range(1, 6):
            p = ProductProblem(tuple(KorobovSpectrum(0.5, 1.0) for _ in range(d)))
            ns.append(info_complexity(p, 0.5).n)
        assert all(a <= b for a, b in zip(ns, ns[1:]))

    def test_invalid_epsilon(self):
        with pytest.raises(DomainError):
            info_complexity(small_problem(), 0.0)
        with pytest.raises(DomainError):
            info_complexity(small_problem(), 1.5)

    def test_budget_exhaustion_reports_lower_bound(self):
        p = ProductProblem(tuple(KorobovSpectrum(0.9, 0.65) for _ in range(3)))
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(p, 0.1, budget=Budget(n_max=10_000))
        assert exc_info.value.n_lower >= 10_000

    def test_budget_exhaustion_past_a_found_crossing_reports_it(self):
        # the fold lands below the crossing (n = 23,200) and finds it past
        # n_max.  The proven lower bound counts the top sets short of the
        # threshold less the rounding allowance; the fold holds every product
        # above its floor, so no truncation slack widens it: the top 23,199
        # fall short, the tightest bound there is
        p = ProductProblem((KorobovSpectrum(0.5, 1.0),) * 3)
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(p, 0.15, budget=Budget(n_max=22_500))
        assert exc_info.value.n_lower == 23_199

    def test_normalization_invariance(self):
        base = ExplicitSpectrum((1.0, 0.6, 0.3, 0.05))
        scaled = ExplicitSpectrum(tuple(7.5 * v for v in base.values))
        for eps in (0.8, 0.5, 0.2):
            a = info_complexity(ProductProblem((base, base)), eps)
            b = info_complexity(ProductProblem((scaled, base)), eps)
            assert a.n == b.n

    def test_single_atom_coordinates_are_free(self):
        # coordinates with one eigenvalue scale the whole spectrum and
        # cannot change n
        pad = tuple(ExplicitSpectrum((0.5,)) for _ in range(30))
        p1 = ProductProblem((KorobovSpectrum(0.5, 1.0),))
        p2 = ProductProblem((KorobovSpectrum(0.5, 1.0),) + pad)
        for eps in (0.7, 0.3):
            assert info_complexity(p1, eps).n == info_complexity(p2, eps).n
        # a coordinate with no mass past its leading eigenvalue (an explicit
        # list with no tail and nothing positive after it, or a Korobov
        # trace that rounds to 1) is dropped: alone it answers n = 1 with
        # no heap pop.  Any other is kept, and alone the heap pops it once
        def fields(res):
            return (res.n, res.certified, res.n_low, res.n_high, res.pops,
                    res.partial_sum, res.trace)

        cases = [
            (ExplicitSpectrum((2.0,)), (1, True, 1, 1, 0, 2.0, 2.0)),
            (ExplicitSpectrum((1.0, 0.0, 0.0)), (1, True, 1, 1, 0, 1.0, 1.0)),
            (KorobovSpectrum(1e-17, 1.0), (1, True, 1, 1, 0, 1.0, 1.0)),
            (ExplicitSpectrum((1.0, 1e-300)), (1, True, 1, 1, 1, 1.0, 1.0)),
            (ExplicitSpectrum((1.0,), tail=1e-3), (1, True, 1, 1, 1, 1.0, 1.001)),
            (KorobovSpectrum(1e-15, 1.0),
             (1, True, 1, 1, 1, 1.0, 1.0000000000000033)),
        ]
        base = fields(info_complexity(p1, 0.3))
        assert base == (9, True, 9, 9, 9, 2.423611111111111, 2.644934066848226)
        for c, alone in cases:
            assert fields(info_complexity(ProductProblem((c,)), 0.5)) == alone
            res = fields(info_complexity(ProductProblem(p1.coordinates + (c,)), 0.3))
            assert res[:5] == base[:5]
            # the trace scales by the leading value and takes any mass past it
            assert res[6] == pytest.approx(base[6] * alone[6], rel=1e-15)

    def test_dense_engine_matches_heap_engine(self, monkeypatch):
        # the answer with the default hand-off and with the fold after one
        # heap pop, against the heap enumeration of top_eigenvalues summed
        # exactly
        import tractlab.tensor as tensor_mod

        korobov, eps = KorobovSpectrum(0.5, 1.0), 0.15
        p = ProductProblem((korobov,) * 3)
        default = info_complexity(p, eps)
        monkeypatch.setattr(tensor_mod, "_HANDOFF_POPS", 1)
        dense = info_complexity(p, eps)
        assert default.certified and dense.certified
        assert default.n == dense.n == 23200
        # a cut at a 1e-9 share of the trace keeps over 10^8 pairs, so it
        # leaves out only products <= 0.5 / 10001^2, far below the 23,201st
        values = [v for _, v in top_eigenvalues(p, 23_201)]
        assert values[-1] > 1e3 * 0.5 / 10_001**2
        trace = p.trace_d()
        threshold = (1.0 - eps * eps) * trace
        short, reached = math.fsum(values[:23_199]), math.fsum(values[:23_200])
        # n = 23,200 is the first to reach, by margins far beyond rounding
        assert threshold - short > 1e-9 * trace
        assert reached - threshold > 1e-9 * trace

    def test_korobov_near_half_keeps_its_answer(self):
        # the heap's cut of r = 0.55 at eps 0.5 is clamped at e^69 pairs;
        # the answer, its bracket and pops are those of the unclamped cut
        p = ProductProblem((KorobovSpectrum(0.5, 0.55),))
        res = info_complexity(p, 0.5)
        assert (res.n, res.certified, res.n_low, res.pops) == (481811, True, 481811, 493215)
        with pytest.raises(BudgetExceededError) as exc:
            info_complexity(p, 0.5, Budget(n_max=10**5))
        assert (exc.value.n_lower, exc.value.pops) == (100_001, 100_333)
        # at r = 0.5 + 1e-6 the unclamped cut built a ten-million-bit length;
        # Cauchy-Schwarz puts the answer past the heap, so no pop is counted
        near = ProductProblem((KorobovSpectrum(0.5, 0.5 + 1e-6),))
        with pytest.raises(BudgetExceededError) as exc:
            info_complexity(near, 0.5, Budget(n_max=10**5))
        assert (exc.value.n_lower, exc.value.pops) == (100_001, 100_001)

    def test_large_answer_skips_the_heap(self, monkeypatch):
        # one reduction and one fold walk; Cauchy-Schwarz puts the answer
        # past the heap's cap, so the heap never runs
        import tractlab.tensor as tensor_mod

        calls = []
        for name in ("_reduced_spectra", "_heap_scan", "_fold_decide"):
            fn = getattr(tensor_mod, name)
            monkeypatch.setattr(tensor_mod, name, lambda *args, name=name, fn=fn: (
                calls.append(name), fn(*args))[1])
        p = ProductProblem(tuple(KorobovSpectrum(0.5, 1.0) for _ in range(6)))
        res = info_complexity(p, 0.45)
        assert res.certified and res.n == 475_412
        assert res.pops <= 1.2 * res.n
        assert calls == ["_reduced_spectra", "_fold_decide"]

    @pytest.mark.parametrize("eps", [0.3, 0.2])
    def test_uncertified_bracket_contains_oracle_answer(self, eps):
        # the declared tail cannot be truncated away, so neither engine
        # certifies; at eps 0.2 the answer is past the heap hand-off
        p = ProductProblem((
            KorobovSpectrum(0.5, 1.0),
            KorobovSpectrum(0.5, 1.0),
            ExplicitSpectrum((1.0, 0.6, 0.3), tail=0.01),
        ))
        res = info_complexity(p, eps)
        oracle = brute_force_complexity(p, eps)
        assert not res.certified and res.n_low < res.n_high
        assert res.n_low <= oracle.n <= res.n_high

    def test_fold_stops_once_it_holds_every_kept_product(self, monkeypatch):
        # the declared tail may hold the mass the threshold needs, split into
        # any number of values, so n has no bound; one short fold walk
        # proves the lower bound
        import tractlab.tensor as tensor_mod

        folds = []
        init = tensor_mod._LevelFold.__init__
        monkeypatch.setattr(tensor_mod._LevelFold, "__init__",
                            lambda self, *args: folds.append(1) or init(self, *args))
        p = ProductProblem((KorobovSpectrum(0.5, 1.0),
                            ExplicitSpectrum((1.0, 0.5), tail=1.0)))
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(p, 0.1)
        # the top 88 kept products fall short of the threshold less the tail
        assert exc_info.value.n_lower == 88
        assert len(folds) <= 8
        # finitely many kept products: {1, .5, .5, .25} sum to 2.25, and the
        # tails leave 6.1875 - 4 = 2.1875 for them to reach, which takes 4
        p = ProductProblem((ExplicitSpectrum((1.0, 0.5), tail=1.0),) * 2)
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(p, 0.1)
        assert exc_info.value.n_lower == 3

    def test_heap_floor_covers_what_its_views_leave_out(self):
        # the views cut the 0.6^j list after 28 values, leaving out 0.6^28
        # = 6.1e-7, above the e^-15.8 = 1.4e-7 floor at eps 1e-3.  The
        # heap's floor rises to that value, so its stream holds every
        # product above it and the crossing it finds is the exact 317; at
        # the lower floor it certified 322
        p = ProductProblem((ExplicitSpectrum(tuple(0.5**j for j in range(15))),
                            ExplicitSpectrum(tuple(0.6**j for j in range(30)))))
        res = info_complexity(p, 1e-3)
        oracle = brute_force_complexity(p, 1e-3)
        assert (res.n, res.certified, res.n_low, res.n_high) == (317, True, 317, 317)
        assert (oracle.n, oracle.certified) == (317, True)
        assert res.pops == 606

    def test_heap_crossing_is_decided_without_a_fold_walk(self, monkeypatch):
        # a point of perfbench's small_answers (seed 0, point 677) whose
        # truncation leaves out more than the declared tails (none): the
        # heap's crossing is decided against those tails, with no fold walk
        import tractlab.tensor as tensor_mod

        folds, decide = [], tensor_mod._fold_decide
        monkeypatch.setattr(tensor_mod, "_fold_decide",
                            lambda *args: folds.append(1) or decide(*args))
        p = ProductProblem(tuple(KorobovSpectrum(k ** -2.9760631896696634,
                                                 1.0751589825133174)
                                 for k in range(1, 7)))
        res = info_complexity(p, 0.48902115537334395)
        assert (res.n, res.certified, res.n_low, res.n_high, res.pops) == (
            41, True, 41, 41, 41)
        assert not folds

    def test_heap_stream_that_runs_dry_hands_off_to_the_fold(self, monkeypatch):
        # the 45 products above the heap's floor (e^-8 at eps 0.1) fall
        # short of the threshold: the heap stops there and the fold answers
        import tractlab.tensor as tensor_mod

        scans = []
        heap_scan = tensor_mod._heap_scan
        monkeypatch.setattr(tensor_mod, "_heap_scan",
                            lambda *args: scans.append(heap_scan(*args)) or scans[-1])
        geometric = ExplicitSpectrum(tuple(0.05**j for j in range(6)))
        p = ProductProblem((geometric,) * 8)
        res = info_complexity(p, 0.1)
        threshold = tensor_mod._Target(p, 0.1).threshold
        assert [(tensor_mod._first_reaching(values, threshold)[0], len(values))
                for values, _level in scans] == [(False, 45)]
        oracle = brute_force_complexity(p, 0.1)
        assert res.certified and oracle.certified
        assert (res.n, res.n_low, res.n_high) == (oracle.n, oracle.n_low,
                                                  oracle.n_high) == (64, 64, 64)

    def test_heap_memory_budget_caps_its_pops(self, monkeypatch):
        # heap_bytes=1 leaves the minimum of 1024 heap entries: 51 pops
        # that add at most d = 20 entries each, which cannot reach n = 78;
        # the fold answers instead
        import tractlab.tensor as tensor_mod

        scans = []
        heap_scan = tensor_mod._heap_scan
        monkeypatch.setattr(tensor_mod, "_heap_scan",
                            lambda *args: scans.append(heap_scan(*args)) or scans[-1])
        p = ProductProblem(tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21)))
        threshold = tensor_mod._Target(p, 0.5).threshold
        free = info_complexity(p, 0.5)
        assert [tensor_mod._first_reaching(values, threshold)[0]
                for values, _level in scans] == [True]
        scans.clear()
        capped = info_complexity(p, 0.5, budget=Budget(heap_bytes=1))
        (values, _level), = scans
        assert not tensor_mod._first_reaching(values, threshold)[0]
        assert len(values) <= 1024 // 20
        assert (capped.n, capped.certified, capped.n_low, capped.n_high) == (
            free.n, free.certified, free.n_low, free.n_high) == (78, True, 78, 78)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_walk_builds_at_most_twice_the_final_fold(self, monkeypatch, seed):
        # the timed points of perfbench's large_answers: curse and
        # g_k = k^-3 weights, scaled as its seed draws them.  A fold's
        # entries are the distinct values of its rows and col; the final
        # fold is also no larger than where the walk, stepping by the local
        # slope of the sum in ln(level), lands on each point
        import tractlab.tensor as tensor_mod

        earlier = {0: (258, 422, 5_565), 3: (366, 606, 6_921)}

        entries = []
        init = tensor_mod._LevelFold.__init__

        def counting_init(self, *args):
            init(self, *args)
            entries.append(len(self.rows) + len(self.col))

        monkeypatch.setattr(tensor_mod._LevelFold, "__init__", counting_init)
        rng = random.Random(seed)
        curse, strong = (1.0 - (rng.uniform(0.0, 0.01) if seed else 0.0)
                         for _ in range(2))
        points = [
            ((KorobovSpectrum(0.5 * curse, 1.0),) * 6, 0.5),
            ((KorobovSpectrum(0.5 * curse, 1.0),) * 6, 0.45),
            (tuple(KorobovSpectrum(strong * k**-3.0, 1.0) for k in range(1, 21)),
             0.1),
        ]
        for (coords, eps), final in zip(points, earlier[seed]):
            entries.clear()
            assert info_complexity(ProductProblem(coords), eps).certified
            assert sum(entries) <= 2.0 * entries[-1] and entries[-1] <= final

    def test_fold_columns_stay_within_the_n_budget(self, monkeypatch):
        # the answer lies far beyond n_max, and the top n_max products
        # never need a coordinate's column of more than n_max + 1 values
        import tractlab.tensor as tensor_mod

        columns = []  # the values each column holds, its copies counted
        two_sides = tensor_mod._two_sides
        monkeypatch.setattr(
            tensor_mod, "_two_sides",
            lambda cols, *args: columns.extend(int(m.sum()) for _v, m in cols)
            or two_sides(cols, *args))
        n_max = 10**5
        for d in (1, 2):
            columns.clear()
            with pytest.raises(BudgetExceededError) as exc_info:
                info_complexity(ProductProblem((KorobovSpectrum(0.7, 0.6),) * d), 0.1,
                                budget=Budget(n_max=n_max))
            assert exc_info.value.n_lower > n_max
            assert len(columns) >= d and max(columns) <= n_max + 1

    def test_large_curse_answer_folds_two_small_sides(self, monkeypatch):
        # curse d = 8: each side of the final fold holds the 154,729
        # products of four coordinates; folding seven coordinates against
        # one column would put 7.6M products on one side.  Products, not
        # distinct values, since equal coordinates leave few of those
        import tractlab.tensor as tensor_mod

        sides = []
        init = tensor_mod._LevelFold.__init__

        def counting_init(self, *args):
            init(self, *args)
            sides.append((int(self.row_mult.sum()), int(self.below[-1])))

        monkeypatch.setattr(tensor_mod._LevelFold, "__init__", counting_init)
        res = info_complexity(ProductProblem((KorobovSpectrum(0.5, 1.0),) * 8), 0.5,
                              budget=Budget(n_max=10**8))
        assert (res.n, res.certified, res.n_low, res.n_high, res.pops) == (
            22_242_046, True, 22_242_046, 22_242_046, 23_093_025)
        assert max(sides[-1]) < 10**6

    def test_fold_is_exact_above_its_floor(self):
        # the fold takes its columns from the spectra, so it holds every
        # product >= 1e-3, as the brute grid does
        from tractlab.tensor import _LevelFold

        a, b = KorobovSpectrum(0.5, 1.0), KorobovSpectrum(0.3, 1.5)
        fold = _LevelFold([a, b], 1e-3, 1 << 20, 10**6)
        # both spectra fall below 1e-3 before index 200
        grid = [x * y for x in map(a.eigenvalue, range(1, 200))
                for y in map(b.eigenvalue, range(1, 200)) if x * y >= 1e-3]
        assert fold.held == fold.number(fold.bottom) == len(grid) == 137
        mass = float(fold.mass(fold.bottom).sum())
        assert mass == pytest.approx(math.fsum(grid), rel=1e-14)
        assert mass == pytest.approx(4.4023815274753, rel=1e-13)

    def test_fold_counts_match_a_search_per_row(self):
        # rows is the smaller side: equal sides for curse d = 4, unequal for
        # g_k = k^-3 at d = 12; a binary search of each key in col is the
        # reference
        import numpy as np
        from tractlab.tensor import _LevelFold

        for weights in ([0.5] * 4, [k**-3.0 for k in range(1, 13)]):
            p = ProductProblem(tuple(KorobovSpectrum(g, 1.0) for g in weights))
            fold = _LevelFold(p.coordinates, 1e-4, 1 << 22, 10**7)
            assert len(fold.rows) <= len(fold.col)
            rng = random.Random(7)
            levels = [math.inf, fold.floor, 1.0]
            for _ in range(60):  # products themselves, and an ulp either side
                v = float(fold.rows[rng.randrange(len(fold.rows))]
                          * fold.col[rng.randrange(len(fold.col))])
                levels += [v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]
            for level in levels:
                want = np.searchsorted(-fold.col, -level / fold.rows, side="right")
                assert np.array_equal(fold.counts(level), want)

    def test_prefix_sums_round_like_fsum(self):
        # within u + k^2 u^2 of exact: a correct rounding on any seeded
        # descending input, as the fold's column is, and on its terms
        # weighted by multiplicities, which can grow along it
        import numpy as np
        from tractlab.tensor import _prefix_sums

        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.random(int(rng.integers(1, 20_000))) ** rng.uniform(1.0, 40.0)
            down = np.sort(x)[::-1]
            weighted = down * rng.integers(1, 1 << 20, len(down))
            for terms in (down, weighted):
                sums = _prefix_sums(terms)
                for k in [len(terms) - 1] + list(rng.integers(0, len(terms), 5)):
                    assert sums[k] == math.fsum(terms[: k + 1])

    def test_heap_computes_each_long_coordinate_value_once(self, monkeypatch):
        # g_k = k^-3, d = 20 at eps 0.1 (a large_answers point): the heap's
        # accessor of a coordinate cut past 4096 values computes each log
        # value once, not once per heap child (19,792 calls for 254 values)
        calls = []
        log_eigenvalue = KorobovSpectrum.log_eigenvalue
        monkeypatch.setattr(KorobovSpectrum, "log_eigenvalue",
                            lambda self, j: calls.append(j) or log_eigenvalue(self, j))
        p = ProductProblem(tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21)))
        res = info_complexity(p, 0.1)
        assert (res.n, res.certified, res.n_low, res.n_high, res.pops) == (
            226_190, True, 226_190, 226_190, 230_831)
        assert len(calls) < 1000

    def test_budget_rejects_non_positive_limits(self):
        # limits that are not integers would fail deep in the fold instead
        for kwargs in ({"n_max": 0}, {"n_max": -1}, {"heap_bytes": 0},
                       {"n_max": 2.5}, {"n_max": float("inf")}, {"n_max": True},
                       {"heap_bytes": 1e9}, {"heap_bytes": False}):
            with pytest.raises(DomainError):
                Budget(**kwargs)


def _pairwise_fold(side, col, floor, max_entries):
    """_dense_fold by one search of every row in the whole column, its
    leading 1 included: the reference for which pairs a fold keeps, as
    (values, multiplicities)."""
    import numpy as np

    (prod, prod_mult), (v, v_mult) = side, col
    counts = np.searchsorted(-v, -(floor / prod), side="right")
    total = int(counts.sum())
    if total > max_entries:
        raise BudgetExceededError("dense enumeration exceeded its memory budget")
    idx = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return (np.repeat(prod, counts) * v[idx],
            np.repeat(prod_mult, counts) * v_mult[idx])


def _expanded(runs):
    """Every copy of (values, multiplicities), sorted: the multiset they hold."""
    import numpy as np

    values, mults = runs
    return np.sort(np.repeat(values, mults.astype(np.int64)))


def _as_runs(x):
    """A side or a column as _two_sides takes it: (values, multiplicities)."""
    import numpy as np
    from tractlab.tensor import _runs

    return _runs(np.sort(np.asarray(x, dtype=float))[::-1])


class TestDenseFold:
    """_dense_fold copies a side, every entry at or above the floor, as its
    products with a column's leading 1 and multiplies out only the rows that
    reach its second value: expanded by multiplicity and sorted, the same
    doubles, bit for bit, as searching every row in the whole column, and
    as folding every copy of each value."""

    @staticmethod
    def assert_pairwise(side, col, floor):
        import numpy as np
        from tractlab.tensor import _dense_fold

        side, col = _as_runs(side), _as_runs(col)
        got = _dense_fold(side, col, floor, 1 << 30)
        want = _pairwise_fold(side, col, floor, 1 << 30)
        copies = _pairwise_fold((_expanded(side), np.ones(int(side[1].sum()))),
                                (_expanded(col)[::-1], np.ones(int(col[1].sum()))),
                                floor, 1 << 30)[0]
        for runs in (got, want):
            assert np.array_equal(_expanded(runs).view(np.int64),
                                  np.sort(copies).view(np.int64))
        return len(copies)

    def test_korobov_columns(self):
        a, b, c = (KorobovSpectrum(g, r) for g, r in ((0.5, 1.0), (0.3, 1.5), (0.01, 1.0)))
        for floor in (1e-2, 1e-4):
            side = a.dense_values(floor, 10**6)
            assert self.assert_pairwise(side, b.dense_values(floor, 10**6), floor) > len(side)
            folded = _expanded(_pairwise_fold(_as_runs(side),
                                              _as_runs(b.dense_values(floor, 10**6)),
                                              floor, 1 << 30))
            # a short column: most products meet only its leading 1
            self.assert_pairwise(folded, c.dense_values(floor, 10**6), floor)

    def test_explicit_columns_with_ties(self):
        # each side cut at its floor, as the fold's columns are: ties at the
        # floor are kept
        side = ExplicitSpectrum((1.0, 0.5, 0.5, 0.25, 0.25)).dense_values(1e-3, 10)
        col = ExplicitSpectrum((4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.5)).dense_values(1e-3, 10)
        for floor in (0.5, 0.25, 0.125, 1 / 32, 1e-3):
            self.assert_pairwise(side[side >= floor], col, floor)

    def test_a_column_of_one_repeated_value(self):
        # (1, 1, 1) keeps every row, three times over
        assert self.assert_pairwise([0.5, 0.25, 0.25], [1.0, 1.0, 1.0], 0.1) == 9

    def test_rows_an_ulp_either_side_of_the_floor(self):
        # rows at the floor and an ulp above it keep their product with the
        # leading 1 and nothing more; rows at the level each later value
        # needs, and an ulp either side, keep that value or not as the full
        # search does
        import numpy as np

        floor = 0.01
        v = KorobovSpectrum(0.5, 1.0).dense_values(0.1, 10**3)
        levels = [floor / x for x in v[1:4]]
        prod = np.array([floor, math.nextafter(floor, 1.0)] + [
            x for y in levels for x in (math.nextafter(y, 0.0), y, math.nextafter(y, 1.0))])
        assert self.assert_pairwise(prod, v, floor) > len(prod)
        assert self.assert_pairwise(prod[:2], v, floor) == 2

    def test_a_column_that_no_row_reaches_past_its_1(self):
        import numpy as np

        prod = np.array([0.019, 0.015, 0.011])
        v = np.array([1.0, 0.5, 0.25])
        assert self.assert_pairwise(prod, v, 0.01) == len(prod)

    def test_budget_error_at_the_same_total(self):
        # the budget counts entries, a pair of a side's value and a
        # column's, not their copies
        from tractlab.tensor import _dense_fold

        a, b = (c.dense_values(1e-4, 10**6) for c in (KorobovSpectrum(0.5, 1.0),
                                                      KorobovSpectrum(0.3, 1.5)))
        side, col = _as_runs(a), _as_runs(b)
        total = len(_pairwise_fold(side, col, 1e-4, 1 << 30)[0])
        assert total < self.assert_pairwise(a, b, 1e-4)
        for fold in (_dense_fold, _pairwise_fold):
            assert len(fold(side, col, 1e-4, total)[0]) == total
            with pytest.raises(BudgetExceededError):
                fold(side, col, 1e-4, total - 1)

    def test_two_sides_on_the_large_answers_final_folds(self, monkeypatch):
        # the timed points of perfbench's large_answers at seed 0, and curse
        # d = 10, the largest fold pinned
        import numpy as np
        import tractlab.tensor as tensor_mod

        calls = []
        two_sides = tensor_mod._two_sides
        monkeypatch.setattr(tensor_mod, "_two_sides",
                            lambda *args: calls.append(args) or two_sides(*args))
        curse = (KorobovSpectrum(0.5, 1.0),) * 6
        strong = tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21))
        for coords, eps, budget in ((curse, 0.5, None), (curse, 0.45, None),
                                    (strong, 0.1, None),
                                    (curse + curse[:4], 0.5, Budget(n_max=10**11))):
            calls.clear()
            assert info_complexity(ProductProblem(coords), eps, budget).certified
            got = two_sides(*calls[-1])
            with monkeypatch.context() as m:
                m.setattr(tensor_mod, "_dense_fold", _pairwise_fold)
                want = two_sides(*calls[-1])
            for a, b in zip(got, want):
                for x, y in zip(a, b):
                    assert np.array_equal(x.view(np.int64), y.view(np.int64))
            # distinct values only, the copies of each in its multiplicity
            for values, _mults in got:
                assert (np.diff(values) != 0.0).all()

    def test_sides_merge_once_their_folds_double_them(self, monkeypatch):
        # a side enters a fold with fewer than twice as many entries as
        # distinct values (so curse sides, whose products repeat, merge
        # nearly every fold), and the merges sort at most twice what the
        # folds added plus the two final sides (so the k^-3 sides, which
        # grow a little per fold, are not sorted again for each)
        import numpy as np
        import tractlab.tensor as tensor_mod

        added, merges, finals = [], [], []
        dense_fold, runs, two_sides = (tensor_mod._dense_fold, tensor_mod._runs,
                                       tensor_mod._two_sides)

        def recording_fold(side, *args):
            assert len(side[0]) < 2 * len(np.unique(side[0]))
            out = dense_fold(side, *args)
            added.append(len(out[0]) - len(side[0]))
            return out

        def recording_sides(*args):
            # the merges of _two_sides, not of first_reaching's slices
            with monkeypatch.context() as m:
                m.setattr(tensor_mod, "_runs",
                          lambda *a: merges.append(len(a[0])) or runs(*a))
                col, rows = two_sides(*args)
            finals.append(len(col[0]) + len(rows[0]))
            return col, rows

        monkeypatch.setattr(tensor_mod, "_dense_fold", recording_fold)
        monkeypatch.setattr(tensor_mod, "_two_sides", recording_sides)
        curse = (KorobovSpectrum(0.5, 1.0),) * 10
        strong = tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21))
        for coords, eps in ((curse, 0.5), (strong, 0.1)):
            added.clear(), merges.clear(), finals.clear()
            assert info_complexity(ProductProblem(coords), eps,
                                   Budget(n_max=10**11)).certified
            assert added and sum(merges) <= 2 * sum(added) + sum(finals)

    @staticmethod
    def _columns(coords, floor):
        """Each coordinate's own column, and keys as _fold_decide gives them."""
        from tractlab.tensor import _runs

        first = {}
        return ([_runs(c.dense_values(floor, 10**7)) for c in coords],
                [first.setdefault(c, i) for i, c in enumerate(coords)])

    def test_shared_sides_are_bit_identical(self, monkeypatch):
        # equal coordinates build each side once: the same doubles and
        # multiplicities as folding every coordinate's own column
        import numpy as np
        import tractlab.tensor as tensor_mod

        a, b = KorobovSpectrum(0.5, 1.0), KorobovSpectrum(0.3, 1.5)
        ex = ExplicitSpectrum((2.0, 1.0, 1.0, 0.5, 0.4, 0.2), tail=0.1)
        cases = [((a,) * 6, (1e-2, 1e-3, 1e-4)), ((a,) * 7, (1e-2, 1e-3, 3e-4)),
                 ((a,) * 9, (1e-1, 1e-2, 2e-3)), ((a, a, b, b, a, b), (1e-2, 1e-4)),
                 ((ex, a, ex, a, ex, b), (0.3, 1e-2, 1e-4))]
        for coords, floors in cases:
            for floor in floors:
                cols, keys = self._columns(coords, floor)
                assert len(set(keys)) < len(keys)
                shared = tensor_mod._two_sides([cols[k] for k in keys], floor, 1 << 24, keys)
                own = tensor_mod._two_sides(cols, floor, 1 << 24)
                for x, y in zip(shared, own):
                    for u, v in zip(x, y):
                        assert np.array_equal(u.view(np.int64), v.view(np.int64))
        folds = []
        dense_fold = tensor_mod._dense_fold
        monkeypatch.setattr(tensor_mod, "_dense_fold",
                            lambda *args: folds.append(1) or dense_fold(*args))
        cols, keys = self._columns((a,) * 6, 1e-3)
        for args, calls in (((keys,), 2), ((), 4)):
            folds.clear()
            tensor_mod._two_sides(cols, 1e-3, 1 << 24, *args)
            assert len(folds) == calls

    def test_one_column_per_distinct_spectrum(self, monkeypatch):
        # each fold fetches the column of curse d = 6 once, and each of
        # the twenty distinct k^-3 columns once
        import tractlab.tensor as tensor_mod

        fetched, folds = [], []
        dense = KorobovSpectrum.dense_values
        monkeypatch.setattr(KorobovSpectrum, "dense_values",
                            lambda self, *args: fetched.append(1) or dense(self, *args))
        init = tensor_mod._LevelFold.__init__
        monkeypatch.setattr(tensor_mod._LevelFold, "__init__",
                            lambda self, *args: folds.append(1) or init(self, *args))
        curse = (KorobovSpectrum(0.5, 1.0),) * 6
        strong = tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21))
        for coords, eps, per_fold in ((curse, 0.45, 1), (strong, 0.1, 20)):
            fetched.clear(), folds.clear()
            assert info_complexity(ProductProblem(coords), eps).certified
            assert folds and len(fetched) == per_fold * len(folds)


def _geometric_first_reaching(fold, target, upper):
    """_LevelFold.first_reaching with every split at sqrt(ab), the geometric
    mean of the slice's largest and smallest values: the reference for the
    aimed splits."""
    import numpy as np
    from tractlab.tensor import _SLICE_ENTRIES, _exact_parts, _first_reaching, _runs

    rows, lo = fold.rows, fold.bottom
    hi = fold.counts(upper)

    def reaches(counts):
        terms = fold.mass(counts)
        total = float(terms.sum())
        if abs(total - target) <= 2.3e-16 * (len(terms) + 4) * total:
            total = math.fsum(_exact_parts(terms))
        return total >= target

    if reaches(hi):
        hi = np.zeros_like(lo)
    while fold.number(lo) - fold.number(hi) > _SLICE_ENTRIES:
        a = float((rows * fold._ends[hi]).max())
        b = float((rows * fold._ends[lo - 1]).min())
        if a <= b * (1.0 + 2.0 ** -40):
            break
        mid = fold.counts(math.sqrt(a) * math.sqrt(b))
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    base = math.fsum(_exact_parts(fold.mass(hi)))
    width = lo - hi
    size, count = int(width.sum()), fold.number(hi)
    idx = np.repeat(lo - np.cumsum(width), width) + np.arange(size)
    values, mults = _runs(np.repeat(rows, width) * fold.col[idx],
                          np.repeat(fold.row_mult, width) * np.diff(fold.below)[idx])
    crossed, k, partial, prev = _first_reaching(values, target, base, mults)
    return (count + k, partial, prev, count + int(mults.sum())) if crossed else None


def _large_answer_points():
    """perfbench's timed large_answers points at seeds 0 and 3, scaled as
    its seeds draw them, and curse d = 7 and 8 at eps 0.5."""
    points = []
    for seed in (0, 3):
        rng = random.Random(seed)
        curse, strong = (1.0 - (rng.uniform(0.0, 0.01) if seed else 0.0)
                         for _ in range(2))
        points += [
            ((KorobovSpectrum(0.5 * curse, 1.0),) * 6, 0.5, None),
            ((KorobovSpectrum(0.5 * curse, 1.0),) * 6, 0.45, None),
            (tuple(KorobovSpectrum(strong * k**-3.0, 1.0) for k in range(1, 21)),
             0.1, None),
        ]
    return points + [((KorobovSpectrum(0.5, 1.0),) * d, 0.5, Budget(n_max=10**8))
                     for d in (7, 8)]


class TestAimedSplit:
    """first_reaching aims its splits at the crossing, by the mass linear in
    ln(level), and falls back to sqrt(ab) after an aimed split that does not
    halve the slice: no more searches than splitting at sqrt(ab) always."""

    @pytest.mark.parametrize("point", range(8))
    def test_no_more_searches_than_geometric_splits(self, monkeypatch, point):
        import tractlab.tensor as tensor_mod

        calls = []
        first_reaching = tensor_mod._LevelFold.first_reaching
        monkeypatch.setattr(tensor_mod._LevelFold, "first_reaching",
                            lambda self, *args: calls.append((self,) + args)
                            or first_reaching(self, *args))
        coords, eps, budget = _large_answer_points()[point]
        assert info_complexity(ProductProblem(coords), eps, budget).certified
        fold, target, upper = calls[-1]  # the decision
        searches = []
        counts = fold.counts
        fold.counts = lambda level: searches.append(level) or counts(level)
        got = first_reaching(fold, target, upper)
        aimed = len(searches)
        searches.clear()
        want = _geometric_first_reaching(fold, target, upper)
        assert aimed <= len(searches)
        # the same n; the sums of the sorted slice are exact and the base
        # above it is the correctly rounded sum of its row terms, but those
        # terms move with the final slice by a few u: on the strong point
        # at seed 0 P_(n-1) may move by an ulp
        assert got[0] == want[0]
        for a, b in zip(got[1:3], want[1:3]):
            assert a == pytest.approx(b, rel=1e-15, abs=0.0)


def _fold_problems():
    """verify's random instances (seeds 0-2), tower problems, uniform
    blocks and the curse at d = 3 to 9: explicit ties, Korobov pairs and
    equal coordinates."""
    from tractlab.fixtures import tower_problem, uniform_block_problem

    problems = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        problems += [random_instance(rng).coordinates for _ in range(10)]
    problems += [tower_problem(d).coordinates for d in (4, 16, 20)]
    problems += [uniform_block_problem(d).coordinates for d in (3, 20)]
    return problems + [(KorobovSpectrum(0.5, 1.0),) * d for d in range(3, 10)]


def _small_fold(coords):
    """The fold at the highest floor 4^-k that holds at least 2,000 products
    (or 4^-20)."""
    from tractlab.tensor import _LevelFold

    for k in range(1, 21):
        fold = _LevelFold(coords, 4.0 ** -k, 1 << 22, 10**7)
        if fold.held >= 2000:
            break
    return fold


class TestRunFold:
    """The fold holds distinct values with multiplicities: every count,
    mass and crossing is that of the multiset they hold, each copy apart."""

    @pytest.mark.parametrize("coords", _fold_problems())
    def test_counts_and_masses_match_the_expanded_fold(self, coords):
        import numpy as np

        fold = _small_fold(coords)
        rows = np.repeat(fold.rows, fold.row_mult.astype(np.int64))
        col = np.repeat(fold.col, np.diff(fold.below).astype(np.int64))
        assert (np.diff(fold.rows) > 0.0).all() and (np.diff(fold.col) < 0.0).all()
        rng = random.Random(len(coords))
        levels = [math.inf, fold.floor, 1.0]
        for _ in range(20):  # products themselves, and an ulp either side
            v = float(rows[rng.randrange(len(rows))] * col[rng.randrange(len(col))])
            levels += [v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)]
        for level in levels:
            counts = np.searchsorted(-col, -level / rows, side="right")
            idx = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            products = np.sort(np.repeat(rows, counts) * col[idx])
            got = fold.counts(level)
            assert fold.number(got) == len(products)
            assert float(fold.mass(got).sum()) == pytest.approx(
                math.fsum(products), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("coords", _fold_problems())
    def test_crossings_match_the_expanded_slice(self, coords, monkeypatch):
        # the scan of a slice's runs reports, bit for bit, what the scan of
        # every copy would
        import numpy as np
        import tractlab.tensor as tensor_mod

        first = tensor_mod._first_reaching
        scans = []

        def both(values, target, base=0.0, mults=None):
            got = first(values, target, base, mults)
            want = first(np.repeat(values, mults.astype(np.int64)), target, base)
            scans.append(len(values))
            assert got == want
            return got

        monkeypatch.setattr(tensor_mod, "_first_reaching", both)
        fold = _small_fold(coords)
        rng = random.Random(len(coords))
        for share in [0.999, 0.5] + [rng.random() for _ in range(6)]:
            hit = fold.first_reaching(share * fold.total, math.inf)
            assert hit and hit[0] <= fold.held
        assert len(scans) == 8

    def test_large_multiplicities_against_exact_sums(self):
        # runs of up to 2^46 copies, below 2^52 in all, against sums of
        # fractions, correctly rounded by float(): crossings at, and an ulp
        # either side of, the sums a run's first, second, middle and last
        # copies reach
        import numpy as np
        from fractions import Fraction
        from tractlab.tensor import _first_reaching

        rng = random.Random(5)
        values = sorted((rng.random() ** 4 for _ in range(40)), reverse=True)
        mults = [rng.choice([1, 2, 3, 2**26 + 1, 2**40 + 7, 2**46 - 1]) for _ in values]
        base = 0.3
        starts = [Fraction(base)]
        for v, m in zip(values, mults):
            starts.append(starts[-1] + m * Fraction(v))

        def reference(target):
            passed = 0
            for v, m, start in zip(values, mults, starts):
                if float(start + m * Fraction(v)) >= target:
                    lo, hi = 0, m
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if float(start + mid * Fraction(v)) >= target:
                            hi = mid
                        else:
                            lo = mid
                    return (True, passed + hi, float(start + hi * Fraction(v)),
                            float(start + lo * Fraction(v)))
                passed += m
            return False, passed, float(starts[-1]), float(starts[-1])

        arrays = np.array(values), np.array(mults, dtype=np.float64)
        for v, m, start in list(zip(values, mults, starts))[::3]:
            for t in {1, 2, m // 2, m}:
                x = float(start + t * Fraction(v))
                for target in (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)):
                    assert _first_reaching(*arrays[:1], target, base,
                                           arrays[1]) == reference(target)
        assert _first_reaching(arrays[0], 2 * float(starts[-1]), base,
                               arrays[1]) == reference(2 * float(starts[-1]))

    def test_tied_curse_answers(self):
        # the products of equal coordinates tie in runs of millions of
        # copies; the fold decides inside a run without building it
        budget = Budget(n_max=10**11)
        for d, n in ((9, 212_519_180), (10, 2_022_940_510)):
            res = info_complexity(ProductProblem((KorobovSpectrum(0.5, 1.0),) * d), 0.5,
                                  budget)
            assert (res.n, res.certified, res.n_low, res.n_high) == (n, True, n, n)

    def test_a_memory_check_carries_a_proof(self):
        # a 64 MB budget (2^20 entries) stops the walk's folds short of the
        # answer, 109,973,931; the memory error carries the largest fold the
        # walk proved short of the threshold as its n_lower, and as its pops
        # the products of the fold that raised (the heap never ran)
        p = ProductProblem(tuple(KorobovSpectrum(0.9 - 0.1 * k, 0.6 + 0.05 * k)
                                 for k in range(3)))
        answer = info_complexity(p, 0.47, Budget(n_max=10**12))
        assert (answer.n, answer.certified) == (109_973_931, True)
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(p, 0.47, Budget(n_max=10**12, heap_bytes=1 << 26))
        assert 0 < exc_info.value.n_lower < answer.n
        assert (exc_info.value.n_lower, exc_info.value.pops) == (18_202_919, 18_202_919)


class TestTopEigenvalues:
    def test_stream_is_sorted_and_deduplicated(self):
        p = ProductProblem(
            (
                ExplicitSpectrum((1.0, 0.9, 0.2)),
                ExplicitSpectrum((1.0, 0.8, 0.8, 0.1)),
            )
        )
        items = list(top_eigenvalues(p, 100))
        values = [v for _, v in items]
        assert all(a >= b * (1.0 - 1e-15) for a, b in zip(values, values[1:]))
        assert len({z for z, _ in items}) == len(items)

    def test_stream_matches_sorted_grid(self):
        p = ProductProblem(
            (
                ExplicitSpectrum((1.0, 0.7, 0.3)),
                ExplicitSpectrum((1.0, 0.6, 0.25, 0.1)),
            )
        )
        grid = sorted(
            (
                a * b
                for a in (1.0, 0.7, 0.3)
                for b in (1.0, 0.6, 0.25, 0.1)
            ),
            reverse=True,
        )
        streamed = [v for _, v in top_eigenvalues(p, len(grid))]
        assert streamed == pytest.approx(grid, rel=1e-12)

    def test_declared_tail_cuts_after_the_listed_values(self):
        # a tail above the 1e-9 cut cannot be cut away; the stream keeps
        # the listed values and leaves the tail out
        p = ProductProblem((ExplicitSpectrum((1.0, 0.5), tail=1.0),
                            KorobovSpectrum(0.5, 1.0)))
        items = list(top_eigenvalues(p, 5))
        assert [z for z, _ in items] == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
        assert [v for _, v in items] == [1.0, 0.5, 0.5, 0.5, 0.25]

    def test_floor_cuts_the_stream(self):
        p = ProductProblem((ExplicitSpectrum((1.0, 0.5, 0.1)),))
        vals = [v for _, v in top_eigenvalues(p, 10, floor=0.3)]
        assert vals == pytest.approx([1.0, 0.5])

    @pytest.mark.parametrize("kwargs", [
        {"floor": math.nan}, {"floor": -1.0}, {"n_max": 1.5}, {"n_max": -1},
        {"n_max": True}],
        ids=["floor-nan", "floor-negative", "n_max-fraction", "n_max-negative", "n_max-bool"])
    def test_rejects_a_bad_floor_or_n_max(self, kwargs):
        p = ProductProblem((ExplicitSpectrum((1.0, 0.5, 0.1)),))
        args = {"n_max": 3, **kwargs}
        with pytest.raises(DomainError):
            top_eigenvalues(p, **args)
        assert list(top_eigenvalues(p, 0)) == []

    def test_cut_raises_the_floor_over_left_out_values(self):
        # the cut at 1e-9 leaves out the first coordinate's 1e-10, so the
        # floor rises to it: the stream ends after 1.0 rather than list
        # 1e-11 products ahead of the larger (2, 1) = 1e-10
        p = ProductProblem((ExplicitSpectrum((1.0, 1e-10)),
                            ExplicitSpectrum((1.0,) + (1e-11,) * 1000)))
        assert list(top_eigenvalues(p, 3)) == [((1, 1), 1.0)]

    @given(st.lists(st.tuples(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=4),
        st.floats(min_value=1e-13, max_value=1e-8),
        st.integers(min_value=0, max_value=30)), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_stream_is_the_top_of_the_full_grid(self, coords):
        # explicit lists with a run of tiny trailing values, some of which
        # the cut leaves out: each streamed value is the full grid's value
        # of the same rank
        lists = [tuple(sorted(head, reverse=True)) + (tiny,) * count
                 for head, tiny, count in coords]
        p = ProductProblem(tuple(ExplicitSpectrum(v) for v in lists))
        grid = [1.0]
        for values in lists:
            grid = [a * b for a in grid for b in values]
        grid.sort(reverse=True)
        streamed = [v for _, v in top_eigenvalues(p, len(grid))]
        assert streamed
        assert streamed == pytest.approx(grid[:len(streamed)], rel=1e-12)


def _unpruned_stream(coords, log_floor):
    """_stream_normalized before its children's loop could stop early: first
    found by a scan of z on every pop, and every child evaluated.  The
    reference for the stream's values and multi-indices."""
    import heapq
    from tractlab.tensor import _coordinate_tables

    logb, lengths = _coordinate_tables(coords), [m for _c, m in coords]
    d = len(coords)
    heap = [(-0.0, (1,) * d)]
    while heap:
        neg, z = heapq.heappop(heap)
        logv = -neg
        yield z, logv
        first = next((i for i in range(d - 1, -1, -1) if z[i] > 1), 0)
        for i in range(first, d):
            ji = z[i]
            if ji >= lengths[i]:
                continue
            child_log = logv - logb[i](ji - 1) + logb[i](ji)
            if child_log >= log_floor:
                heapq.heappush(heap, (-child_log, z[:i] + (ji + 1,) + z[i + 1:]))


class TestHeapStream:
    """The heap stops a pop's children once no later one can reach the
    floor; it streams the same values and multi-indices as before."""

    @staticmethod
    def coordinate(rng):
        kind = rng.random()
        if kind < 0.4:  # a Korobov coordinate, sometimes past the 4096-value table
            length = rng.choice((1, 2, 3, 40, 5000))
            return KorobovSpectrum(rng.uniform(0.01, 1.0), rng.uniform(1.0, 2.0)), length
        if kind < 0.8:  # explicit values with ties, cut anywhere
            values = sorted((rng.choice((1.0, 0.5, 0.3, 0.1, 0.05))
                             for _ in range(rng.randint(1, 6))), reverse=True)
            spectrum = ExplicitSpectrum((1.0,) + tuple(values))
            return spectrum, rng.randint(1, len(spectrum.values))
        return ExplicitSpectrum((rng.uniform(0.5, 2.0),)), 1

    def test_matches_the_unpruned_stream(self):
        import itertools
        from tractlab.tensor import _stream_normalized

        rng = random.Random(21)
        for _ in range(40):
            coords = [self.coordinate(rng) for _ in range(rng.randint(1, 30))]
            if rng.random() < 0.5:  # first steps that shrink along the order
                coords.sort(key=lambda c: c[1] > 1 and c[0].log_eigenvalue(2)
                            - c[0].log_eigenvalue(1), reverse=True)
            for log_floor in (-math.inf, math.log(0.2), math.log(1e-2), math.log(1e-4)):
                got = list(itertools.islice(_stream_normalized(coords, log_floor, math.inf),
                                            1000))
                want = list(itertools.islice(_unpruned_stream(coords, log_floor), 1000))
                assert got == want

    def test_a_pop_reads_few_table_values(self, monkeypatch):
        # g_k = k^-3, d = 20 at eps 0.1 (a large_answers point): a pop reads
        # its children's values up to the first that no later one beats,
        # not all d (19,732 reads over the 552 heap pops before the stop)
        import tractlab.tensor as tensor_mod

        reads, pops = [], []
        tables = tensor_mod._coordinate_tables
        monkeypatch.setattr(tensor_mod, "_coordinate_tables", lambda coords: [
            lambda j, f=f: reads.append(j) or f(j) for f in tables(coords)])
        stream = tensor_mod._stream_normalized
        monkeypatch.setattr(tensor_mod, "_stream_normalized", lambda *args: (
            pops.append(item) or item for item in stream(*args)))
        p = ProductProblem(tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 21)))
        res = info_complexity(p, 0.1)
        assert (res.n, res.certified, res.pops, len(pops)) == (226_190, True, 230_831, 552)
        assert len(reads) <= 4 * len(pops)


class TestHeapStop:
    """The heap pops until its plain float sum has surely crossed, and at
    most its pops left; _Target.decide then decides on the values popped."""

    @staticmethod
    def eps_between(p, lo, hi):
        """An eps whose threshold lies in (lo, hi], searched over the doubles
        next to the eps of hi."""
        from tractlab.tensor import _Target

        eps = down = math.sqrt(1.0 - hi / _Target(p, 0.5).trace)
        for _ in range(300):
            for e in (eps, down):
                if lo < _Target(p, e).threshold <= hi:
                    return e
            eps, down = math.nextafter(eps, 1.0), math.nextafter(down, 0.0)
        return None

    def test_decides_on_the_correctly_rounded_sum(self, monkeypatch):
        # a seeded search over explicit spectra for a pop k whose plain
        # running sum rounds above fsum's P_k, with P_(k+1) above both, and an
        # eps whose threshold falls between them: the plain sum reaches the
        # threshold first, the correctly rounded one only at k + 1
        import itertools
        import tractlab.tensor as tensor_mod

        rng = random.Random(0)
        for _ in range(50):
            p = ProductProblem(tuple(
                ExplicitSpectrum((1.0,) + tuple(sorted(
                    (rng.uniform(0.05, 1.0) for _ in range(rng.randint(3, 12))),
                    reverse=True)))
                for _ in range(rng.randint(2, 3))))
            values = [v for _z, v in itertools.islice(top_eigenvalues(p, 1000), 1000)]
            plain = list(itertools.accumulate(values))
            sums = [math.fsum(values[:k]) for k in range(1, len(values) + 1)]
            k = next((k for k in range(len(values) - 1)
                      if sums[k] < plain[k] < sums[k + 1]), None)
            eps = k is not None and self.eps_between(p, sums[k], plain[k])
            if eps:
                break
        assert eps, "the search found no such point"
        threshold = tensor_mod._Target(p, eps).threshold
        first_plain = next(j for j, s in enumerate(plain) if s >= threshold)
        assert first_plain <= k and sums[k] < threshold  # 0-based: n = k + 1
        folds, decide = [], tensor_mod._fold_decide
        monkeypatch.setattr(tensor_mod, "_fold_decide",
                            lambda *args: folds.append(1) or decide(*args))
        res = info_complexity(p, eps)
        assert not folds
        assert (res.n, res.n_high, res.partial_sum) == (k + 2, k + 2, sums[k + 1])

    def test_pop_cap_holds_inside_the_margin(self, monkeypatch):
        # n_max = 5 caps the heap at five pops, and the threshold sits at
        # most the stop rule's margin below their plain sum: the sum has
        # not surely crossed nor fallen short, and the heap stops anyway
        import itertools
        import tractlab.tensor as tensor_mod

        p = ProductProblem((ExplicitSpectrum((1.0, 0.7, 0.45, 0.3)),) * 2)
        values = [v for _z, v in itertools.islice(top_eigenvalues(p, 5), 5)]
        s5 = sum(values)
        eps = self.eps_between(p, s5 - 2.3e-16 * 5 * s5, s5)
        assert 0.0 <= s5 - tensor_mod._Target(p, eps).threshold <= 2.3e-16 * 5 * s5
        pops, stream = [], tensor_mod._stream_normalized
        monkeypatch.setattr(tensor_mod, "_stream_normalized", lambda *args: (
            pops.append(item) or item for item in stream(*args)))
        try:
            res = info_complexity(p, eps, Budget(n_max=5))
        except BudgetExceededError as exc:
            assert exc.n_lower <= 5
        else:
            assert res.n <= 5 and res.pops <= 5
        assert len(pops) <= 5

    def test_no_heap_without_pops_left(self, monkeypatch):
        # heap_bytes=1 leaves 1024 heap entries, fewer than d = 1100: no pop
        # fits, so the heap is not even set up and the fold answers alone
        import tractlab.tensor as tensor_mod

        scans, heap_scan = [], tensor_mod._heap_scan
        monkeypatch.setattr(tensor_mod, "_heap_scan",
                            lambda *args: scans.append(1) or heap_scan(*args))
        p = ProductProblem(tuple(KorobovSpectrum(k**-3.0, 1.0) for k in range(1, 1101)))
        capped = info_complexity(p, 0.5, budget=Budget(heap_bytes=1))
        assert not scans
        free = info_complexity(p, 0.5)
        assert scans
        assert (capped.n, capped.certified, capped.n_low, capped.n_high) == (
            free.n, free.certified, free.n_low, free.n_high)

    def test_partial_sum_is_the_fsum_of_the_top_values(self, monkeypatch):
        # leading-1 problems answered on the heap report the correctly
        # rounded sum of the first n values that top_eigenvalues streams
        import itertools
        import tractlab.tensor as tensor_mod

        folds, decide = [], tensor_mod._fold_decide
        monkeypatch.setattr(tensor_mod, "_fold_decide",
                            lambda *args: folds.append(1) or decide(*args))
        rng = random.Random(8)
        for _ in range(60):
            coords = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    coords.append(KorobovSpectrum(rng.uniform(0.05, 0.8),
                                                  rng.uniform(1.0, 3.0)))
                else:
                    q = rng.uniform(0.2, 0.7)
                    coords.append(ExplicitSpectrum(tuple(
                        q ** j for j in range(rng.randint(2, 30)))))
            p = ProductProblem(tuple(coords))
            res = info_complexity(p, rng.uniform(0.3, 0.9))
            top = [v for _z, v in itertools.islice(top_eigenvalues(p, res.n), res.n)]
            assert len(top) == res.n
            assert res.partial_sum == math.fsum(top)
        assert not folds


def _small_answers_points(seed):
    """Points drawn as perfbench's small_answers draws them: half of d in
    1..4 with Korobov or geometric explicit coordinates, half from the
    power-weight family g_k = k^-rho, each with an eps in [0.45, 0.75]."""
    rng = random.Random(seed)
    for i in range(1000):
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
        else:
            rho, r = rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0)
            coords = [KorobovSpectrum(k ** -rho, r)
                      for k in range(1, rng.randint(5, 10) + 1)]
        yield ProductProblem(tuple(coords)), rng.uniform(0.45, 0.75)


class TestHeapSkip:
    """Cauchy-Schwarz bounds any k products by sqrt(k S2), S2 the sum of
    their squares; where that puts the answer past the heap's cap, the fold
    walk starts at S2 / threshold with no heap pop, and every answer is the
    one the heap path gives."""

    @staticmethod
    def skip_problems():
        points = [(ProductProblem((KorobovSpectrum(0.5, 1.0),) * d), eps)
                  for d in range(2, 9) for eps in (0.3, 0.4, 0.5, 0.6, 0.7)]
        strong = ProductProblem(tuple(KorobovSpectrum(k**-3.0, 1.0)
                                      for k in range(1, 21)))
        points += [(strong, 0.5), (strong, 0.1)]
        rng = random.Random(4)  # slowly decaying lists with declared tails
        for _ in range(12):
            coords = []
            for _ in range(rng.randint(2, 3)):
                q = rng.uniform(0.8, 0.98)
                values = tuple(q ** j for j in range(rng.randint(20, 120)))
                tail = rng.uniform(1e-7, 1e-3) * sum(values)
                coords.append(ExplicitSpectrum(values, tail))
            points.append((ProductProblem(tuple(coords)), rng.uniform(0.3, 0.7)))
        return points

    @staticmethod
    def outcome(p, eps, budget):
        try:
            res = info_complexity(p, eps, budget)
        except BudgetExceededError as exc:
            return "raises", exc.n_lower
        return res.n, res.certified, res.n_low, res.n_high

    @pytest.mark.parametrize("heap_bytes", [Budget().heap_bytes, 1])
    def test_answers_match_the_heap_path(self, monkeypatch, heap_bytes):
        # with the skip switched off the heap runs first, as it did before
        # the skip; a walk past n_max proves a lower bound that depends on
        # its folds, so there only both must raise.  Wherever the skip
        # fires, the answer lies past the heap's pops
        import tractlab.tensor as tensor_mod

        fired, beyond = [], tensor_mod._beyond_heap

        def spy(spectra, threshold, heap_left):
            level = beyond(spectra, threshold, heap_left)
            fired.append(heap_left if level is not None else None)
            return level

        budget = Budget(n_max=10**7, heap_bytes=heap_bytes)
        skips = 0
        for p, eps in self.skip_problems():
            fired.clear()
            monkeypatch.setattr(tensor_mod, "_beyond_heap", spy)
            got = self.outcome(p, eps, budget)
            monkeypatch.setattr(tensor_mod, "_beyond_heap", lambda *args: None)
            want = self.outcome(p, eps, budget)
            if got[0] == "raises":
                assert want[0] == "raises", (p, eps)
            else:
                assert got == want, (p, eps)
            heap_left, = fired
            if heap_left is not None:
                skips += 1
                n = got[1] if got[0] == "raises" else got[0]  # n, or n_lower < n
                assert n > heap_left, (p, eps)
        assert skips == (29 if heap_bytes == 1 else 18)

    def test_top_sums_stay_within_the_bound(self):
        # every top-k sum of a brute grid is at most sqrt(k S2), and a test
        # that fires at k pops leaves the grid's top k short of its threshold
        import itertools
        from fractions import Fraction

        import numpy as np
        from tractlab.tensor import _beyond_heap

        rng = random.Random(9)
        for _ in range(30):
            coords = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    coords.append(KorobovSpectrum(rng.uniform(0.05, 1.0),
                                                  rng.uniform(0.55, 2.0)))
                else:
                    values = sorted((rng.uniform(0.01, 5.0)
                                     for _ in range(rng.randint(1, 40))), reverse=True)
                    coords.append(ExplicitSpectrum(tuple(values),
                                                   rng.choice((0.0, 1e-3, 0.5))))
            grid = np.ones(1)
            for c in coords:
                grid = np.multiply.outer(grid, c.dense_values(1e-300, 41)).ravel()
            top = np.sort(grid)[::-1]
            s2 = math.prod(1.0 + c.excess_power_sum(2.0) for c in coords)
            # each top-k math.fsum, from the exact running sum it rounds
            exact = itertools.accumulate(map(Fraction, top[:3000].tolist()))
            sums = [float(x) for x in exact]
            for k, total in enumerate(sums, 1):
                assert total <= math.sqrt(k * s2)
            for k in {min(k, len(sums)) for k in (1, 2, 7, 100, 3000)}:
                threshold = math.sqrt(k * s2 / (1.0 - 2e-9)) * (1.0 + 1e-15)
                assert _beyond_heap(coords, threshold, k) == min(1.0, s2 / threshold)
                assert sums[k - 1] < threshold
                assert _beyond_heap(coords, 0.999 * math.sqrt(k * s2), k) is None

    def test_square_sum_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")

        rng = random.Random(10)
        with mpmath.workdps(40):
            for _ in range(40):
                coords, exact = [], mpmath.mpf(1)
                for _ in range(rng.randint(1, 8)):
                    if rng.random() < 0.5:
                        g, r = rng.uniform(1e-3, 1.0), rng.uniform(0.51, 4.0)
                        coords.append(KorobovSpectrum(g, r))
                        x = 2 * mpmath.mpf(g) ** 2 * mpmath.zeta(4 * mpmath.mpf(r))
                    else:
                        values = sorted((rng.uniform(0.01, 5.0)
                                         for _ in range(rng.randint(1, 40))), reverse=True)
                        tail = rng.choice((0.0, 1e-3, 0.5))
                        coords.append(ExplicitSpectrum(tuple(values), tail))
                        lead = mpmath.mpf(values[0])
                        x = (mpmath.fsum((mpmath.mpf(v) / lead) ** 2 for v in values[1:])
                             + mpmath.mpf(tail) * mpmath.mpf(values[-1]) / lead ** 2)
                    exact *= 1 + x
                s2 = math.prod(1.0 + c.excess_power_sum(2.0) for c in coords)
                assert abs(s2 - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_answers_stay_on_the_heap(self, monkeypatch, seed):
        # perfbench's small_answers counts on the heap alone: every point
        # shaped like them is decided within the heap's pops, so neither
        # the skip nor the fold walk ever runs
        import tractlab.tensor as tensor_mod

        calls, beyond = [], tensor_mod._beyond_heap
        monkeypatch.setattr(tensor_mod, "_fold_decide",
                            lambda *args: calls.append("fold"))
        monkeypatch.setattr(tensor_mod, "_beyond_heap", lambda *args: (
            beyond(*args) is not None and calls.append("skip")) or None)
        for p, eps in _small_answers_points(seed):
            info_complexity(p, eps)
        assert calls == []


@st.composite
def random_problems(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    coords = []
    for _ in range(d):
        if draw(st.booleans()):
            coords.append(
                KorobovSpectrum(
                    g=draw(st.floats(min_value=0.1, max_value=1.0)),
                    r=draw(st.floats(min_value=1.0, max_value=3.0)),
                )
            )
        else:
            raw = draw(
                st.lists(
                    st.floats(min_value=1e-4, max_value=1.0),
                    min_size=1,
                    max_size=12,
                )
            )
            coords.append(ExplicitSpectrum(tuple(sorted(raw, reverse=True))))
    return ProductProblem(tuple(coords))


class TestOracleAgreement:
    @given(random_problems(), st.sampled_from((0.9, 0.6, 0.3)))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_when_both_certify(self, problem, eps):
        fast = info_complexity(problem, eps)
        slow = brute_force_complexity(problem, eps)
        if fast.certified and slow.certified:
            assert fast.n == slow.n

    @given(random_problems(), st.sampled_from((0.9, 0.6, 0.3)))
    @settings(max_examples=60, deadline=None)
    def test_fold_brackets_contain_heap_answers(self, problem, eps):
        # a certified answer of either engine lies in the other's bracket
        import tractlab.tensor as tensor_mod

        heap = info_complexity(problem, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_mod, "_HANDOFF_POPS", 1)
            fold = info_complexity(problem, eps)
        for a, b in ((heap, fold), (fold, heap)):
            if a.certified:
                assert b.n_low <= a.n <= b.n_high
        # answers the heap cannot reach come from the fold on both sides:
        # the oracle's bracket, which always holds the answer, checks them
        oracle = brute_force_complexity(problem, eps)
        for res in (heap, fold):
            if res.certified:
                assert oracle.n_low <= res.n <= oracle.n_high

    def test_seeded_batch_agrees(self):
        rng = random.Random(20240817)
        both = total = 0
        for _ in range(30):
            d = rng.randint(1, 3)
            coords = tuple(
                KorobovSpectrum(rng.uniform(0.1, 1.0), rng.uniform(1.0, 3.0))
                for _ in range(d)
            )
            p = ProductProblem(coords)
            for eps in (0.9, 0.5, 0.2):
                fast = info_complexity(p, eps)
                slow = brute_force_complexity(p, eps)
                assert fast.certified
                total += 1
                if slow.certified:
                    both += 1
                    assert fast.n == slow.n
        # the rectangular-grid oracle may fail to certify near-tie points,
        # but it must handle the overwhelming majority
        assert both >= 0.8 * total

    def test_small_eps_batch_agrees(self):
        # explicit geometric lists, and ones followed by tied tiny values,
        # at eps from 6e-4 to 1.6e-2: the heap's views cut these lists
        # inside the answer's values, and the oracle must refine past grids
        # that do not cross
        rng = random.Random(2026)
        both = 0
        for _ in range(150):
            coords = []
            for _ in range(rng.randint(2, 3)):
                if rng.random() < 0.5:
                    q = rng.uniform(0.3, 0.7)
                    values = tuple(q**j for j in range(rng.randint(5, 30)))
                else:
                    values = ((1.0,) * rng.randint(1, 2)
                              + (10 ** rng.uniform(-6.0, -3.0),) * rng.randint(2, 10))
                coords.append(ExplicitSpectrum(values))
            p = ProductProblem(tuple(coords))
            eps = math.exp(rng.uniform(math.log(6e-4), math.log(1.6e-2)))
            fast = info_complexity(p, eps)
            slow = brute_force_complexity(p, eps)
            if fast.certified and slow.certified:
                both += 1
                assert fast.n == slow.n
            if fast.certified:
                assert slow.n_low <= fast.n <= slow.n_high
        assert both >= 140


class TestOracleUncrossed:
    @pytest.mark.parametrize("eps, n_low", [(0.5, 4), (0.1, 89)])
    def test_grid_that_never_crosses(self, eps, n_low):
        # the declared tail keeps the whole capped grid (999,999 Korobov
        # values, the per-coordinate cap, times (1, 0.5)) below the
        # threshold, so its size bounds nothing: the oracle raises, and the
        # top n_low - 1 products, short of the threshold less the lost mass,
        # are the proved lower bound
        korobov = KorobovSpectrum(0.5, 1.0)
        p = ProductProblem((korobov, ExplicitSpectrum((1.0, 0.5), tail=1.0)))
        with pytest.raises(BudgetExceededError) as exc:
            brute_force_complexity(p, eps)
        assert (exc.value.n_lower, exc.value.pops) == (n_low - 1, 3_321_482)


class TestOracleRefinement:
    def test_refines_past_a_tolerance_that_drops_no_more(self):
        # the first grid (7 entries: the first list cut to its leading 1)
        # does not cross, and the next tolerance keeps the same lengths; the
        # oracle shrinks it again instead of stopping with a [7, 7] bracket.
        # Exact sums over the 63-entry grid give 41
        p = ProductProblem((ExplicitSpectrum((1.0,) + (1e-5,) * 8),
                            ExplicitSpectrum(tuple(0.5**j for j in range(7)))))
        for res in (brute_force_complexity(p, 0.002), info_complexity(p, 0.002)):
            assert (res.n, res.certified, res.n_low, res.n_high) == (41, True, 41, 41)

    @pytest.mark.parametrize("d, n", [(64, 96), (256, 24_576)])
    def test_large_d_with_a_small_grid(self, d, n):
        # most tower coordinates hold one value: the grids have 128 and
        # 32,768 entries, whatever d
        from tractlab.fixtures import tower_problem

        for res in (brute_force_complexity(tower_problem(d), 0.5),
                    info_complexity(tower_problem(d), 0.5)):
            assert (res.n, res.certified, res.n_low, res.n_high) == (n, True, n, n)

    def test_no_grid_fits(self):
        with pytest.raises(GridSizeError, match="no truncation below tol=0.5"):
            brute_force_complexity(ProductProblem((KorobovSpectrum(0.5, 1.0),) * 30),
                                   0.5)


class TestOracleRecords:
    def test_match_the_reference(self):
        from oracle_records import REFERENCE, records

        assert list(records()) == REFERENCE.read_text().splitlines()


class TestPerProblemOracle:
    """One oracle serves every eps of a problem, as fresh calls would."""

    @staticmethod
    def outcome(oracle, eps):
        try:
            return oracle(eps)
        except BudgetExceededError as exc:
            return f"over budget: n_lower {exc.n_lower}, pops {exc.pops}"
        except GridSizeError as exc:
            return str(exc)

    def test_matches_fresh_calls(self):
        rng = random.Random(4)
        outcomes = []
        # d <= 3 builds grids; d up to 30 also meets the grid size error
        for d_max in (3,) * 16 + (30,) * 6:
            p = random_instance(rng, d_max)
            oracle = _BruteForceOracle(p)
            for eps in (0.9, 0.5, 0.1, 0.5, 0.25):
                got = self.outcome(oracle, eps)
                fresh = self.outcome(_BruteForceOracle(p), eps)
                assert got == fresh == self.outcome(
                    lambda e: brute_force_complexity(p, e), eps)
                outcomes.append(got)
        # both errors occur: no grid fits, and a last grid does not cross
        errors = {o.split(" ", 1)[0] for o in outcomes if isinstance(o, str)}
        assert errors == {"no", "over"}
        assert any(not o.certified for o in outcomes if not isinstance(o, str))

    def test_one_grid_serves_three_eps(self, monkeypatch):
        rng = random.Random(2)
        random_instance(rng)
        p = random_instance(rng)  # the first grid certifies eps 0.9, 0.5 and 0.1
        built = []
        for cls in (KorobovSpectrum, ExplicitSpectrum):
            dense = cls.dense_values
            monkeypatch.setattr(cls, "dense_values", lambda self, *args, dense=dense: (
                built.append(self), dense(self, *args))[1])
        for eps in (0.9, 0.5, 0.1):
            brute_force_complexity(p, eps)
        assert len(built) == 3 * p.d
        built.clear()
        oracle = _BruteForceOracle(p)
        results = [oracle(eps) for eps in (0.9, 0.5, 0.1)]
        assert len(built) == p.d
        assert [r.n for r in results] == [131, 980, 2198]
        assert all(r.certified and r.pops == 2430 for r in results)


def _fsum_prefixes(values, base):
    """[P_0, ..., P_len] with P_k = math.fsum([base] + values[:k]), by brute
    force: exact running sums in units of 2^-1074 (every double is a whole
    number of them), each rounded once by Python's int division."""
    unit = 1 << 1074

    def scaled(x):
        num, den = float(x).as_integer_ratio()
        return num * (unit // den)

    acc = scaled(base)
    out = [acc / unit]
    for x in values.tolist():
        acc += scaled(x)
        out.append(acc / unit)
    return out


class TestFirstReaching:
    """The scan reports the first k >= 1 whose correctly rounded prefix sum
    P_k = fsum([base] + values[:k]) reaches the target, with P_k and
    P_(k-1), or (False, len, P_len, P_len) when none does."""

    CHUNK = 1 << 14

    @staticmethod
    def values(length, seed):
        # non-increasing and non-negative: runs of tied values, values the
        # running sum absorbs (1e-18) and zeros, so the prefix sums tie too
        import numpy as np

        rng = np.random.default_rng(seed)
        pool = np.concatenate((
            rng.uniform(0.0, 1.0, length),
            np.repeat(rng.uniform(0.0, 1.0, 8), length // 8 + 1),
            np.full(length // 4 + 1, 1e-18),
            np.zeros(length // 8 + 1)))
        return np.sort(rng.choice(pool, length, replace=False))[::-1]

    @pytest.mark.parametrize("length", [
        1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5,
        (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_matches_the_fsum_scan(self, length):
        import numpy as np
        from tractlab.tensor import _first_reaching

        v = self.values(length, length + 1)
        for base in (0.0, 0.375):
            sums = _fsum_prefixes(v, base)
            assert length == 1 or len(set(sums)) < length  # the sums tie
            # exact P_k at both ends and around every chunk boundary, their
            # neighbouring doubles, and targets past either end
            idx = {1, length, length // 2 + 1}
            for k in range(self.CHUNK, length + 1, self.CHUNK):
                idx.update(i for i in (k - 1, k, k + 1, k + 2) if 1 <= i <= length)
            picks = [math.fsum([base] + v[:i].tolist()) for i in sorted(idx)]
            assert picks == [sums[i] for i in sorted(idx)]
            targets = np.concatenate((picks, np.nextafter(picks, -np.inf),
                                      np.nextafter(picks, np.inf),
                                      [base - 1.0, base, 2 * sums[-1] + 1]))
            later = np.array(sums[1:])
            for x in targets.tolist():
                k = int(np.searchsorted(later, x)) + 1  # first k >= 1 reaching x
                want = ((True, k, sums[k], sums[k - 1]) if k <= length
                        else (False, length, sums[-1], sums[-1]))
                assert _first_reaching(v, x, base) == want
            # base >= target crosses at k = 1; a scan that does not cross
            # reports its total
            assert _first_reaching(v, base, base) == (True, 1, sums[1], base)
            assert _first_reaching(v, 2 * sums[-1] + 1, base) == (
                False, length, sums[-1], sums[-1])

    def test_a_crossing_where_np_cumsum_crosses_takes_two_splits(self, monkeypatch):
        # the bisection first splits where the chunk's np.cumsum crosses, then
        # next to it: one exact sum per chunk reached, and two splits, even
        # at a target equal to a prefix sum, which np.cumsum may round below
        import numpy as np
        import tractlab.tensor as tensor_mod

        calls = []
        exact_parts = tensor_mod._exact_parts
        monkeypatch.setattr(tensor_mod, "_exact_parts",
                            lambda x: calls.append(len(x)) or exact_parts(x))
        rng = np.random.default_rng(3)
        v = np.sort(rng.uniform(0.0, 1.0, 3 * self.CHUNK + 5))[::-1]
        sums = _fsum_prefixes(v, 0.0)
        for k in [1, self.CHUNK, self.CHUNK + 1, len(v)] + rng.integers(
                1, len(v), 40).tolist():
            calls.clear()
            assert tensor_mod._first_reaching(v, sums[k]) == (
                True, k, sums[k], sums[k - 1])
            assert len(calls) <= (k - 1) // self.CHUNK + 3


class TestDecide:
    """_Target.decide, the certify-and-bracket step of the heap and the
    oracle, matches a plain scan over math.fsum prefix sums."""

    @staticmethod
    def reference(values, target, lost):
        # the first n reaching each level, by math.fsum of every prefix
        sums = [math.fsum(values[:k].tolist()) for k in range(len(values) + 1)]

        def first(level):
            return next((k for k in range(1, len(sums)) if sums[k] >= level), None)

        n, m = first(target.threshold), len(values)
        crossing = ((True, n, sums[n], sums[n - 1]) if n
                    else (False, m, sums[m], sums[m]))
        certified = bool(n) and target.threshold - sums[n - 1] > lost + target.rounding
        reached = first(target.threshold - (lost + target.rounding))
        return crossing, certified, (reached - 1 if reached else m)

    def test_matches_the_fsum_scan(self):
        import numpy as np
        from tractlab.tensor import _Target

        target = _Target(small_problem(), 0.5)  # rounding 2.25e-12
        rng = np.random.default_rng(5)
        checked = set()
        for _ in range(40):
            length = int(rng.integers(1, 200))
            pool = np.concatenate((rng.uniform(0.0, 1.0, length),
                                   np.repeat(rng.uniform(0.0, 1.0, 4), length // 4 + 1),
                                   np.zeros(length // 8 + 1)))
            v = np.sort(rng.choice(pool, length, replace=False))[::-1]
            sums = [math.fsum(v[:k].tolist()) for k in range(1, length + 1)]
            picks = [sums[k] for k in rng.integers(0, length, 4)] + [sums[0], sums[-1]]
            # each level a prefix sum and an ulp either side, and one past the total
            for level in picks + [2.0 * sums[-1] + 1.0]:
                for x in (math.nextafter(level, -math.inf), level,
                          math.nextafter(level, math.inf)):
                    target.threshold = x
                    for lost in (0.0, float(rng.uniform(0.0, 0.1)) * x, 2.0 * x):
                        got = target.decide(v, lost)
                        assert got == self.reference(v, target, lost)
                        checked.add((got[0][0], got[1], lost > 0.0))
        # crossed and certified, crossed uncertified, never crossed; lost 0 and > 0
        assert checked >= {(True, True, False), (True, True, True),
                           (True, False, True), (False, False, False),
                           (False, False, True)}

    def test_a_bound_spares_the_scans_it_decides(self, monkeypatch):
        # a bound at or above the exact sum: below the threshold it proves
        # no crossing (sums unscanned, nan), below low(lost) every value short
        import numpy as np
        import tractlab.tensor as tensor_mod

        target = tensor_mod._Target(small_problem(), 0.5)
        v = np.sort(np.random.default_rng(13).uniform(0.0, 1.0, 300))[::-1]
        total = math.fsum(v.tolist())
        scans = []
        first = tensor_mod._first_reaching
        monkeypatch.setattr(tensor_mod, "_first_reaching",
                            lambda *args: scans.append(args[1]) or first(*args))
        # the least double above the exact sum, and one far above it
        for bound in (math.nextafter(total, math.inf), 2.0 * total):
            for x in (0.5 * total, total, math.nextafter(bound, math.inf)):
                target.threshold = x
                for lost in (0.0, 0.25 * total, 2.0 * total):
                    scans.clear()
                    (crossed, n, partial, prev), certified, short = got = (
                        target.decide(v, lost, bound))
                    want = self.reference(v, target, lost)
                    if bound < x:
                        assert (crossed, n, certified, short) == (
                            False, 300, False, want[2])
                        assert math.isnan(partial) and math.isnan(prev)
                        low = target.low(lost)
                        assert scans == ([] if bound < low else [low])
                    else:
                        assert got == want and scans[0] == x

    def test_an_uncrossed_array_keeps_the_oracles_lower_bound(self):
        # short is the n_lower the oracle raises for a grid that does not
        # cross: the first n reaching low(lost) less one, or every value
        import numpy as np
        from tractlab.tensor import _first_reaching, _Target

        target = _Target(small_problem(), 0.5)
        v = np.sort(np.random.default_rng(9).uniform(0.0, 1.0, 500))[::-1]
        total = math.fsum(v.tolist())
        target.threshold = total + 1.0
        shorts = []
        for lost in (0.0, 0.5, 1.0, 0.25 * total, 2.0 * total):
            (crossed, n, partial, prev), certified, short = target.decide(v, lost)
            assert (crossed, n, partial, prev, certified) == (
                False, 500, total, total, False)
            reached, n_low = _first_reaching(v, target.low(lost))[:2]
            assert short == n_low - reached == self.reference(v, target, lost)[2]
            shorts.append(short)
        # low above the total proves every value short; low below 0, none
        assert shorts[:3] == [500, 500, 499] and shorts[-1] == 0


class TestExactSum:
    """fsum of _exact_parts equals math.fsum bit for bit: the parts sum
    exactly to the values, in a few chunks' memory."""

    @staticmethod
    def assert_fsum(x):
        from tractlab.tensor import _exact_parts

        got, want = math.fsum(_exact_parts(x)), math.fsum(x)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("length", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                        3 * (1 << 16) + 5])
    def test_spread_exponents_in_every_layout(self, length):
        import numpy as np

        v = np.exp(np.random.default_rng(length).uniform(-700.0, 700.0, length))
        self.assert_fsum(v)  # unsorted
        self.assert_fsum(np.sort(v))
        self.assert_fsum(np.sort(v)[::-1])  # the oracle's reversed view

    @pytest.mark.parametrize("length", [1, (1 << 16) + 1, 3 * (1 << 16) + 5])
    def test_sorted_unit_values(self, length):
        import numpy as np

        v = np.random.default_rng(length).random(length) ** 6
        self.assert_fsum(np.sort(v)[::-1])

    def test_subnormals_and_the_normal_edge(self):
        import numpy as np

        edge = 2.0 ** -1022
        v = np.array([5e-324, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)])
        self.assert_fsum(np.repeat(v, 5000))
        self.assert_fsum(np.tile(v, 5000))
        self.assert_fsum(np.concatenate(([1e-300], np.full(3, 5e-324))))

    def test_short_arrays_at_every_length(self):
        # around _SHORT_PARTS, where the values themselves are the parts:
        # subnormals, the normal edge, zeros, unsorted and reversed views
        import numpy as np

        edge = 2.0 ** -1022
        rng = np.random.default_rng(17)
        pool = np.concatenate((np.exp(rng.uniform(-745.0, 10.0, 200)), np.zeros(20),
                               [5e-324, 3e-320, np.nextafter(edge, 0.0), edge]))
        for length in range(131):
            v = rng.choice(pool, length)
            self.assert_fsum(v)
            self.assert_fsum(np.sort(v)[::-1])
            self.assert_fsum(v[::-2])
            self.assert_fsum(np.zeros(length))

    def test_zeros(self):
        import numpy as np

        self.assert_fsum(np.zeros(70_000))
        self.assert_fsum(np.concatenate((np.zeros(5), [0.5], np.zeros(5))))

    @pytest.mark.parametrize("halves, want", [(1, 1.0), (2, 1.0 + 2.0 ** -52),
                                              (3, 1.0 + 2.0 ** -51)])
    def test_ties_round_half_even(self, halves, want):
        import numpy as np

        # 1 + k 2^-53 lies halfway between doubles for odd k
        v = np.array([1.0] + [2.0 ** -53] * halves)
        assert math.fsum(v) == want
        self.assert_fsum(v)
        self.assert_fsum(v[::-1])

    def test_low_bits_break_a_tie(self):
        import numpy as np

        # powers of two summing to 2^-53, with 2^-60 + 2^-112 merged into
        # one value y and 2^-140 + 2^-192 added as v: both carry low
        # mantissa bits, 80 binary orders apart.  Without the 2^-192 the sum
        # is the tie 1 + 2^-53, which rounds to 1; with it, fsum rounds up
        y, v = 2.0 ** -60 + 2.0 ** -112, 2.0 ** -140 + 2.0 ** -192
        x = [1.0, y, 2.0 ** -140, v] + [2.0 ** -j for j in range(54, 140)
                                        if j not in (60, 112)]
        assert math.fsum(x) == 1.0 + 2.0 ** -52
        self.assert_fsum(np.sort(x)[::-1])
        self.assert_fsum(np.array(x))

    def test_a_long_prefix_traces_under_two_megabytes(self):
        import tracemalloc

        import numpy as np
        from tractlab.tensor import _exact_parts

        v = np.sort(np.random.default_rng(7).random(800_000) ** 6)[::-1]
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _exact_parts(v)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        # one more array of the input's length would add 6.4 MB
        assert peak < 2e6


def _verify_instance_7():
    """The eighth random instance of Random(0), the eighth oracle-batch
    instance of `tractlab verify --seed 0`: an explicit list of 14 values,
    KorobovSpectrum(0.854, 0.720) and an explicit list of 26 values.  The
    oracle's first grid holds 3,437,610 of their products."""
    rng = random.Random(0)
    for _ in range(7):
        random_instance(rng)
    return random_instance(rng)


class TestOracleMemory:
    GRID = 3_437_610

    def test_one_call_holds_one_grid(self):
        import tracemalloc

        p = _verify_instance_7()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(BudgetExceededError) as exc:  # the grid does not cross
                _BruteForceOracle(p)(0.1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert exc.value.pops == self.GRID
        # the grid is 8 bytes per entry; a second array of its length (a
        # full cumsum, a sorting copy) would take the peak to about 2x
        assert peak < 1.25 * 8 * self.GRID

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def engine_answer():
        return info_complexity(_verify_instance_7(), 0.1)

    def test_engine_certifies_past_the_oracle_grid(self):
        res = self.engine_answer()
        assert (res.n, res.certified, res.n_low, res.n_high) == (
            5_996_204, True, 5_996_204, 5_996_204)

    def test_a_short_grid_is_proven_without_a_full_scan(self, monkeypatch):
        # the grid's bound falls short of the threshold at eps 0.1, so only
        # the scan at low(lost) runs, up to its crossing near 782,848 values
        import tractlab.tensor as tensor_mod

        summed = []
        exact_parts = tensor_mod._exact_parts
        monkeypatch.setattr(tensor_mod, "_exact_parts",
                            lambda x: summed.append(len(x)) or exact_parts(x))
        oracle = _BruteForceOracle(_verify_instance_7())
        with pytest.raises(BudgetExceededError) as exc:
            oracle(0.1)
        assert (exc.value.n_lower, exc.value.pops) == (782_848, self.GRID)
        # the columns' sums of _grid_bound aside
        assert sum(summed) - sum(oracle._lengths) <= 800_000

    def test_oracle_bracket_holds_the_answer(self):
        # the capped grid of 3,437,610 products falls short at eps 0.1, so
        # its size is no upper bound: the oracle raises, with a lower bound
        # below the engine's certified 5,996,204
        answer = self.engine_answer().n
        with pytest.raises(BudgetExceededError) as exc:
            _BruteForceOracle(_verify_instance_7())(0.1)
        assert exc.value.n_lower == 782_848 < answer


class TestCertifiable:
    """certifiable() bounds every grid the oracle can build, building none."""

    def test_rejected_instances_certify_nothing(self):
        rejected = {}
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            for i in range(50):
                p = random_instance(rng)
                if not _BruteForceOracle(p).certifiable():
                    rejected[seed, i] = p
        assert list(rejected) == [(0, 7), (1, 23), (1, 48), (2, 5)]
        assert rejected[0, 7] == _verify_instance_7()
        for p in rejected.values():
            oracle = _BruteForceOracle(p)
            for eps in (0.9, 0.5, 0.3, 0.1, 0.05):
                try:
                    res = oracle(eps)
                except (BudgetExceededError, GridSizeError):
                    continue
                assert not res.certified
            del oracle  # one grid alive at a time

    def test_builds_no_grid(self, monkeypatch):
        def no_grid(self, lengths):
            raise AssertionError("certifiable() built a grid")

        monkeypatch.setattr(_BruteForceOracle, "_sorted_grid", no_grid)
        assert not _BruteForceOracle(_verify_instance_7()).certifiable()
        rng = random.Random(1)
        assert sum(_BruteForceOracle(random_instance(rng)).certifiable()
                   for _ in range(50)) == 48

    @pytest.mark.parametrize("coords", [
        (KorobovSpectrum(0.5, 1.0),) * 30,  # no grid fits the cap
        # every grid leaves out the declared tail, its leading value
        (KorobovSpectrum(0.5, 1.0), ExplicitSpectrum((1.0, 0.5), tail=1.0)),
    ])
    def test_rejects_oracles_that_raise(self, coords):
        assert not _BruteForceOracle(ProductProblem(coords)).certifiable()


class TestGridBound:
    """_grid_bound is at or above the exact sum of the oracle's grid."""

    def test_covers_the_exact_sums_of_seeded_grids(self):
        unit = 1 << 1074  # every double is a whole number of 2^-1074

        def scaled(x):
            num, den = x.as_integer_ratio()
            return num * (unit // den)

        rng, checked, slack = random.Random(21), 0, []
        while checked < 60:
            p = random_instance(rng)
            oracle = _BruteForceOracle(p)
            lengths = oracle._lengths_at(0.01 / p.d)
            if math.prod(lengths) > 20_000:
                continue
            grid, _log_kept, bound = oracle._sorted_grid(lengths)
            exact = sum(map(scaled, grid.tolist()))
            assert scaled(bound) >= exact
            slack.append(bound / (exact / unit) - 1.0)
            checked += 1
        # within 4(d + 1)u and a few roundings of the exact sum
        assert max(slack) < 20 * 2.0 ** -53


class TestScaledResults:
    def test_traces_round_against_the_exact_product(self):
        # a trace reported where leading values are not 1 is within (3d - 1)u
        # of the exact product of the coordinate traces: d roundings of
        # trace / leading, d - 1 of their product and of the leading values'
        # product, and one of the scaling
        from fractions import Fraction

        checked = 0
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            for _ in range(50):
                p = random_instance(rng)
                if all(c.leading() == 1.0 for c in p.coordinates):
                    continue
                exact = math.prod(Fraction(c.trace()) for c in p.coordinates)
                for res in (info_complexity(p, 0.9), _BruteForceOracle(p)(0.9)):
                    err = abs(Fraction(res.trace) - exact) / exact
                    assert err <= (3 * p.d - 1) * Fraction(2) ** -53
                    checked += 1
        assert checked > 150


class TestResultInvariants:
    @given(random_problems(), st.sampled_from((0.9, 0.6, 0.3)))
    @settings(max_examples=40, deadline=None)
    def test_bracket_and_partial_sum(self, problem, eps):
        res = info_complexity(problem, eps)
        assert res.n_low <= res.n <= res.n_high
        if res.certified and res.n > 0:
            threshold = (1.0 - eps * eps) * res.trace
            assert res.partial_sum >= threshold * (1.0 - 1e-9)


def _exact_top_sums(problem, n):
    """(S_(n-1), S_n, trace) at 40 digits: the sums of the n-1 and the n
    largest products of the exact eigenvalues, and the exact trace."""
    mpmath = pytest.importorskip("mpmath")
    import numpy as np

    coords = problem.coordinates
    lead = math.prod(c.leading() for c in coords)
    pairs = 8
    while True:  # grids long enough that every product left out is below the n-th
        lengths = [2 * pairs + 1 if isinstance(c, KorobovSpectrum) else len(c.values)
                   for c in coords]
        grid = np.ones(1)
        for c, m in zip(coords, lengths):
            grid = np.multiply.outer(grid, [c.eigenvalue(j) for j in range(1, m + 1)])
            grid = grid.ravel()
        nth = float(np.sort(grid)[::-1][n - 1]) if len(grid) >= n else 0.0
        left_out = max(c.eigenvalue(m + 1) / c.leading() * lead
                       for c, m in zip(coords, lengths))
        if left_out < nth * (1.0 - 1e-9):
            break
        pairs *= 2
    with mpmath.workdps(40):
        @functools.lru_cache(maxsize=None)
        def value(c, j):
            if isinstance(c, ExplicitSpectrum):
                return mpmath.mpf(c.values[j - 1])
            if j == 1:
                return mpmath.mpf(1)
            if j % 2:
                return value(c, j - 1)
            return mpmath.mpf(c.g) * mpmath.mpf(j // 2) ** (-2 * mpmath.mpf(c.r))

        def trace(c):
            if isinstance(c, ExplicitSpectrum):
                return mpmath.fsum(c.values) + c.tail
            return 1 + 2 * mpmath.mpf(c.g) * mpmath.zeta(2 * mpmath.mpf(c.r))

        # the exact top n lie among the float products within 1e-9 of the n-th
        near = np.flatnonzero(grid >= nth * (1.0 - 1e-9))
        exact = sorted((mpmath.fprod(value(c, int(j) + 1) for c, j in
                                     zip(coords, np.unravel_index(i, lengths)))
                        for i in near), reverse=True)
        head = mpmath.fsum(exact[: n - 1])
        return head, head + exact[n - 1], mpmath.fprod(trace(c) for c in coords)


class TestDecisionAtHighPrecision:
    """Certified answers of the fold (handed off after one pop, and also
    bisecting down to slices of 16 values) and of the oracle, decided again
    from the exact products at 40 digits."""

    @staticmethod
    def engines(problem, eps, monkeypatch):
        import tractlab.tensor as tensor_mod

        results = []
        with monkeypatch.context() as mp:
            mp.setattr(tensor_mod, "_HANDOFF_POPS", 1)
            results.append(info_complexity(problem, eps))
            mp.setattr(tensor_mod, "_SLICE_ENTRIES", 16)
            results.append(info_complexity(problem, eps))
        return results + [brute_force_complexity(problem, eps)]

    @staticmethod
    def check(res, eps, sums):
        short, reached, trace = sums
        threshold = (1 - eps**2) * trace
        # n - 1 products fall short by more than the rounding allowance of
        # the certification slack, and n reach the threshold
        assert threshold - short > 1e-12 * trace
        assert reached >= threshold
        assert abs(res.partial_sum - reached) <= 1e-13 * reached
        return reached - threshold

    def test_seeded_problems(self, monkeypatch):
        rng = random.Random(20261018)
        checked = 0
        for _ in range(12):
            coords = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    coords.append(KorobovSpectrum(rng.uniform(0.1, 1.0),
                                                  rng.uniform(1.5, 3.0)))
                else:
                    a, q = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.7)
                    coords.append(ExplicitSpectrum(tuple(a * q**j for j in range(12))))
            p = ProductProblem(tuple(coords))
            for eps in (0.6, 0.3, 0.1, 0.05):
                for res in self.engines(p, eps, monkeypatch):
                    if res.certified:
                        self.check(res, eps, _exact_top_sums(p, res.n))
                        checked += 1
        assert checked >= 90

    def test_crossing_within_1e_minus_10_of_the_threshold(self, monkeypatch):
        # eps puts the threshold 1e-11 (relative) below the 40th top sum
        mpmath = pytest.importorskip("mpmath")
        p = ProductProblem((KorobovSpectrum(0.5, 1.0), KorobovSpectrum(0.3, 1.5)))
        sums = _exact_top_sums(p, 40)
        with mpmath.workdps(40):
            eps = float(mpmath.sqrt(1 - sums[1] * (1 - mpmath.mpf(1e-11)) / sums[2]))
        for res in self.engines(p, eps, monkeypatch):
            assert res.certified and res.n == 40
            assert 0 <= self.check(res, eps, sums) <= 1e-10 * sums[2]


class TestRoundingAllowance:
    """A crossing whose margin lies inside the rounding allowance
    1e-12 * trace is not certified, by the heap, the fold and the oracle
    alike; one just outside it is."""

    @pytest.mark.parametrize("margin, expected", [
        (0.5e-12, (2, False, 1, 2)),
        (2e-12, (2, True, 2, 2)),
    ])
    def test_crossing_at_the_allowance(self, monkeypatch, margin, expected):
        import tractlab.tensor as tensor_mod

        # products {1, .5, .5, .25}, trace 2.25: no truncation mass, and
        # S_1 = 1 falls short of the threshold 1 + margin * 2.25 by less
        # (or more) than the allowance 2.25e-12
        p, trace = small_problem(), 2.25
        eps = math.sqrt(1.0 - (1.0 + margin * trace) / trace)
        folds, decide = [], tensor_mod._fold_decide
        monkeypatch.setattr(tensor_mod, "_fold_decide",
                            lambda *args: folds.append(1) or decide(*args))
        heap = info_complexity(p, eps)
        assert not folds
        with monkeypatch.context() as mp:
            mp.setattr(tensor_mod, "_HANDOFF_POPS", 1)
            fold = info_complexity(p, eps)
        assert folds
        oracle = brute_force_complexity(p, eps)
        for res in (heap, fold, oracle):
            assert (res.n, res.certified, res.n_low, res.n_high) == expected
