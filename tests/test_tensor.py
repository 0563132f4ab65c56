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


def small_problem():
    return ProductProblem(
        (
            ExplicitSpectrum((1.0, 0.5)),
            ExplicitSpectrum((1.0, 0.5)),
        )
    )


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

    def test_dense_engine_matches_heap_engine(self, monkeypatch):
        # the answer with the default hand-off and with the fold after one
        # heap pop, against the heap enumeration of top_eigenvalues summed
        # exactly
        import tractlab.tensor as tensor_mod
        from tractlab.spectra import TruncatedView

        korobov, eps = KorobovSpectrum(0.5, 1.0), 0.15
        p = ProductProblem((korobov,) * 3)
        default = info_complexity(p, eps)
        monkeypatch.setattr(tensor_mod, "_HANDOFF_POPS", 1)
        dense = info_complexity(p, eps)
        assert default.certified and dense.certified
        assert default.n == dense.n == 23200
        # views of 20,001 values leave out only products <= 0.5 / 10001^2,
        # far below the 23,201st
        views = [TruncatedView(korobov, 20_001, 0.0)] * 3
        values = [v for _, v in top_eigenvalues(p, 23_201, views=views)]
        assert values[-1] > 1e3 * 0.5 / 10_001**2
        trace = p.trace_d()
        threshold = (1.0 - eps * eps) * trace
        short, reached = math.fsum(values[:23_199]), math.fsum(values[:23_200])
        # n = 23,200 is the first to reach, by margins far beyond rounding
        assert threshold - short > 1e-9 * trace
        assert reached - threshold > 1e-9 * trace

    def test_large_answer_pays_the_heap_prefix_once(self, monkeypatch):
        # one truncation, one heap prefix and one fold walk
        import tractlab.tensor as tensor_mod

        calls = []
        for name in ("_reduced_views", "_fold_decide"):
            fn = getattr(tensor_mod, name)
            monkeypatch.setattr(tensor_mod, name, lambda *args, name=name, fn=fn: (
                calls.append(name), fn(*args))[1])
        p = ProductProblem(tuple(KorobovSpectrum(0.5, 1.0) for _ in range(6)))
        res = info_complexity(p, 0.45)
        assert res.certified and res.n == 475_412
        assert res.pops <= 1.2 * res.n + tensor_mod._HANDOFF_POPS
        assert calls == ["_reduced_views", "_fold_decide"]

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
        assert [(found, pops) for found, pops, _hint in scans] == [(None, 45)]
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
        free = info_complexity(p, 0.5)
        assert [found is None for found, _pops, _hint in scans] == [False]
        scans.clear()
        capped = info_complexity(p, 0.5, budget=Budget(heap_bytes=1))
        (found, pops, _hint), = scans
        assert found is None and pops <= 1024 // 20
        assert (capped.n, capped.certified, capped.n_low, capped.n_high) == (
            free.n, free.certified, free.n_low, free.n_high) == (78, True, 78, 78)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_walk_builds_at_most_twice_the_final_fold(self, monkeypatch, seed):
        # the timed points of perfbench's large_answers: curse and
        # g_k = k^-3 weights, scaled as its seed draws them.  The final fold
        # is also no larger than where the earlier walk, stepping by the
        # local slope of the sum in ln(level), landed
        import tractlab.tensor as tensor_mod

        earlier = {0: (86_983, 184_713, 36_125), 3: (86_983, 176_233, 35_971)}

        rows = []
        init = tensor_mod._LevelFold.__init__

        def counting_init(self, *args):
            init(self, *args)
            rows.append(len(self.rows))

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
            rows.clear()
            assert info_complexity(ProductProblem(coords), eps).certified
            assert sum(rows) <= 2.0 * rows[-1] and rows[-1] <= final

    def test_fold_columns_stay_within_the_n_budget(self, monkeypatch):
        # the answer lies far beyond n_max, and the top n_max products
        # never need a column of more than n_max + 1 values
        import tractlab.tensor as tensor_mod

        columns = []
        init = tensor_mod._LevelFold.__init__

        def counting_init(self, *args):
            init(self, *args)
            columns.append(len(self.col))

        monkeypatch.setattr(tensor_mod._LevelFold, "__init__", counting_init)
        n_max = 10**5
        with pytest.raises(BudgetExceededError) as exc_info:
            info_complexity(ProductProblem((KorobovSpectrum(0.7, 0.6),)), 0.1,
                            budget=Budget(n_max=n_max))
        assert exc_info.value.n_lower > n_max
        assert columns and max(columns) <= n_max + 1

    def test_fold_is_exact_above_its_floor(self):
        # views of length 3 leave out most values above the floor; the fold
        # takes its columns from the spectra, so it holds every product
        # >= 1e-3, as the brute grid does
        from tractlab.spectra import TruncatedView
        from tractlab.tensor import _LevelFold

        a, b = KorobovSpectrum(0.5, 1.0), KorobovSpectrum(0.3, 1.5)
        fold = _LevelFold([TruncatedView(a, 3, 1.0), TruncatedView(b, 3, 1.0)],
                          1e-3, 1 << 20, 10**6)
        # both spectra fall below 1e-3 before index 200
        grid = [x * y for x in map(a.eigenvalue, range(1, 200))
                for y in map(b.eigenvalue, range(1, 200)) if x * y >= 1e-3]
        assert int(fold.bottom.sum()) == len(grid) == 137
        mass = float(fold.mass(fold.rows, fold.bottom).sum())
        assert mass == pytest.approx(math.fsum(grid), rel=1e-14)
        assert mass == pytest.approx(4.4023815274753, rel=1e-13)

    def test_fold_counts_match_a_search_per_row(self):
        # with more rows than col values, counts places the col values among
        # the rows' keys; a binary search of each key in col is the reference
        import numpy as np
        from tractlab.tensor import _LevelFold

        p = ProductProblem((KorobovSpectrum(0.5, 1.0),) * 4)
        fold = _LevelFold([c.truncate(1e-6) for c in p.coordinates], 1e-4,
                          1 << 22, 10**7)
        assert len(fold.rows) > 10 * len(fold.col)
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
        # within u + k^2 u^2 of exact: a correct rounding on any seeded input
        import numpy as np
        from tractlab.tensor import _prefix_sums

        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.random(int(rng.integers(1, 20_000))) ** rng.uniform(1.0, 40.0)
            sums = _prefix_sums(x)
            for k in [len(x) - 1] + list(rng.integers(0, len(x), 5)):
                assert sums[k] == math.fsum(x[: k + 1])

    def test_budget_rejects_non_positive_limits(self):
        # limits that are not integers would fail deep in the fold instead
        for kwargs in ({"n_max": 0}, {"n_max": -1}, {"heap_bytes": 0},
                       {"n_max": 2.5}, {"n_max": float("inf")}, {"n_max": True},
                       {"heap_bytes": 1e9}, {"heap_bytes": False}):
            with pytest.raises(DomainError):
                Budget(**kwargs)


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

    def test_floor_cuts_the_stream(self):
        p = ProductProblem((ExplicitSpectrum((1.0, 0.5, 0.1)),))
        vals = [v for _, v in top_eigenvalues(p, 10, floor=0.3)]
        assert vals == pytest.approx([1.0, 0.5])


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
        # the declared tail keeps the whole capped grid below the threshold
        korobov = KorobovSpectrum(0.5, 1.0)
        p = ProductProblem((korobov, ExplicitSpectrum((1.0, 0.5), tail=1.0)))
        res = brute_force_complexity(p, eps)
        assert (res.n, res.certified, res.n_low, res.n_high, res.pops) == (
            1_999_998, False, n_low, 1_999_998, 3_321_482)
        # the last grid: 999,999 Korobov values (the per-coordinate cap)
        # times (1, 0.5), at scale 1 (both leading values are 1); its
        # partial sum comes from a cumsum, within (len - 1) u of the exact sum
        grid = [v * w for v in korobov.dense_values(1e-300, 999_999)
                for w in (1.0, 0.5)]
        exact = math.fsum(grid)
        assert p.log_leading() == 0.0
        assert abs(res.partial_sum - exact) <= (len(grid) - 1) * 2.0**-53 * exact


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


class TestPerProblemOracle:
    """One oracle serves every eps of a problem, as fresh calls would."""

    @staticmethod
    def outcome(oracle, eps):
        try:
            return oracle(eps)
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
        errors = {o.split(" ", 1)[0] for o in outcomes if isinstance(o, str)}
        assert errors == {"no"}
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
