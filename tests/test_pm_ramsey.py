from itertools import combinations_with_replacement, product

import pytest

from ramsey_pm import core_ramsey
from ramsey_pm.bounds import (ceil_third, core_upper_edgecount, core_upper_main,
                              pm_lowers, pm_standard_value, pm_upper, sorted_targets)
from ramsey_pm.coloring import core_lift_coloring, mono_pm_profile
from ramsey_pm.core_ramsey import BlockCover, exact_core_ramsey
from ramsey_pm.pm_ramsey import (_cover_as_coloring_for, _f3_maximise, _witness_valid,
                                 clear_core_cache, closed_form_value, core_value,
                                 exact_pm_ramsey, find_lower_witness, verify_upper)
from ramsey_pm.results import (BudgetExceededError, FormulaUnavailableError, RamseyResult,
                               RouteDisagreementError, SearchStats)

from conftest import f_d, ranked_f3_maximise


def _shifted(tv, xs):
    return tuple(p - 3 * x for p, x in zip(tv, xs))


def _core(targets):
    return core_value(targets).value


def test_f3_examples():
    assert f_d((3, 3, 3), 3, _core) == 4
    assert f_d((5, 5), 3, _core) == 6
    # the six-term grid over five equal targets, spelled out
    six_terms = [_core(tuple(sorted((6,) * (5 - k) + (3,) * k, reverse=True))) + k
                 for k in range(6)]
    assert f_d((6,) * 5, 3, _core) == max(six_terms)


def test_f3_dominates_unshifted_core_and_standard_lower():
    for tv in [(5, 5, 5), (6, 6, 4), (7, 5, 3), (4, 4, 4, 4), (6, 6, 6, 6)]:
        value = f_d(tv, 3, _core)
        assert value >= _core(tv)
        assert value >= tv[0] + sum(ceil_third(p) - 1 for p in tv[1:])


def test_pruned_maximiser_matches_full_scan(rng):
    vectors = [(6, 6, 6), (6,) * 6, (9, 9, 9, 9), (7, 6, 5, 4, 3)]
    for _ in range(60):
        r = rng.randint(1, 6)
        vectors.append(tuple(sorted((rng.randint(2, 9) for _ in range(r)), reverse=True)))
    # the three-term bound is the smaller one here, so the min matters
    assert core_upper_main((6, 6, 6)) < core_upper_edgecount((6, 6, 6))
    for tv in vectors:
        value, xs, core = _f3_maximise(tv)
        assert value == f_d(tv, 3, _core), tv
        assert all(0 <= x < ceil_third(p) for p, x in zip(tv, xs))
        assert core == core_value(_shifted(tv, xs)), (tv, xs)
        assert core.value + sum(xs) == value, (tv, xs)


def test_walk_matches_the_whole_grid_ranking(monkeypatch):
    # r <= 4 with entries 1..9: the pruned walk finds the value and first
    # maximiser of the whole-grid ranking, and asks core_value for the same
    # keys in the same order
    from ramsey_pm import pm_ramsey
    vectors = [tv for r in range(1, 5)
               for tv in combinations_with_replacement(range(9, 0, -1), r)]
    assert len(vectors) == 714
    asked = []

    def recording(shifted, **kw):
        asked.append(shifted)
        return core_value(shifted, **kw)

    monkeypatch.setattr(pm_ramsey, "core_value", recording)
    for tv in vectors:
        want = ranked_f3_maximise(tv, lambda shifted: recording(shifted).value)
        want_asked = asked[:]
        asked.clear()
        value, xs, _ = _f3_maximise(tv)
        assert ((value, xs), asked) == (want, want_asked), tv
        asked.clear()


def test_walk_runs_under_the_node_budget():
    # the walk's nodes count against the budget like a search's: its grid
    # is far larger than 1,000 nodes, and no 1-core is solved first
    with pytest.raises(BudgetExceededError, match="f3 walk exceeded 1000 nodes"):
        exact_pm_ramsey((24,) * 12, "reduction", node_budget=1000)


def test_walk_deeper_than_the_default_recursion_limit():
    # 1,501 targets, one recursion level each; the 2s never shift
    assert exact_pm_ramsey((7,) + (2,) * 1500, "reduction").value == 7


def test_walk_below_the_proven_lower_bound_is_a_fault(monkeypatch):
    # max(pm_lowers(6*10)) = 16 is the value; with a lower bound one higher
    # the walk's maximum 16 is refused rather than returned
    from ramsey_pm import pm_ramsey
    monkeypatch.setattr(pm_ramsey, "pm_lowers", lambda ts: (15, 17))
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((6,) * 10, "reduction")
    assert err.value.details == {"targets": (6,) * 10, "lower bound": 17, "reduction": 16}


def test_every_maximising_grid_point_lifts_to_a_witness(rng):
    # shifted targets of 1 or 2 have no block in the memoized 1-core cover
    vectors = [(7, 6, 6), (5, 5, 4), (8, 5, 5)]
    for _ in range(30):
        r = rng.randint(1, 4)
        vectors.append(tuple(sorted((rng.randint(2, 8) for _ in range(r)), reverse=True)))
    for tv in vectors:
        value = f_d(tv, 3, _core)
        for xs in product(*(range(ceil_third(p)) for p in tv)):
            shifted = _shifted(tv, xs)
            core = core_value(shifted)
            if core.value + sum(xs) != value:
                continue
            col = core_lift_coloring(_cover_as_coloring_for(shifted, core.lower_witness), xs)
            assert col.n == value - 1, (tv, xs)
            assert all(q < p for q, p in zip(mono_pm_profile(col), tv)), (tv, xs)


def test_stats_count_every_cover_node(monkeypatch):
    # every cover search under the call, the reduction's and any the
    # witness lift needs, is counted in the result's nodes
    counted = []
    real = core_ramsey.cover_feasible_with_stats

    def counting(*args, **kwargs):
        cover, nodes = real(*args, **kwargs)
        counted.append(nodes)
        return cover, nodes

    monkeypatch.setattr(core_ramsey, "cover_feasible_with_stats", counting)
    clear_core_cache()
    res = exact_pm_ramsey((6,) * 8, "reduction")
    assert res.value == 14
    assert sum(counted) == res.stats.nodes > 0


def test_exact_values_match_published_table():
    table = {(3, 3, 3): 4, (3, 3, 3, 3): 4, (4, 3, 3, 3): 5,
             (4, 4, 4): 6, (5, 5, 5): 7}
    for tv, want in table.items():
        for strategy in ("auto", "reduction", "search"):
            assert exact_pm_ramsey(tv, strategy=strategy).value == want


def test_exact_pm_with_a_25_vertex_witness():
    res = exact_pm_ramsey((26, 3))
    assert res.value == 26
    assert res.lower_witness.n == 25
    assert all(q < p for q, p in zip(mono_pm_profile(res.lower_witness), (26, 3)))


def test_verify_upper_examples():
    assert verify_upper(4, (3, 3, 3)) is None
    cex = verify_upper(3, (3, 3, 3))
    assert cex is not None and mono_pm_profile(cex) == (2, 2, 2)
    cex = verify_upper(6, (5, 5, 5))
    assert cex is not None
    assert all(q <= 4 for q in mono_pm_profile(cex))


def test_find_lower_witness_examples():
    from ramsey_pm.coloring import layered_coloring
    col = find_lower_witness(6, (5, 5, 5))
    assert col.n == 6 and mono_pm_profile(col) == (4, 3, 3)
    assert col.colors == layered_coloring([4, 1, 1]).colors

    col = find_lower_witness(15, (6,) * 10)
    assert col is not None and col.n == 15
    assert all(q <= 5 for q in mono_pm_profile(col))

    col = find_lower_witness(4, (4, 4))
    assert col is not None
    assert all(q <= 3 for q in mono_pm_profile(col))


def test_vertex_count_below_one_rejected():
    # K_1 is a bad coloring of any targets, but no coloring has fewer
    # vertices, and a K_1 answer there would have the wrong size
    assert verify_upper(1, (3, 3)).n == find_lower_witness(1, (3, 3)).n == 1
    for n in (0, -4):
        with pytest.raises(ValueError):
            verify_upper(n, (3, 3))
        with pytest.raises(ValueError):
            find_lower_witness(n, (3, 3))


def test_route_agreement_small_vectors():
    # the reduction's value against the coloring search on its own: no
    # counterexample on K_v, a bad coloring of K_{v-1}; r <= 3 with entries
    # 3..6, so the searches run at n = 3..8
    for r in (1, 2, 3):
        for tv in combinations_with_replacement(range(6, 2, -1), r):
            v = exact_pm_ramsey(tv, strategy="reduction").value
            assert verify_upper(v, tv) is None, tv
            bad = verify_upper(v - 1, tv)
            assert bad is not None, tv
            assert all(q < p for q, p in zip(mono_pm_profile(bad), tv)), tv


def test_route_agreement_four_colors_small_values(rng):
    # quadruples whose value stays within genuine search range
    for tv in [(3, 3, 3, 2), (4, 3, 3, 2), (3, 3, 2, 2), (4, 3, 3, 3),
               (4, 4, 3, 3), (3, 3, 3, 3)]:
        red = exact_pm_ramsey(tv, strategy="reduction").value
        srch = exact_pm_ramsey(tv, strategy="search").value
        assert red == srch, tv


def test_sandwich_and_exactness(rng):
    for _ in range(60):
        r = rng.randint(2, 6)
        tv = tuple(sorted((rng.randint(2, 9) for _ in range(r)), reverse=True))
        value = exact_pm_ramsey(tv, strategy="reduction").value
        lo_std, lo_design = pm_lowers(tv)
        assert max(lo_std, lo_design) <= value <= pm_upper(tv), tv
        sv, exact = pm_standard_value(tv)
        if exact:
            assert value == sv, tv


def test_uniform_small_cases_via_reduction():
    for r in range(2, 6):
        assert exact_pm_ramsey((4,) * r, strategy="reduction").value == r + 3
        assert exact_pm_ramsey((5,) * r, strategy="reduction").value == r + 4


def test_appending_twos_never_changes_value():
    for r in range(1, 5):
        for tv in [(6,) * r, (5, 4, 3)[:max(1, r)], (4,) * r]:
            tv = tuple(sorted(tv, reverse=True))
            base = exact_pm_ramsey(tv, strategy="reduction").value
            extended = exact_pm_ramsey(tv + (2,), strategy="reduction").value
            assert base == extended, tv


def test_monotone_in_each_target():
    solved = [(3, 3, 3), (4, 3, 3), (4, 4, 3), (4, 4, 4), (5, 4, 4), (5, 5, 4)]
    values = {tv: exact_pm_ramsey(tv, strategy="reduction").value
              for tv in solved}
    for tv, val in values.items():
        for i in range(len(tv)):
            bumped = tuple(sorted((tv[j] + (1 if j == i else 0)
                                   for j in range(len(tv))), reverse=True))
            bigger = exact_pm_ramsey(bumped, strategy="reduction").value
            assert bigger >= val, (tv, bumped)


def test_trivial_targets():
    assert exact_pm_ramsey((2, 2)).value == 2
    assert exact_pm_ramsey((1, 1)).value == 2
    assert exact_pm_ramsey((2,)).value == 2


def test_targets_of_one_keep_an_unused_color():
    # a target 1, like a target 2, forbids every edge of its color; it is
    # kept in the result's targets and its witness color stays unused
    for tv, targets, value in (((6, 1, 6), (6, 6, 1), 7), ((3, 1), (3, 1), 3),
                               ((1, 1, 1), (1, 1, 1), 2), ((6, 2, 6), (6, 6, 2), 7)):
        res = exact_pm_ramsey(tv)
        col = res.lower_witness
        assert (res.targets, res.value) == (targets, value), tv
        assert (col.n, col.r) == (value - 1, len(targets)), tv
        for color, p in enumerate(targets, start=1):
            if p <= 2:
                assert color not in col.colors, (tv, color)


def test_witness_attached_and_valid():
    # no vertex or color cap: closed forms give 66 and 117, the f^3 lift 83
    big = {(40, 40, 40): 66, (60,) * 4: 117, (6,) * 70: 83}
    for tv in [(3, 3, 3), (4, 4, 4), (5, 5), (6, 4), (4, 3, 3, 3), *big]:
        res = exact_pm_ramsey(tv)
        assert res.value == big.get(tv, res.value), tv
        col = res.lower_witness
        assert col is not None and col.n == res.value - 1
        prof = mono_pm_profile(col)
        assert all(q <= p - 1 for q, p in zip(prof, res.targets))


def test_formula_strategy_refuses_unproven():
    # five equal targets of six sit below the exactness threshold and
    # outside every small-case table
    with pytest.raises(FormulaUnavailableError):
        exact_pm_ramsey((6,) * 5, strategy="formula")


def test_formula_strategy_on_proven_cases():
    assert exact_pm_ramsey((5, 5), strategy="formula").value == 6
    assert exact_pm_ramsey((7, 6, 6, 6, 6), strategy="formula").value == 11
    assert exact_pm_ramsey((6, 5, 4), strategy="formula").value == 6 + 2 + 2 - 2


def test_witness_step_passes_the_progress_hook(monkeypatch):
    # every 1-core solve and coloring search under exact_pm_ramsey, the
    # witness step's included, receives the caller's progress hook
    from ramsey_pm import pm_ramsey
    seen = []

    def wrap(name, hook_of):
        real = getattr(pm_ramsey, name)

        def wrapper(*args, **kw):
            seen.append((name, hook_of(args, kw)))
            return real(*args, **kw)

        monkeypatch.setattr(pm_ramsey, name, wrapper)

    wrap("exact_core_ramsey", lambda args, kw: kw.get("progress"))
    wrap("enumerate_colorings", lambda args, kw: kw.get("progress"))

    def hook(snapshot):
        pass

    clear_core_cache()
    try:
        assert exact_pm_ramsey((6,) * 8, "reduction", progress=hook).value == 14
        # a closed-form value whose witness lifts a fresh 1-core solve
        assert exact_pm_ramsey((3,) * 6, progress=hook).value == 5
    finally:
        clear_core_cache()
    assert seen and all(h is hook for _, h in seen), seen


def test_unknown_strategy_rejected_before_the_trivial_case():
    # an all-ones vector needs no route, but a bad strategy name is still an error
    for tv in ((1, 1), (5, 5)):
        with pytest.raises(ValueError, match="unknown strategy"):
            exact_pm_ramsey(tv, strategy="bogus")


def test_auto_cross_check_catches_a_wrong_closed_form(monkeypatch):
    # a closed form one below the true value 4 of (3,3,3) is refuted by the
    # reduction, the first other route auto runs
    from ramsey_pm import pm_ramsey
    real = pm_ramsey.closed_form_value
    monkeypatch.setattr(pm_ramsey, "closed_form_value",
                        lambda ts: (3, "closed-form") if ts == (3, 3, 3) else real(ts))
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((3, 3, 3))
    assert err.value.details == {"targets": (3, 3, 3), "closed-form": 3, "reduction": 4}


def test_auto_cross_check_catches_a_search_that_stops_early(monkeypatch):
    from ramsey_pm import pm_ramsey
    real = pm_ramsey._search_scan

    def early(ts, stats, kw):
        value, method = real(ts, stats, kw)
        return value - 1, method

    monkeypatch.setattr(pm_ramsey, "_search_scan", early)
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((3, 3, 3))
    assert err.value.details == {"targets": (3, 3, 3), "closed-form": 4, "search": 3}


def test_search_route_runs_alone(monkeypatch):
    # the search route never asks for a 1-core value, at any size
    from ramsey_pm import pm_ramsey

    def no_reduction(*args, **kw):
        raise AssertionError("the search route called the reduction")

    monkeypatch.setattr(pm_ramsey, "core_value", no_reduction)
    for tv, want in {(5, 5, 5): 7, (6, 6, 6): 8, (5, 5, 5, 5): 8, (10, 10): 13}.items():
        res = exact_pm_ramsey(tv, "search")
        assert (res.value, res.method) == (want, "exhaustive-search"), tv
        assert res.stats.nodes > 0, tv


def test_one_target_search_searches():
    # one color is scanned up from max(2, p1) like any other vector: K_p1
    # is one node of success, and below p1 the search finds K_{p1-1}
    for tv, nodes in (((3,), 1), ((100,), 1), ((2,), 0), ((1,), 0)):
        res = exact_pm_ramsey(tv, "search")
        assert (res.value, res.method, res.stats.nodes) == (max(2, tv[0]), "exhaustive-search",
                                                           nodes), tv


def test_search_route_deeper_than_the_default_recursion_limit():
    # K_53 has 1,378 edge slots, one recursion level each
    res = exact_pm_ramsey((50, 10), "search", node_budget=100_000)
    assert (res.value, res.stats.nodes) == (53, 44979)


def test_auto_cross_check_by_search_on_one_target(monkeypatch):
    # a wrong closed form for (3,), with the reduction made to agree with
    # it: only the search route, which no longer asks the closed form, can
    # refute it
    from ramsey_pm import pm_ramsey
    real_form, real_core = pm_ramsey.closed_form_value, pm_ramsey.core_value
    monkeypatch.setattr(pm_ramsey, "closed_form_value",
                        lambda ts: (4, "closed-form") if ts == (3,) else real_form(ts))
    monkeypatch.setattr(pm_ramsey, "core_value",
                        lambda ts, **kw: (RamseyResult((3,), 4, "table") if ts == (3,)
                                          else real_core(ts, **kw)))
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((3,))
    assert err.value.details == {"targets": (3,), "closed-form": 4, "search": 3}


def test_closed_form_matches_the_reduction():
    # 541 vectors: r <= 2 with entries 1..12, triples with entries 3..12,
    # quadruples with entries 3..9, and uniform 3s, 4s and 5s for r = 2..8
    vectors = [tv for r in (1, 2) for tv in combinations_with_replacement(range(12, 0, -1), r)]
    vectors += combinations_with_replacement(range(12, 2, -1), 3)
    vectors += combinations_with_replacement(range(9, 2, -1), 4)
    vectors += [(p,) * r for p in (3, 4, 5) for r in range(2, 9)]
    assert len(vectors) == 541
    for tv in vectors:
        cf = closed_form_value(tv)
        assert cf is not None and cf[0] == exact_pm_ramsey(tv, "reduction").value, tv


def _count_walks(monkeypatch) -> list:
    # the targets of every f^3 grid walk, in order
    from ramsey_pm import pm_ramsey
    walks = []
    real = pm_ramsey._f3_maximise

    def counting(ts, **kw):
        walks.append(ts)
        return real(ts, **kw)

    monkeypatch.setattr(pm_ramsey, "_f3_maximise", counting)
    return walks


def test_reduction_walks_its_grid_once(monkeypatch):
    # the witness lifts the reduction's own maximiser, so the grid is not
    # walked a second time
    walks = _count_walks(monkeypatch)
    res = exact_pm_ramsey((6,) * 10, "reduction")
    assert (res.value, walks) == (16, [(6,) * 10])


def test_every_strategy_walks_the_grid_once(monkeypatch):
    # the witness asks the one runner for the reduction's lift point, so a
    # value whose extremal coloring fails walks the grid once, and never
    # again beside a cross-check that already walked it
    walks = _count_walks(monkeypatch)
    for tv, value in {(3, 3, 3): 4, (3, 3, 3, 3): 4, (4, 3, 3, 3): 5, (3,) * 6: 5}.items():
        for strategy in ("auto", "formula", "reduction", "search"):
            walks.clear()
            assert exact_pm_ramsey(tv, strategy).value == value, (tv, strategy)
            assert walks == [tv], (tv, strategy)


@pytest.mark.parametrize("strategy", ["auto", "formula"])
def test_witness_reduction_refutes_a_wrong_closed_form(monkeypatch, strategy):
    # (4,3,3,3), whose extremal coloring fails, with its table value 5 made
    # 6: above the cross-check cap, so only the reduction that the witness
    # asks for runs beside the closed form, and it disagrees
    from ramsey_pm import pm_ramsey
    real = pm_ramsey.closed_form_value
    monkeypatch.setattr(pm_ramsey, "closed_form_value",
                        lambda ts: (6, "table") if ts == (4, 3, 3, 3) else real(ts))
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((4, 3, 3, 3), strategy)
    assert err.value.details == {"targets": (4, 3, 3, 3), "table": 6, "reduction": 5}


def test_witness_reduction_refutes_a_search_that_stops_late(monkeypatch):
    # a search value one too high has no extremal coloring on its K_5, so
    # the witness asks for the reduction, which disagrees
    from ramsey_pm import pm_ramsey
    real = pm_ramsey._search_scan

    def late(ts, stats, kw):
        value, method = real(ts, stats, kw)
        return value + 1, method

    monkeypatch.setattr(pm_ramsey, "_search_scan", late)
    with pytest.raises(RouteDisagreementError) as err:
        exact_pm_ramsey((4, 3, 3, 3), "search")
    assert err.value.details == {"targets": (4, 3, 3, 3), "exhaustive-search": 6,
                                 "reduction": 5}


def test_find_lower_witness_agrees_with_the_coloring_search(rng):
    # the restricted witness exists exactly where the search finds a bad
    # coloring, on every n from K_1 to one past the value
    vectors = [(3, 3, 3), (5, 5, 5), (4, 3, 3, 3), (1, 1), (2, 2, 2)]
    while len(vectors) < 60:
        r = rng.randint(1, 4)
        vectors.append(tuple(rng.randint(1, 7) for _ in range(r)))
    for tv in vectors:
        ts = sorted_targets(tv)
        value = exact_pm_ramsey(tv).value
        for n in range(1, min(value + 1, 7) + 1):
            col = find_lower_witness(n, tv)
            assert (col is None) == (verify_upper(n, ts) is None), (tv, n)
            if col is not None:
                assert (col.n, col.r) == (n, len(ts)), (tv, n)
                assert all(q < p for q, p in zip(mono_pm_profile(col), ts)), (tv, n)


def test_find_lower_witness_runs_no_coloring_search(monkeypatch):
    # values above 4, so auto runs no cross-check: the answer at and above
    # the value, and the witness below it, come from the value's own route
    from ramsey_pm import pm_ramsey

    def no_search(*args, **kw):
        raise AssertionError("a coloring search ran")

    monkeypatch.setattr(pm_ramsey, "verify_upper", no_search)
    monkeypatch.setattr(pm_ramsey, "enumerate_colorings", no_search)
    for tv, value in {(5, 5, 5): 7, (3,) * 6: 5, (6,) * 8: 14, (6,) * 10: 16}.items():
        assert find_lower_witness(value, tv) is None, tv
        assert find_lower_witness(value + 3, tv) is None, tv
        assert find_lower_witness(value - 1, tv).n == value - 1, tv


def test_witness_adds_no_nodes():
    # the witness lifts 1-cores the reduction already solved, so the result
    # counts the nodes of the reduction's grid alone
    for tv in [(6,) * 10, (6,) * 7 + (3, 3), (6,) * 8, (6,) * 6 + (4, 4)]:
        clear_core_cache()
        bare = SearchStats()
        _f3_maximise(tv, stats=bare)
        clear_core_cache()
        res = exact_pm_ramsey(tv)
        assert res.stats.nodes == bare.nodes > 0, tv
        assert res.lower_witness.n == res.value - 1, tv


def test_every_witness_valid_on_the_small_box():
    # r <= 4 with entries 1..7: 329 vectors
    vectors = [tv for r in range(1, 5)
               for tv in combinations_with_replacement(range(7, 0, -1), r)]
    assert len(vectors) == 329
    for tv in vectors:
        res = exact_pm_ramsey(tv)
        col = res.lower_witness
        assert (col.n, col.r) == (res.value - 1, len(res.targets)), tv
        assert all(q < p for q, p in zip(mono_pm_profile(col), res.targets)), tv


def test_search_route_scans_past_the_paper_lower_bounds():
    # both values exceed max(pm_lowers), so the first search of the scan
    # finds a counterexample and the scan steps on to the next n
    for tv, lowers, value in (((5, 3, 3, 3, 3), (5, 5), 6),
                              ((5, 5, 3, 3, 3, 3), (6, 6), 7)):
        assert pm_lowers(tv) == lowers
        assert verify_upper(max(lowers), tv) is not None
        res = exact_pm_ramsey(tv, strategy="search")
        assert (res.value, res.method) == (value, "exhaustive-search"), tv
        assert exact_pm_ramsey(tv, strategy="reduction").value == value, tv


def test_witness_valid_decides_both_kinds():
    ts = (5, 5, 5)
    col = exact_pm_ramsey(ts).lower_witness
    cover = exact_core_ramsey(ts).lower_witness
    assert _witness_valid(col, 6, ts) and _witness_valid(cover, 6, ts)
    # a coloring: on K_n, with len(ts) colors, every color below its target
    assert not _witness_valid(col, 5, ts)
    assert not _witness_valid(col, 6, (5, 5, 5, 5))
    assert not _witness_valid(col, 6, (5, 5, 3))
    # a cover: on K_n, with capacities p - 1, covering every pair
    assert not _witness_valid(cover, 5, ts)
    assert not _witness_valid(cover, 6, (6, 5, 5))
    assert not _witness_valid(BlockCover(6, (4, 4, 4), (0b1111, 0b110011, 0)), 6, ts)
