import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import ceil, comb, sqrt

import pytest

from ramsey_pm.bounds import (EXACT_IF, ceil_div, cockayne_lorimer, core_bounds_report,
                              core_upper, core_upper_degree,
                              core_upper_edgecount, core_upper_main,
                              covering_lower_eh, covering_lower_schonheim,
                              diagonal_guarantee, nontrivial_targets, pm_all3,
                              pm_bounds_report, pm_lowers, pm_standard_value,
                              pm_upper)
from ramsey_pm.core_ramsey import exact_core_ramsey
from ramsey_pm.graphs import SimpleGraph
from ramsey_pm.pm_ramsey import exact_pm_ramsey

from conftest import techfact_holds


def max_matching_order(g: SimpleGraph) -> int:
    """Brute-force maximum matching, counted in vertices."""
    edges = g.edges()

    def best(used: int, k: int) -> int:
        if k == len(edges):
            return 0
        u, v = edges[k]
        res = best(used, k + 1)
        if not used >> u & 1 and not used >> v & 1:
            res = max(res, 2 + best(used | 1 << u | 1 << v, k + 1))
        return res

    return best(0, 0)


def matching_ramsey_brute(targets) -> int:
    """Smallest n where every coloring has a color-i matching of order p_i."""
    r = len(targets)
    n = 2
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        found_bad = False
        for combo in product(range(r), repeat=len(pairs)):
            if all(max_matching_order(
                    SimpleGraph.from_edges(n, [pairs[k] for k in range(len(pairs))
                                               if combo[k] == c])) < targets[c]
                   for c in range(r)):
                found_bad = True
                break
        if not found_bad:
            return n
        n += 1


def test_cockayne_lorimer_small():
    assert cockayne_lorimer((2, 2)) == 2
    assert cockayne_lorimer((4, 4)) == 5
    assert cockayne_lorimer((4, 3, 2)) == 5


def test_cockayne_lorimer_vs_brute_force():
    assert matching_ramsey_brute((4, 4)) == cockayne_lorimer((4, 4))
    assert matching_ramsey_brute((4, 3, 2)) == cockayne_lorimer((4, 3, 2))
    # odd p1: one above the even-p1 expression, since matchings only
    # reach even orders
    assert matching_ramsey_brute((3, 2)) == cockayne_lorimer((3, 2)) == 4
    assert matching_ramsey_brute((3, 3)) == cockayne_lorimer((3, 3)) == 5


def test_cockayne_lorimer_even_leading_matches_display():
    for r in range(2, 5):
        for tv in combinations_with_replacement(range(8, 1, -1), r):
            tv = tuple(sorted(tv, reverse=True))
            if tv[0] % 2 == 0:
                display = tv[0] - (r - 1) + sum(ceil_div(p, 2) for p in tv[1:])
                assert cockayne_lorimer(tv) == display


def test_pm_standard_value_examples():
    assert pm_standard_value((7, 6, 6, 6, 6)) == (11, True)
    # the condition threshold is 7 here, so the flag goes false
    assert pm_standard_value((6, 6, 6, 6, 6)) == (10, False)
    assert pm_standard_value((5, 5)) == (6, True)


def test_pm_upper_examples():
    assert pm_upper((4, 4, 4)) == 6
    assert pm_upper((5, 5)) == 6
    assert pm_upper((6,) * 10) == 21


def test_pm_lowers_examples():
    assert pm_lowers((6,) * 10) == (15, 16)
    assert pm_lowers((5, 5, 5)) == (7, 5)
    assert pm_lowers((3, 3)) == (3, 3)


def test_pm_all3_examples():
    assert pm_all3(3) == 4
    assert pm_all3(10) == 6
    assert pm_all3(2) == 3
    for r in range(2, 200):
        n = pm_all3(r)
        assert comb(n - 1, 2) <= r < comb(n, 2)


def test_diagonal_guarantee():
    assert diagonal_guarantee(12, 2) == 9
    assert diagonal_guarantee(7, 3) == 3
    assert diagonal_guarantee(4, 3) == 0


def test_core_upper_edgecount():
    assert core_upper_edgecount((4, 4, 4)) == 5
    assert core_upper_edgecount((5, 5, 5)) == 7
    for r in (2, 5, 9):
        want = pm_all3(r)
        assert core_upper_edgecount((3,) * r) == want


def test_core_upper_edgecount_closed_form_matches_the_scan():
    # every budget sum_i C(pi-1, 2) = sum_i T(pi-2) from 0 to 199,999, each
    # as three triangular numbers (Gauss), against the linear scan for the
    # smallest n with C(n, 2) > budget
    tri = [a * (a + 1) // 2 for a in range(633)]
    pairs = {s + t: (b, c) for b, s in enumerate(tri) for c, t in enumerate(tri[:b + 1])}
    n = 2
    for budget in range(200_000):
        while n * (n - 1) // 2 <= budget:
            n += 1
        a = next(a for a, t in enumerate(tri) if budget - t in pairs)
        b, c = pairs[budget - tri[a]]
        assert core_upper_edgecount((a + 2, b + 2, c + 2)) == n, budget


def test_core_upper_degree(rng):
    assert core_upper_degree((4, 4, 4)) == 5
    assert core_upper_degree((3, 3)) == 3
    # at t = 1 the conditions read p1 <= n and sum(pi - 1) < 2n
    for _ in range(2000):
        tv = [rng.randint(1, 40) for _ in range(rng.randint(2, 12))]
        assert 2 <= core_upper_degree(tv) <= max(2, max(tv), sum(p - 1 for p in tv) // 2 + 1)


def test_core_upper_main():
    assert core_upper_main((5, 5, 5)) == 7
    assert core_upper_main((4, 4, 4)) == 5
    for p1 in range(2, 9):
        for p2 in range(2, p1 + 1):
            assert core_upper_main((p1, p2)) == max(p1, p2)


def test_core_upper_drops_trivial_entries():
    # the bound both exact 1-core routes trust: entries at most 2 cover no
    # pair, so they are dropped, and one remaining entry is its own value
    assert core_upper(()) == core_upper((2, 1)) == 2
    assert core_upper((5, 2, 2)) == core_upper((5,)) == 5
    assert core_upper((4, 2, 4, 4)) == 5
    for tv in ((5, 5, 5), (6, 4, 3), (3,) * 9):
        assert core_upper(tv) == min(core_upper_edgecount(tv), core_upper_main(tv))


def test_covering_lower_bounds():
    assert covering_lower_eh(9, 4) == 6
    assert covering_lower_eh(5, 5) == 1
    assert covering_lower_eh(13, 5) == 8
    assert covering_lower_schonheim(9, 5) == 4
    assert covering_lower_schonheim(13, 5) == 8
    assert covering_lower_schonheim(5, 5) == 1


def test_schonheim_dominates_eh():
    for k in range(3, 41):
        for v in range(k, 41):
            assert covering_lower_schonheim(v, k) >= covering_lower_eh(v, k)


def test_standard_lower_never_exceeds_upper():
    for r in range(2, 7):
        for tv in combinations_with_replacement(range(12, 1, -1), r):
            tv = tuple(sorted(tv, reverse=True))
            assert pm_lowers(tv)[0] <= pm_upper(tv), tv


def test_standard_value_meets_upper_on_1_mod_3_vectors(rng):
    # with every entry at 1 mod 3 the ceiling slack vanishes and the
    # standard value coincides with the general upper bound
    for _ in range(200):
        r = rng.randint(2, 7)
        tv = tuple(sorted((rng.choice([4, 7, 10, 13]) for _ in range(r)),
                          reverse=True))
        value, exact = pm_standard_value(tv)
        assert exact
        assert value == pm_upper(tv), tv


def test_exactness_when_most_entries_are_1_mod_3(rng):
    # with at least r-3 of the smaller entries at 1 mod 3, the threshold
    # collapses and any p1 >= 4 is exact
    for _ in range(200):
        r = rng.randint(3, 8)
        rest = sorted((rng.choice([4, 7, 10]) for _ in range(r - 1)), reverse=True)
        p1 = max(rest[0], rng.randint(4, 12))
        tv = tuple(sorted([p1] + rest, reverse=True))
        _, exact = pm_standard_value(tv)
        assert exact, tv


def test_exact_integer_arithmetic_matches_rational_path(rng):
    for _ in range(300):
        r = rng.randint(2, 8)
        tv = tuple(sorted((rng.randint(2, 30) for _ in range(r)), reverse=True))
        frac_upper = ceil(Fraction(3 * tv[0] - r + sum(tv[1:]), 3))
        assert pm_upper(tv) == frac_upper
        s = sum(1 for p in tv if p % 3 == 0)
        frac_design = int((sqrt(8 * s + 1) + 1) // 2) + 1 + sum((p + 2) // 3 - 1 for p in tv)
        assert pm_lowers(tv)[1] == frac_design
        if r >= 3:
            a = ceil(Fraction(tv[0] + tv[1] + tv[2], 2)) - 1
            b = ceil(Fraction(tv[0] - r + sum(tv), 3))
            assert core_upper_main(tv) == max(tv[0], a, b)


def test_techfact_stated_examples():
    assert techfact_holds((3, 3, 3)) == (True, True, True)
    rng = random.Random(4)
    for _ in range(100):
        r = rng.randint(3, 6)
        tv = tuple(sorted((rng.randint(4, 15) for _ in range(r)), reverse=True))
        i, ii, iii = techfact_holds(tv)
        assert i and ii and iii
        # a1 >= 4 makes the left inequality of the third item hold outright
        standard = tv[0] - (r - 1) + sum((p + 2) // 3 for p in tv[1:])
        half = ceil_div(tv[0] + tv[1] + tv[2], 2) - 1
        assert standard >= half + sum((p + 2) // 3 - 1 for p in tv[3:])


def test_techfact_precondition():
    with pytest.raises(ValueError):
        techfact_holds((3, 3))  # r < 3
    with pytest.raises(ValueError):
        techfact_holds((2, 2, 2))  # a1 < 3


def test_nontrivial_targets():
    assert nontrivial_targets((3, 5, 2, 4)) == (5, 4, 3)
    assert nontrivial_targets((6, 1, 6)) == (6, 6)
    assert nontrivial_targets((2, 2)) == ()


def test_bounds_report_consistency(rng):
    for _ in range(100):
        r = rng.randint(2, 6)
        tv = tuple(sorted((rng.randint(2, 12) for _ in range(r)), reverse=True))
        rep = pm_bounds_report(tv)
        assert rep.best_lower() <= rep.best_upper()


def test_bounds_reports_bracket_the_exact_values():
    # r <= 4 with entries 1..5, targets of 1 included: each report's best
    # lower and upper bracket the exact value, and an exact-if entry whose
    # condition holds is the value
    for r in range(1, 5):
        for tv in combinations_with_replacement(range(5, 0, -1), r):
            for report, exact in ((pm_bounds_report, exact_pm_ramsey),
                                  (core_bounds_report, exact_core_ramsey)):
                rep = report(tv)
                value = exact(tv).value
                assert rep.targets == tv, (report, tv)
                assert (rep.best_lower() or value) <= value <= (rep.best_upper() or value), \
                    (report, tv)
                for e in rep.entries:
                    if e.kind == EXACT_IF and e.condition_holds:
                        assert e.value == value, (report, tv, e.name)


def test_ceil_div_negative_numerator():
    assert ceil_div(-1, 3) == 0
    assert ceil_div(-3, 3) == -1
    assert ceil_div(7, 3) == 3
