"""Acceptance criteria, one test per criterion.

Every expected value is exact (tolerance zero); the `slow_` variants run
the longer searches that the other criteria may settle by the reduction
route.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil

from ramsey_pm.bounds import (ceil_third, pm_all3, pm_lowers,
                              pm_standard_value, pm_upper)
from ramsey_pm.coloring import (layered_coloring, mono_pm_profile,
                                pm_extremal_coloring)
from ramsey_pm.core_ramsey import (BlockCover, cover_feasible_with_stats, covering_number,
                                   exact_core_ramsey)
from ramsey_pm.graphs import SimpleGraph, mask_of
from ramsey_pm.path_matching import max_pm_order, packing_oracle
from ramsey_pm.pm_ramsey import core_value, exact_pm_ramsey, verify_upper
from ramsey_pm.search import colex_edges, enumerate_colorings

from conftest import (f_d, graph_from_mask, plain_counterexample, random_graph,
                      techfact_holds)


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_deficiency_oracle_equivalence():
    checked = 0
    for mask in range(1 << 15):
        g = graph_from_mask(6, mask)
        assert max_pm_order(g) == packing_oracle(g), mask
        checked += 1
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(8, 10)
        g = random_graph(n, rng, p=rng.random())
        assert max_pm_order(g) == packing_oracle(g), g.edges()
        checked += 1
    _report("1", f"{checked} graphs, deficiency == packing oracle")


def test_criterion_02_exact_pm_values():
    table = {(3, 3, 3): 4, (3, 3, 3, 3): 4, (4, 3, 3, 3): 5,
             (4, 4, 4): 6, (5, 5, 5): 7}
    for tv, want in table.items():
        res = exact_pm_ramsey(tv, strategy="search")
        assert res.value == want, (tv, res.value)
    for p1 in range(2, 7):
        for p2 in range(2, p1 + 1):
            want = p1 + ceil_third(p2) - 1
            res = exact_pm_ramsey((p1, p2), strategy="search")
            assert res.value == want, (p1, p2, res.value)
    _report("2", "published values and the full two-color table via search")


def test_criterion_02_slow_555_upper_by_search():
    assert verify_upper(7, (5, 5, 5)) is None
    _report("2s", "(5,5,5) upper step at n=7 by exhaustive search")


def test_criterion_03_exact_core_values():
    assert exact_core_ramsey((4, 4, 4)).value == 5
    assert exact_core_ramsey((5, 5, 5)).value == 7
    for p1 in range(2, 9):
        for p2 in range(2, p1 + 1):
            assert exact_core_ramsey((p1, p2)).value == max(p1, p2)
    for r in range(2, 13):
        assert exact_core_ramsey((3,) * r).value == pm_all3(r)
    assert covering_number(9, 5) == 5
    _report("3", "1-core values, two-color table, uniform threes, C(9,5)=5")


def test_criterion_03_slow_c13_5():
    assert covering_number(13, 5) == 10
    _report("3s", "C(13,5) = 10")


def test_criterion_04_reduction_identity_at_desk_scale():
    vectors = set()
    for r in (1, 2, 3):
        for tv in combinations_with_replacement(range(5, 2, -1), r):
            vectors.add(tuple(sorted(tv, reverse=True)))
    for tv in sorted(vectors):
        search = exact_pm_ramsey(tv, strategy="search")
        red = f_d(tv, 3, lambda shifted: core_value(shifted).value)
        assert search.value == red, (tv, search.value, red)
        # the route decides every size by search, one color included
        assert search.method == "exhaustive-search", tv
        assert verify_upper(red - 1, tv) is not None and verify_upper(red, tv) is None, tv
    _report("4", f"search == f3 over exact 1-core on {len(vectors)} vectors")


def test_criterion_05_uniform_small_cases():
    for r in range(2, 6):
        assert exact_pm_ramsey((4,) * r, strategy="reduction").value == r + 3
        assert exact_pm_ramsey((5,) * r, strategy="reduction").value == r + 4
    for r in range(2, 7):
        assert exact_core_ramsey((4,) * r).value <= r + 3
        assert exact_core_ramsey((5,) * r).value <= r + 4
        assert exact_core_ramsey((6,) * r).value <= r + 5
    _report("5", "uniform 4/5 families exact; uniform 1-core inequalities")


def test_criterion_06_sandwich_on_sampled_vectors():
    rng = random.Random(20250811)
    seen = 0
    for _ in range(200):
        r = rng.randint(2, 6)
        tv = tuple(sorted((rng.randint(2, 9) for _ in range(r)), reverse=True))
        value = exact_pm_ramsey(tv, strategy="reduction").value
        lo_std, lo_design = pm_lowers(tv)
        assert max(lo_std, lo_design) <= value <= pm_upper(tv), tv
        sv, exact = pm_standard_value(tv)
        if exact:
            assert value == sv, (tv, value, sv)
        seen += 1
    _report("6", f"bounds sandwich and exactness on {seen} sampled vectors")


def test_criterion_07_witness_suite():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        tv = tuple(sorted((rng.randint(2, 9) for _ in range(r)), reverse=True))
        try:
            col = pm_extremal_coloring(tv)
        except ValueError:
            continue  # degenerate: fewer than two vertices in the layering
        prof = mono_pm_profile(col)
        assert all(q <= p - 1 for q, p in zip(prof, tv)), tv

    # ten colors, target six: the rainbow-core lift certifies > 15 on K_15
    from ramsey_pm.pm_ramsey import find_lower_witness
    witness = find_lower_witness(15, (6,) * 10)
    assert witness is not None and witness.n == 15
    prof = mono_pm_profile(witness)
    assert all(q <= 5 for q in prof)
    assert exact_pm_ramsey((6,) * 10, strategy="reduction").value > 15

    # the two published constructions on six and four vertices:
    # [4,1,1] for the path-matching side of (5,5,5)
    col = layered_coloring([4, 1, 1])
    assert mono_pm_profile(col) == (4, 3, 3)
    # three 4-blocks from a tripartition for the 1-core side of (5,5,5)
    parts = [mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5])]
    cover = BlockCover(6, (4, 4, 4),
                       (parts[0] | parts[1], parts[1] | parts[2], parts[2] | parts[0]))
    cover.validate()
    # (4,3,3,3): triangle in colors 2,3,4 plus color 1 elsewhere
    tri = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    col4 = _triangle_coloring()
    assert all(q <= p - 1 for q, p in zip(mono_pm_profile(col4), (4, 3, 3, 3)))
    # and its 1-core twin: a color-1 triangle plus three rainbow edges
    cover4 = BlockCover(4, (3, 2, 2, 2),
                        (mask_of([0, 1, 2]), mask_of([0, 3]),
                         mask_of([1, 3]), mask_of([2, 3])))
    cover4.validate()
    assert exact_core_ramsey((4, 3, 3, 3)).value == 5
    _report("7", "extremal profiles, the fifteen-vertex lift, both "
                 "published six- and four-vertex constructions")


def _triangle_coloring():
    from ramsey_pm.coloring import coloring_from_edge_colors
    tri_colors = {(1, 2): 2, (1, 3): 3, (2, 3): 4}

    def colorof(u, v):
        return tri_colors.get((u, v), 1)

    return coloring_from_edge_colors(4, 4, colorof)


def test_criterion_08_diagonal_guarantee():
    for r in (2, 3, 4):
        for n in range(r + 2, 9, r + 2):
            target = 3 * n // (r + 2)
            if target < 2:
                continue
            value = exact_pm_ramsey((target,) * r, strategy="reduction").value
            assert value <= n, (r, n, value)
            sizes = [3 * n // (r + 2)] + [n // (r + 2)] * (r - 1)
            col = layered_coloring(sizes)
            prof = mono_pm_profile(col)
            assert max(prof) == target, (r, n, prof)
    _report("8", "reduction value at most n and layered tightness")


def test_criterion_09_techfact_property():
    rng = random.Random(909)
    for _ in range(500):
        r = rng.randint(3, 8)
        tv = tuple(sorted((rng.randint(3, 20) for _ in range(r)), reverse=True))
        i, ii, iii = techfact_holds(tv)
        assert i and ii and iii, tv
        # recompute both sides of each claim independently with rationals
        standard = tv[0] - (r - 1) + sum(ceil_third(p) for p in tv[1:])
        third = ceil(Fraction(tv[0] - r + sum(tv), 3))
        half = ceil(Fraction(tv[0] + tv[1] + tv[2], 2)) - 1
        assert ceil(Fraction(2 * tv[0] - r + sum(tv), 3)) >= half
        left_ii = standard >= third
        right_ii = Fraction(tv[0]) >= 2 * r - 3 - sum(
            3 * (Fraction(ceil_third(p)) - Fraction(p, 3)) for p in tv[1:])
        assert left_ii == right_ii, tv
        left_iii = standard >= half + sum(ceil_third(p) - 1 for p in tv[3:])
        right_iii = tv[0] >= 2 + (tv[1] - 2 * ceil_third(tv[1])) + \
            (tv[2] - 2 * ceil_third(tv[2]))
        assert left_iii == right_iii, tv
    _report("9", "500 random vectors, all three facts with both directions")


def test_criterion_10_pruned_verdicts_match_plain_dfs_and_pins():
    # the pruned coloring search finds the least bad coloring that a plain
    # DFS, sharing no code with it, finds, or none when that finds none
    coloring_cases = [(3, (3, 3, 3)), (4, (3, 3, 3)), (4, (3, 3, 3, 3)),
                      (4, (4, 3, 3, 3)), (5, (4, 3, 3, 3)), (5, (4, 4)),
                      (5, (4, 4, 4)), (6, (4, 4, 4)), (6, (5, 5, 5)), (6, (5, 5)),
                      (7, (6, 6))]
    for n, p in coloring_cases:
        out = enumerate_colorings(n, p)
        plain = plain_counterexample(n, p)
        assert (out.counterexample is None) == (plain is None), (n, p)
        if plain is not None:
            got = tuple(out.counterexample.color_of(u, v) for u, v in colex_edges(n))
            assert got == plain, (n, p)

    # pinned cover verdicts
    cover_cases = [(4, (3, 3, 3), True), (5, (3, 3, 3), False),
                   (6, (4, 4, 4), True), (7, (4, 4, 4), False),
                   (9, (5,) * 5, True), (10, (5,) * 5, False),
                   (5, (2,) * 10, True), (6, (2,) * 12, False),
                   (9, (5, 5, 5, 5), False), (7, (4, 4, 3, 2), False)]
    for n, caps, feasible in cover_cases:
        assert (cover_feasible_with_stats(n, caps)[0] is not None) == feasible, (n, caps)
    _report("10", "pruned coloring verdicts equal a plain DFS's; "
                  "cover verdicts as pinned")
