import random
import re
from itertools import combinations_with_replacement

import pytest

from ramsey_pm.bounds import (core_upper_degree, core_upper_edgecount,
                              core_upper_main, covering_lower_eh,
                              covering_lower_schonheim, pm_all3)
from ramsey_pm import core_ramsey
from ramsey_pm.core_ramsey import (BlockCover, cover_feasible_with_stats, cover_to_coloring,
                                   covering_number, exact_core_ramsey)
from ramsey_pm.coloring import mono_core_profile
from ramsey_pm.results import BudgetExceededError

from conftest import (check_node_budget_boundary, check_non_positive_budgets_rejected,
                      check_time_budget_read_on_every_node, scan_core_value,
                      subset_cover_search)


def core_search_brute(n: int, targets) -> bool:
    """Independent oracle: is there an r-coloring of K_n whose color-i
    1-core stays below p_i?  Plain DFS over edges with nothing but the
    monotone 1-core bound for pruning."""
    r = len(targets)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = [0] * r  # vertex masks seeing each color

    def walk(k: int) -> bool:
        if k == len(pairs):
            return True
        u, v = pairs[k]
        add = (1 << u) | (1 << v)
        for c in range(r):
            before = seen[c]
            seen[c] |= add
            if seen[c].bit_count() <= targets[c] - 1 and walk(k + 1):
                seen[c] = before
                return True
            seen[c] = before
        return False

    return walk(0)


def test_cover_feasible_examples():
    cover = cover_feasible_with_stats(4, (3, 3, 3))[0]
    assert cover is not None
    cover.validate()
    assert cover_feasible_with_stats(5, (3, 3, 3))[0] is None
    cover = cover_feasible_with_stats(6, (4, 4, 4))[0]
    assert cover is not None and cover.block_sizes() == (4, 4, 4)


def test_cover_feasible_drops_tiny_blocks():
    # capacity <= 1 blocks cover nothing
    assert cover_feasible_with_stats(3, (1, 1, 2))[0] is None
    cover = cover_feasible_with_stats(2, (1, 2))[0]
    assert cover is not None and cover.blocks[0] == 0


def test_exact_core_values_from_text():
    assert exact_core_ramsey((4, 4, 4)).value == 5
    assert exact_core_ramsey((5, 5, 5)).value == 7
    assert exact_core_ramsey((5, 3)).value == 5
    assert exact_core_ramsey((4, 3, 3, 3)).value == 5


def test_two_color_values_are_max():
    for p1 in range(2, 9):
        for p2 in range(2, p1 + 1):
            assert exact_core_ramsey((p1, p2)).value == max(p1, p2)


def test_uniform_threes_match_all3():
    for r in range(2, 13):
        assert exact_core_ramsey((3,) * r).value == pm_all3(r)


def test_covering_numbers():
    assert covering_number(9, 5) == 5
    assert covering_number(5, 5) == 1
    assert covering_number(5, 3) == 4
    assert covering_number(7, 3) == 7
    # no cap on blocks or vertices: 66 and 78 one-pair blocks, and K_100
    assert covering_number(12, 2) == 66
    assert covering_number(13, 2) == 78
    assert covering_number(100, 50) == 6


def test_covering_c13_5():
    assert covering_number(13, 5) == 10


def test_monotone_feasibility(rng):
    # delete a vertex from a found cover and it still covers
    for _ in range(25):
        r = rng.randint(2, 5)
        tv = tuple(sorted((rng.randint(3, 7) for _ in range(r)), reverse=True))
        caps = tuple(p - 1 for p in tv)
        res = exact_core_ramsey(tv)
        n = res.value - 1
        if n < 3:
            continue
        assert cover_feasible_with_stats(n, caps)[0] is not None
        assert cover_feasible_with_stats(n - 1, caps)[0] is not None
        assert cover_feasible_with_stats(res.value, caps)[0] is None


def test_bound_sandwich(rng):
    for _ in range(40):
        r = rng.randint(2, 5)
        tv = tuple(sorted((rng.randint(2, 8) for _ in range(r)), reverse=True))
        value = exact_core_ramsey(tv).value
        assert tv[0] <= value
        assert value <= core_upper_edgecount(tv)
        assert value <= core_upper_main(tv)
        deg = core_upper_degree(tv)
        if deg is not None:
            assert value <= deg


def test_bisection_matches_upward_scan(rng):
    for _ in range(60):
        r = rng.randint(2, 6)
        tv = tuple(sorted((rng.randint(2, 8) for _ in range(r)), reverse=True))
        res = exact_core_ramsey(tv)
        assert res.value == scan_core_value(tv), tv
        assert res.lower_witness.n == res.value - 1
        res.lower_witness.validate()


def test_covering_numbers_match_the_literature():
    # Fort and Hedlund (Pacific J. Math. 8, 1958): C(v, 3) is the
    # Schonheim bound for every v.  C(14, 3) is left out for its time.
    for v in list(range(4, 14)) + [15, 16]:
        assert covering_number(v, 3) == covering_lower_schonheim(v, 3), v
    # Mills (J. Combin. Theory Ser. A, 1972 and 1973): C(v, 4) is the
    # Schonheim bound, plus 1 at v = 7, 9 and 10
    for v in range(5, 14):
        assert covering_number(v, 4) == covering_lower_schonheim(v, 4) + (v in (7, 9, 10)), v


def test_covering_bounds_sandwich():
    for v, k in [(9, 5), (5, 3), (7, 3), (8, 4), (10, 4)]:
        exact = covering_number(v, k)
        assert covering_lower_eh(v, k) <= exact
        if k >= 3:
            assert covering_lower_schonheim(v, k) <= exact


def test_uniform_small_inequalities():
    for r in range(2, 7):
        assert exact_core_ramsey((4,) * r).value <= r + 3
        assert exact_core_ramsey((5,) * r).value <= r + 4
        assert exact_core_ramsey((6,) * r).value <= r + 5


def test_cross_oracle_vs_coloring_enumeration():
    cases = []
    for r in (2, 3):
        for tv in combinations_with_replacement(range(6, 2, -1), r):
            cases.append(tuple(sorted(tv, reverse=True)))
    for tv in cases:
        caps = tuple(p - 1 for p in tv)
        for n in range(2, 7):
            enum = core_search_brute(n, tv)
            search = cover_feasible_with_stats(n, caps)[0] is not None
            assert enum == search, (n, tv)


def test_witness_cover_converts_to_coloring():
    res = exact_core_ramsey((5, 5, 5))
    cover = res.lower_witness
    assert isinstance(cover, BlockCover) and cover.n == res.value - 1
    col = cover_to_coloring(cover)
    prof = mono_core_profile(col)
    assert all(q <= p - 1 for q, p in zip(prof, res.targets))


def test_budget_is_an_error_not_an_answer():
    # this feasible instance needs 4,849 nodes
    with pytest.raises(BudgetExceededError):
        cover_feasible_with_stats(12, (5,) * 10, node_budget=50)


def _cover_search(**budgets):
    # five blocks of 5 cover K_9
    return cover_feasible_with_stats(9, (5,) * 5, **budgets)


def test_time_budget_read_on_every_node(monkeypatch):
    check_time_budget_read_on_every_node(_cover_search, monkeypatch)


def test_cover_node_budget_boundary():
    check_node_budget_boundary(_cover_search)


def test_cover_non_positive_budgets_rejected():
    check_non_positive_budgets_rejected(_cover_search)


def test_trivial_targets():
    res = exact_core_ramsey((2, 2, 2))
    assert res.value == 2
    assert res.lower_witness.n == 1
    res = exact_core_ramsey((1, 1))
    assert res.value == 2


def brute_cover_exists(n: int, caps) -> bool:
    """Ground truth by enumerating every vertex-to-blocks assignment."""
    from itertools import product
    B = len(caps)
    for assignment in product(range(1, 1 << B), repeat=n):
        if any(assignment[u] & assignment[v] == 0
               for u in range(n) for v in range(u + 1, n)):
            continue
        counts = [0] * B
        for s in assignment:
            for b in range(B):
                if s >> b & 1:
                    counts[b] += 1
        if all(c <= cap for c, cap in zip(counts, caps)):
            return True
    return False


def test_cover_feasible_fuzz_against_brute_force(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        B = rng.randint(1, 3)
        caps = tuple(sorted((rng.randint(1, 4) for _ in range(B)), reverse=True))
        brute = brute_cover_exists(n, [c for c in caps if c >= 2])
        if not any(c >= 2 for c in caps):
            brute = False
        search = cover_feasible_with_stats(n, caps)[0] is not None
        assert brute == search, (n, caps)


def test_cover_search_matches_subset_oracle():
    # same verdict and cover as the subset walk, never more nodes; the few
    # draws the oracle cannot settle within its budget are not compared
    rng = random.Random(0xC0DE)
    compared = 0
    while compared < 300:
        caps = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 8)))
        n = rng.randint(2, 14)
        try:
            want, oracle_nodes = subset_cover_search(n, caps, node_budget=20_000)
        except BudgetExceededError:
            continue
        cover, nodes = cover_feasible_with_stats(n, caps)
        assert cover == want, (n, caps)
        assert nodes <= oracle_nodes, (n, caps)
        compared += 1


def test_exact_core_matches_subset_oracle(monkeypatch):
    rng = random.Random(0xFACE)
    vectors = [tuple(sorted((rng.randint(2, 8) for _ in range(rng.randint(2, 7))), reverse=True))
               for _ in range(60)]
    got = [exact_core_ramsey(tv) for tv in vectors]
    monkeypatch.setattr(core_ramsey, "cover_feasible_with_stats", subset_cover_search)
    for tv, res in zip(vectors, got):
        want = exact_core_ramsey(tv)
        assert (res.value, res.lower_witness) == (want.value, want.lower_witness), tv
        assert res.stats.nodes <= want.stats.nodes, tv


def test_bad_capacities_rejected():
    # rejected by name before any search; a negative capacity used to run
    # and then fail the cover's own validation
    for caps in ((-5, 3), (), (4, -1, 4)):
        with pytest.raises(ValueError, match=re.escape(f"capacities, got {caps}")):
            cover_feasible_with_stats(3, caps)


def test_cover_search_deeper_than_the_default_recursion_limit():
    # the bisection's searches assign up to 1,048 vertices, one recursion
    # level each
    res = exact_core_ramsey((700, 700, 700), node_budget=20_000)
    assert (res.value, res.stats.nodes) == (1049, 9098)
    assert res.lower_witness.n == 1048


def test_block_cover_restrict():
    # the cover of K_6 for (5,5,5), cut to each prefix, still covers it
    cover = exact_core_ramsey((5, 5, 5)).lower_witness
    assert cover.n == 6
    for m in range(1, 7):
        cut = cover.restrict(m)
        cut.validate()
        assert (cut.n, cut.capacities) == (m, cover.capacities)
        assert cut.blocks == tuple(b & ((1 << m) - 1) for b in cover.blocks)
    assert cover.restrict(6) == cover
    for bad in (0, 7):
        with pytest.raises(ValueError, match=f"need 1 <= n <= 6, got {bad}"):
            cover.restrict(bad)
