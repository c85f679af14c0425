import itertools
import os
import subprocess
import sys

import pytest

from ramsey_pm import results, search
from ramsey_pm.coloring import mono_pm_profile
from ramsey_pm.graphs import SimpleGraph
from ramsey_pm.path_matching import packing_oracle
from ramsey_pm.pm_ramsey import closed_form_value
from ramsey_pm.results import BudgetExceededError
from ramsey_pm.search import colex_edges, enumerate_colorings

from conftest import (SteppingClock, brute_force_canonical, check_node_budget_boundary,
                      check_non_positive_budgets_rejected,
                      check_time_budget_read_on_every_node, colored_edges, dead_vertex,
                      every_completion_succeeds, first_use_ok, least_image, oracle_leaves,
                      plain_counterexample, search_extends)


def naive_counterexamples(n, thresholds):
    """All bad colorings by plain enumeration (independent of the engine)."""
    r = len(thresholds)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = []
    for combo in itertools.product(range(1, r + 1), repeat=len(pairs)):
        ok = True
        for c in range(1, r + 1):
            g = SimpleGraph.from_edges(n, [pairs[k] for k in range(len(pairs))
                                           if combo[k] == c])
            if packing_oracle(g) >= thresholds[c - 1]:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def test_examples_from_contract():
    out = enumerate_colorings(3, (3, 3, 3))
    assert mono_pm_profile(out.counterexample) == (2, 2, 2)

    assert enumerate_colorings(4, (3, 3, 3)).counterexample is None
    assert enumerate_colorings(5, (4, 3, 3, 3)).counterexample is None
    out = enumerate_colorings(4, (4, 3, 3, 3))
    prof = mono_pm_profile(out.counterexample)
    assert all(q <= p - 1 for q, p in zip(prof, (4, 3, 3, 3)))


def test_verdicts_match_naive_enumeration(rng):
    # the search and the plain DFS oracle against plain enumeration; the
    # oracle's counterexample is the least bad coloring, and so is the
    # search's, since the least member of a class survives every prune
    for _ in range(25):
        n = rng.randint(2, 4)
        r = rng.randint(1, 3)
        p = tuple(sorted((rng.randint(2, 5) for _ in range(r)), reverse=True))
        naive = naive_counterexamples(n, p)
        plain = plain_counterexample(n, p)
        out = enumerate_colorings(n, p)
        assert (plain is not None) == bool(naive) == (out.counterexample is not None), (n, p)
        if plain is not None:
            # naive lists colors in lexicographic edge order, plain in colex
            by_edge = dict(zip(colex_edges(n), plain))
            assert tuple(by_edge[u, v] for u in range(n) for v in range(u + 1, n)) in naive
            assert tuple(out.counterexample.color_of(u, v) for u, v in colex_edges(n)) == plain


def test_verdicts_match_naive_enumeration_n5_two_colors():
    for p in [(4, 4), (5, 4), (5, 5), (4, 3), (6, 6), (6, 3), (5, 2)]:
        naive = bool(naive_counterexamples(5, p))
        out = enumerate_colorings(5, p)
        assert (out.counterexample is not None) == naive, p


def test_every_class_has_a_representative():
    # unreachable thresholds disable success pruning, so the engine must
    # walk at least one member of every coloring class of K_4 in 2 colors
    n, r = 4, 2
    reps = []
    enumerate_colorings(n, (n + 1,) * r, visitor=lambda c: reps.append(c) and None)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def canon(colors: tuple[int, ...]) -> tuple[int, ...]:
        best = None
        for perm in itertools.permutations(range(n)):
            for cmap in itertools.permutations(range(1, r + 1)):
                img = [0] * len(pairs)
                for k, (u, v) in enumerate(pairs):
                    a, b = perm[u], perm[v]
                    if a > b:
                        a, b = b, a
                    img[pairs.index((a, b))] = cmap[colors[k] - 1]
                t = tuple(img)
                if best is None or t < best:
                    best = t
        return best

    visited = {canon(tuple(c.color_of(u, v) for u, v in pairs)) for c in reps}
    every = {canon(combo) for combo in itertools.product((1, 2), repeat=len(pairs))}
    assert visited == every


def test_success_pruning_is_monotone(rng):
    # a color at its threshold stays there under any completion
    for _ in range(50):
        n = rng.randint(3, 7)
        g_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                   if rng.random() < 0.5]
        g = SimpleGraph.from_edges(n, g_edges)
        base = packing_oracle(g) if n <= 10 else None
        extra = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in g_edges and rng.random() < 0.5]
        bigger = SimpleGraph.from_edges(n, g_edges + extra)
        assert packing_oracle(bigger) >= base


def test_deterministic_counterexample():
    first = enumerate_colorings(6, (5, 5, 5)).counterexample
    second = enumerate_colorings(6, (5, 5, 5)).counterexample
    assert first is not None and first.colors == second.colors


def _coloring_search(**budgets):
    # every 3-coloring of K_6 finishes a color at threshold 4
    out = enumerate_colorings(6, (4, 4, 4), **budgets)
    return out.counterexample, out.nodes


def test_node_budget_boundary():
    check_node_budget_boundary(_coloring_search)


def test_non_positive_budgets_rejected():
    check_non_positive_budgets_rejected(_coloring_search)


def test_coloring_time_budget_read_on_every_node(monkeypatch):
    check_time_budget_read_on_every_node(_coloring_search, monkeypatch)


def test_non_positive_thresholds_rejected():
    for ts in ((0, 3), (3, -1)):
        with pytest.raises(ValueError):
            enumerate_colorings(4, ts)


def test_empty_thresholds_rejected():
    # no color: rejected by name before any search, on K_1 as on larger n
    for n in (1, 2, 5):
        with pytest.raises(ValueError, match=r"positive thresholds, got \(\)"):
            enumerate_colorings(n, ())


def test_search_deeper_than_the_default_recursion_limit():
    # one color below its threshold on K_99: the only coloring is a leaf
    # 4,851 slots deep, one recursion level per slot
    out = enumerate_colorings(99, (100,), node_budget=10_000)
    assert out.counterexample is not None and out.nodes == 4851
    assert out.counterexample.n == 99


def test_k1_is_a_leaf_and_k0_is_rejected():
    # K_1 has no edge, so the root is a leaf: the empty coloring is bad
    out = enumerate_colorings(1, (3, 3))
    assert (out.nodes, out.leaves) == (0, 1)
    assert (out.counterexample.n, out.counterexample.r) == (1, 2)
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            enumerate_colorings(n, (3, 3))


def test_many_equal_colors_truncated_maps_stay_sound():
    # twelve interchangeable colors: the color map is grown lazily, so
    # their 12! permutations are never listed; the verdict must match reality
    # ten edges, one color each
    assert enumerate_colorings(5, (3,) * 12).counterexample is not None
    # fifteen pairs force a repeated color
    assert enumerate_colorings(6, (3,) * 12).counterexample is None


def test_budget_exhaustion_is_reported():
    # unreachable thresholds and a never-satisfied visitor force a full
    # enumeration, which a 50-node budget cannot finish
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(6, (7, 7, 7), lambda col: False, node_budget=50)


def test_canonical_extension_check_first_edge():
    cfg = (4, (3, 3, 3))
    assert search_extends([1], *cfg)
    assert not search_extends([2], *cfg)  # equal thresholds freeze order
    assert not search_extends([2], 4, (3, 3))
    assert search_extends([1] * 6, 4, (5, 5))  # all C(4,2) edges: a leaf


def test_canonical_extension_check_unequal_thresholds():
    cfg = (4, (5, 3))
    # distinct thresholds: no color interchange, so color 2 may lead
    assert search_extends([2], *cfg)


def test_canonical_extension_symmetry_pairs(rng):
    # of a prefix and a strictly smaller image, only the image survives
    cfg = (4, (9, 9))
    edges = colex_edges(4)
    for _ in range(40):
        k = 3  # complete K_3 prefix
        seq = [rng.randint(1, 2) for _ in range(k)]
        if search_extends(seq, *cfg):
            continue
        # some symmetry must produce a smaller canonical prefix
        smaller_exists = False
        for perm in itertools.permutations(range(3)):
            for cmap in ((1, 2), (2, 1)):
                img = [0] * k
                for j, (u, v) in enumerate(edges[:k]):
                    a, b = perm[u], perm[v]
                    if a > b:
                        a, b = b, a
                    img[edges.index((a, b))] = cmap[seq[j] - 1]
                if img < seq:
                    smaller_exists = True
        assert smaller_exists


def test_canonical_extension_check_matches_brute_force(rng):
    # every complete K_3 and K_4 prefix
    for ts in ((3, 3, 3), (4, 4, 3), (5, 3)):
        cfg = (6, ts)
        for m in (3, 4):
            for combo in itertools.product(range(1, len(ts) + 1), repeat=m * (m - 1) // 2):
                assert search_extends(combo, *cfg) == \
                    brute_force_canonical(combo, ts), (ts, combo)
    # seeded random K_5 and K_6 prefixes, and the least member of each class
    for m, count in ((5, 30), (6, 4)):
        for _ in range(count):
            ts = rng.choice(((3, 3, 3), (4, 4, 3), (5, 3), (4, 4), (6, 5, 4)))
            cfg = (m + 1, ts)
            combo = tuple(min(rng.randint(1, len(ts)), rng.randint(1, len(ts)))
                          for _ in range(m * (m - 1) // 2))
            least = least_image(combo, ts)
            assert search_extends(combo, *cfg) == (least == combo), (ts, combo)
            assert search_extends(least, *cfg), (ts, least)


def test_row_rule_rejects_only_rows_without_minimal_completion(rng):
    # a prefix ending inside row v that the search does not extend has no
    # completion to a K_{v+1} that is the least member of its class; the
    # row and twin rules must reject some prefixes that the first-use order
    # lets through.  In the monochromatic K_4 every vertex is a twin of
    # every other, and row 3 is all color 1, so the row rule never cuts
    # there and every such cut is the twin rule's.
    mono = (1,) * 6
    for ts in ((3, 3, 3), (4, 4, 3), (5, 3)):
        r = len(ts)
        colors = range(1, r + 1)
        cuts = twin_cuts = 0
        for v in (3, 4):
            cfg = (v + 2, ts)
            kv = v * (v - 1) // 2
            bases = (list(itertools.product(colors, repeat=kv)) if v == 3 else
                     [mono, least_image((1, 1, 2, 1, 2, 1), ts)] +
                     [least_image([rng.randint(1, r) for _ in range(kv)], ts)
                      for _ in range(3)])
            for base in bases:
                minimal_rows = [row for row in itertools.product(colors, repeat=v)
                                if brute_force_canonical(tuple(base) + row, ts)]
                for length in range(1, v):
                    for part in itertools.product(colors, repeat=length):
                        prefix = tuple(base) + part
                        if search_extends(prefix, *cfg):
                            continue
                        assert all(row[:length] != part for row in minimal_rows), (ts, prefix)
                        cut = first_use_ok(prefix, ts)
                        cuts += cut
                        twin_cuts += cut and base == mono
        assert 0 < twin_cuts < cuts, ts


def test_visited_leaves_match_oracle():
    # the collected leaves, in order, are exactly the colorings that pass
    # every threshold, the first-use order and each tested boundary by
    # brute force
    cases = [(3, (3, 3, 3)), (4, (3, 3, 3)), (4, (5, 5, 5)), (5, (6, 6)),
             (5, (4, 4, 3)), (5, (5, 5, 3)), (5, (5, 4, 4)), (5, (5, 5, 5)),
             (5, (6, 5, 4)), (5, (6, 6, 6))]
    pairs = colex_edges(5)
    for n, ts in cases:
        leaves = []
        enumerate_colorings(n, ts, visitor=leaves.append)
        got = [tuple(col.color_of(u, v) for u, v in pairs[:len(col.colors)])
               for col in leaves]
        assert got == oracle_leaves(n, ts), (n, ts)


def test_leaves_pinned_at_six_and_seven_vertices():
    # every leaf of five searches with counterexamples, collected by a
    # visitor: the count and the first and last leaf, pinned where the
    # minimality test runs at K_4..K_6 (oracle_leaves stops at n = 5)
    cases = (
        (6, (5, 5, 5), 9, (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 2),
         (1, 1, 1, 2, 2, 3, 2, 2, 3, 3, 1, 1, 3, 3, 3)),
        (6, (6, 4, 3), 15, (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2),
         (1, 1, 1, 1, 1, 3, 2, 2, 2, 2, 1, 1, 1, 1, 2)),
        (6, (4, 4, 4, 4), 6, (1, 1, 1, 2, 2, 2, 3, 3, 3, 2, 4, 4, 4, 2, 3),
         (1, 1, 2, 1, 2, 3, 4, 2, 4, 4, 1, 2, 3, 3, 4)),
        (7, (6, 6, 6), 406,
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 2),
         (1, 1, 1, 1, 2, 2, 1, 2, 3, 2, 1, 3, 3, 2, 3, 1, 3, 3, 2, 3, 3)),
        (7, (5, 5, 5, 5), 14,
         (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 2, 4, 4, 4, 4, 2, 3),
         (1, 1, 1, 2, 2, 2, 3, 3, 4, 2, 3, 3, 4, 2, 4, 1, 1, 4, 2, 4, 4)),
    )
    for n, ts, count, first, last in cases:
        leaves = []
        enumerate_colorings(n, ts, visitor=leaves.append)
        got = [tuple(col.color_of(u, v) for u, v in colex_edges(n)) for col in leaves]
        assert (len(got), got[0], got[-1]) == (count, first, last), (n, ts)


def test_node_counts_at_eight_vertices(monkeypatch):
    # deterministic regression values for nodes and minimality tests
    # (_canonical calls), those of the future-clique sub-searches included.
    # Before the bare-edge look-ahead replaced the dead-vertex one, 1,645,
    # 849, 2,931, 1,981 and 1,060 nodes and 148, 92, 198, 158 and 98 tests.
    # Before the future-clique look-ahead and the saturated-color skip,
    # 2,480, 2,389, 7,330, 6,467 and 4,271 nodes and 254, 195, 404, 289
    # and 234 tests.  Before the dead-vertex look-ahead, 6,895, 5,334,
    # 17,512, 13,947 and 9,008 nodes and 714, 491, 1,046, 728 and 549
    # tests.  The test waits for a surviving child at (0, m), so a rejected
    # K_m prefix's children there are tried first: before that, 5,720,
    # 4,216, 15,643, 12,324 and 8,507 nodes and 1,544, 1,138, 2,636, 1,806
    # and 1,335 tests; before the twin rule 7,484, 5,361, 22,365, 18,212
    # and 12,791 nodes, and before the row rule 16,707, 10,316, 53,294,
    # 39,268 and 31,900
    tests = []
    real = search._ColoringDFS._canonical

    def counting(dfs, m):
        tests.append(m)
        return real(dfs, m)

    monkeypatch.setattr(search._ColoringDFS, "_canonical", counting)
    for ts, nodes, tested in (((6, 6, 6), 833, 68), ((5, 5, 5, 5), 600, 53),
                              ((6, 6, 4, 3), 736, 60), ((7, 6, 3, 3), 580, 54),
                              ((6, 5, 4, 3), 565, 61)):
        tests.clear()
        out = enumerate_colorings(8, ts)
        assert (out.counterexample, out.nodes, len(tests)) == (None, nodes, tested), ts


def test_node_counts_at_nine_vertices():
    # the search at the value 9 of each vector, the closed form of the
    # first two: some coloring of K_8 finishes no color, and every coloring
    # of K_9 succeeds.  Before the bare-edge look-ahead replaced the
    # dead-vertex one, 7,641, 25,278 and 515,612 nodes.  Before the
    # future-clique look-ahead and the saturated-color skip, 41,667 and
    # 73,310 nodes for the first two; before the dead-vertex look-ahead,
    # 109,355 and 244,342
    for ts, nodes, closed in (((5, 5, 5, 5, 5), 5986, 9), ((6, 6, 6, 4), 8416, 9),
                              ((6, 6, 6, 3, 3, 3, 3), 36819, None)):
        cf = closed_form_value(ts)
        assert (cf and cf[0]) == closed, ts
        assert enumerate_colorings(8, ts).counterexample is not None, ts
        out = enumerate_colorings(9, ts)
        assert (out.counterexample, out.nodes) == (None, nodes), ts


def test_orders_follow_the_rows():
    # at every leaf order[c] is the order of color c's rows; a finished
    # search has restored it to its start
    for n, ts in ((6, (5, 5, 5)), (6, (6, 4, 3)), (7, (5, 5, 5, 5))):
        dfs = search._ColoringDFS(n, ts, None)
        seen = []

        def visit(col):
            order = [search.pm_order_of_rows(rows, n) for rows in dfs.rows]
            assert dfs.order == order, (ts, col.colors)
            seen.append(col)

        dfs.visitor = visit
        dfs.run()
        assert seen and dfs.order == [0] * len(ts), ts


def test_one_pm_order_call_per_node(monkeypatch):
    # the search asks pm_order_of_rows(rows, n) through its module global
    # once per node; perfbench's tracer counts the calls there
    calls = []
    real = search.pm_order_of_rows

    def counting(rows, n):
        calls.append(n)
        return real(rows, n)

    monkeypatch.setattr(search, "pm_order_of_rows", counting)
    for ts in ((5, 5, 5), (6, 4, 3)):
        out = enumerate_colorings(6, ts)
        assert out.nodes > 0 and len(calls) == out.nodes, ts
        calls.clear()


def test_future_clique_verdicts_match_closed_forms():
    # the look-ahead asks whether every coloring of the bare K_f lifts some
    # color i by q_i, that is whether R^PM(q) <= f; at the root every order
    # is 0, so q is the thresholds.  Its sub-searches against the closed
    # forms on every q with r <= 3 and entries 3..7
    for r in (1, 2, 3):
        for q in itertools.combinations_with_replacement(range(7, 2, -1), r):
            value = closed_form_value(q)[0]
            for f in range(2, 8):
                dfs = search._ColoringDFS(f + 2, q, None)
                assert dfs._future_forced(f, 0) == (f >= value), (f, q)


def seeded_vectors(rng, count, n_max):
    """count (n, thresholds) pairs with 4 <= n <= n_max, 2 to 4 colors and
    entries 3..6."""
    return [(rng.randint(4, n_max),
             tuple(sorted((rng.randint(3, 6) for _ in range(rng.randint(2, 4))), reverse=True)))
            for _ in range(count)]


def test_bare_edge_cuts_hold_for_every_completion(monkeypatch, rng):
    # every cut of the bare-edge look-ahead in whole seeded search trees at
    # n <= 6 is checked by coloring all completions of the cut prefix.  Cuts
    # with more than 60,000 completions are skipped, and a shuffled sample
    # of the rest is checked until 150,000 completions are colored.  A rule
    # whose q = 4 capacity left out the star at a bare vertex (|Z| + f - 1
    # edges) cuts prefixes with a completion that finishes no color
    cuts = {}
    real = search._ColoringDFS._bare_edges_forced

    def recording(dfs, v):
        hit = real(dfs, v)
        if hit:
            cuts.setdefault((dfs.n, dfs.ts, colored_edges(dfs)))
        return hit

    monkeypatch.setattr(search._ColoringDFS, "_bare_edges_forced", recording)
    for n, ts in seeded_vectors(rng, 15, 6):
        enumerate_colorings(n, ts, visitor=lambda col: None)
    keys = list(cuts)
    rng.shuffle(keys)
    checked = work = 0
    for n, ts, colored in keys:
        completions = len(ts) ** (n * (n - 1) // 2 - len(colored))
        if completions > 60_000:
            continue
        assert every_completion_succeeds(n, ts, colored), (n, ts, colored)
        checked += 1
        work += completions
        if work > 150_000:
            break
    assert checked >= 20, (checked, len(keys))


def test_bare_edge_rule_cuts_where_the_dead_vertex_rule_did(monkeypatch, rng):
    # the dead-vertex look-ahead is the bare-edge one with no far color and
    # one bare vertex: wherever it would have cut, the bare-edge rule cuts.
    # Whole trees of the five searches at n = 8 and of seeded ones at n <= 7
    old_cuts = []
    real = search._ColoringDFS._bare_edges_forced

    def checking(dfs, v):
        hit = real(dfs, v)
        if dead_vertex(dfs, v):
            assert hit, (dfs.ts, colored_edges(dfs))
            old_cuts.append(v)
        return hit

    monkeypatch.setattr(search._ColoringDFS, "_bare_edges_forced", checking)
    cases = [(8, ts) for ts in ((6, 6, 6), (5, 5, 5, 5), (6, 6, 4, 3), (7, 6, 3, 3),
                                (6, 5, 4, 3))]
    for n, ts in cases + seeded_vectors(rng, 20, 7):
        enumerate_colorings(n, ts, visitor=lambda col: None)
    assert len(old_cuts) >= 100, len(old_cuts)


def test_verdicts_match_plain_dfs_up_to_six_vertices(rng):
    # the look-aheads and the saturated-color skip cut only subtrees whose
    # every completion succeeds, so the verdict and the least counterexample
    # are those of the plain DFS
    for _ in range(60):
        n = rng.randint(4, 6)
        r = rng.randint(1, 3)
        p = tuple(sorted((rng.randint(3, 6) for _ in range(r)), reverse=True))
        plain = plain_counterexample(n, p)
        out = enumerate_colorings(n, p)
        got = out.counterexample and tuple(out.counterexample.color_of(u, v)
                                           for u, v in colex_edges(n))
        assert got == plain, (n, p)


def test_node_counts_do_not_depend_on_earlier_searches():
    # sub-search verdicts are kept per search, so a search counts the same
    # nodes in a fresh interpreter, first here, and after other searches
    code = ("from ramsey_pm.search import enumerate_colorings\n"
            "print(enumerate_colorings(8, (6, 6, 4, 3)).nodes)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(search.__file__)))
    alone = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    cfg = (8, (6, 6, 4, 3))
    first = enumerate_colorings(*cfg).nodes
    for ts in ((6, 6, 6), (6, 5, 4, 3), (7, 6, 3, 3)):
        enumerate_colorings(8, ts)
    assert first == enumerate_colorings(*cfg).nodes == int(alone.stdout)


def test_node_budget_counts_sub_search_nodes(monkeypatch):
    # a budget of exactly the nodes of a search whose look-ahead runs
    # sub-searches suffices, and one less does not
    subs = []
    real_init = search._ColoringDFS.__init__

    def init(dfs, n, thresholds, visitor, forced=None, **budgets):
        subs.append(forced is not None)
        real_init(dfs, n, thresholds, visitor, forced, **budgets)

    monkeypatch.setattr(search._ColoringDFS, "__init__", init)
    full = enumerate_colorings(8, (6, 6, 6))
    assert full.counterexample is None and any(subs)
    exact = enumerate_colorings(8, (6, 6, 6), node_budget=full.nodes)
    assert exact.counterexample is None and exact.nodes == full.nodes
    with pytest.raises(BudgetExceededError) as err:
        enumerate_colorings(8, (6, 6, 6), node_budget=full.nodes - 1)
    assert err.value.nodes == full.nodes


def test_sub_searches_add_no_leaves_and_no_counterexample():
    # searches with counterexamples whose look-ahead refutes some sub-search
    # on a leaf of its own: the search's leaves are the colorings its
    # visitor got, and its counterexample the first of them
    for n, ts in ((7, (6, 6, 6)), (7, (6, 6, 4, 3)), (7, (7, 6, 3, 3))):
        leaves = []
        out = enumerate_colorings(n, ts, visitor=leaves.append)
        assert leaves and out.leaves == len(leaves), (n, ts)
        assert out.counterexample.colors == leaves[0].colors, (n, ts)


def test_canonical_extension_check_many_equal_colors():
    # a color-1 star and a color-2 triangle on K_4 inside K_5, whose K_4
    # boundary is tested; swapping the two colors and moving the triangle
    # first gives 1,1,1,... < 1,1,2,...
    prefix = [1, 1, 2, 1, 2, 2]
    assert not search_extends(prefix, 5, (3, 3))
    assert not search_extends(prefix, 5, (3,) * 9)


def test_visited_leaves_pass_the_extension_check():
    # success pruning and the look-aheads cut no prefix of a leaf, so every
    # leaf the search visits, and every prefix of one, is extended by the
    # search that search_extends runs without them
    cases = [(4, (9, 9)), (4, (4, 4, 4)), (5, (6, 6)), (5, (5, 5, 5)),
             (6, (7, 4)), (6, (6, 5, 3))]
    for n, ts in cases:
        pairs = colex_edges(n)
        cfg = (n, ts)
        leaves = []
        enumerate_colorings(*cfg, visitor=leaves.append)
        assert leaves, (n, ts)
        for col in leaves:
            seq = [col.color_of(u, v) for u, v in pairs]
            for k in range(1, len(seq) + 1):
                assert search_extends(seq[:k], *cfg), (n, ts, seq[:k])


def test_extension_check_accepts_only_canonical_parts():
    # the search tests every boundary it passes, so each complete K_m part
    # of an extended prefix is the least of its class;
    # every prefix of up to 10 slots at n = 6 and of up to 8 slots at n = 5
    for n, ts, longest in ((6, (9, 9), 10), (6, (5, 3), 10), (5, (4, 4, 4), 8)):
        cfg = (n, ts)
        parts = [m * (m - 1) // 2 for m in range(3, n)]
        accepted = 0
        for length in range(1, longest + 1):
            for prefix in itertools.product(range(1, len(ts) + 1), repeat=length):
                if search_extends(prefix, *cfg):
                    accepted += 1
                    for k in parts:
                        if k <= length:
                            assert brute_force_canonical(prefix[:k], ts), (ts, prefix)
        assert accepted, ts
    # its K_4 part fails the K_4 boundary, so the search never goes past it
    cfg = (6, (9, 9))
    assert not search_extends([1, 2, 1, 1, 1, 1], *cfg)
    assert not search_extends([1, 2, 1, 1, 1, 1, 1], *cfg)


def test_extension_check_applies_the_twin_rule():
    # in the monochromatic K_4 vertices 0 and 1 are twins, so in row 4 the
    # edge (2,4) may not take a color below that of (1,4)
    cfg = (6, (9, 9))
    assert search_extends([1] * 7 + [2], *cfg)
    assert not search_extends([1] * 7 + [2, 1], *cfg)


def test_twins_match_their_definition(rng):
    # _twin_below, grown one K_m at a time, against the plain definition:
    # a < b are twins in K_m when c(a, x) = c(b, x) for every other x < m
    n = 8
    for _ in range(60):
        r = rng.randint(1, 3)
        col = [[0] * n for _ in range(n)]
        for u, v in colex_edges(n):
            col[u][v] = col[v][u] = min(rng.randrange(r), rng.randrange(r))
        twins = [[], [-1], [-1, 0]]
        for m in range(3, n + 1):
            twins.append(search._twin_below(col, m, twins[m - 1]))
        for m in range(1, n + 1):
            expect = [max((a for a in range(b)
                           if all(col[a][x] == col[b][x] for x in range(m) if x not in (a, b))),
                          default=-1) for b in range(m)]
            assert twins[m] == expect, (m, col)


def test_extension_check_accepts_exactly_the_extended_prefixes(monkeypatch):
    # no color can reach these thresholds on K_n, so success pruning never
    # cuts, and the tree of prefixes that search_extends accepts, one at a
    # time, is the set of prefixes the whole search extends (recurses past,
    # or visits as a leaf): at each length the same prefixes in the same
    # (lexicographic) order, the complete ones being the leaves.  The search
    # also enters a complete K_m prefix before its boundary test, which runs
    # at its first child; search_extends rejects each one the test rejects.
    # Its own runs log their prefixes too, so the checks read a snapshot
    entered = []
    real_run = search._ColoringDFS.run

    def run(dfs, k=0, tie=True, pending=0):
        entered.append(tuple(dfs.col[u][v] + 1 for u, v in dfs.edges[:k]))
        return real_run(dfs, k, tie, pending)

    monkeypatch.setattr(search._ColoringDFS, "run", run)
    rejected = 0
    for n, ts in ((5, (9, 9)), (5, (6, 6, 6)), (5, (7, 6)), (6, (7, 7)), (6, (8, 7))):
        cfg = (n, ts)
        entered.clear()
        leaves = []
        enumerate_colorings(*cfg, visitor=leaves.append)
        walked = list(entered)
        size = len(colex_edges(n))
        parents = {p[:-1] for p in walked if p}
        extended = [p for p in walked if len(p) == size or p in parents]
        accepted = [()]
        for k in range(1, size + 1):
            accepted = [p + (c,) for p in accepted for c in range(1, len(ts) + 1)
                        if search_extends(p + (c,), *cfg)]
            assert [p for p in extended if len(p) == k] == accepted, (n, ts, k)
        assert [tuple(col.color_of(u, v) for u, v in colex_edges(n)) for col in leaves] == accepted
        tested = {m * (m - 1) // 2 for m in range(3, n)}
        for p in walked:
            if len(p) < size and p not in parents:
                rejected += 1
                assert len(p) in tested and not search_extends(p, *cfg), (n, ts, p)
    assert rejected


def test_vertex_check_beyond_eight_vertices():
    # no vertex cap: a K_9 prefix whose one color-2 edge leads is beaten by
    # the relabelling that moves that edge to the last slot
    cfg = (10, (11, 3))
    assert not search_extends([2] + [1] * 35, *cfg)
    assert search_extends([1] * 35 + [2], *cfg)
    # twin vertices keep a monochromatic K_12 from costing 12! relabellings
    assert search_extends([1] * 66, 12, (13, 3))
    out = enumerate_colorings(13, (14, 3))
    assert out.counterexample is not None and out.nodes == 78


def test_progress_hook_reports_rate_material(monkeypatch):
    # a clock that moves a quarter second per reading: the meter reads it
    # once at the start and once per node, and reports at most once a
    # second, so on every fourth node
    monkeypatch.setattr(results, "time", SteppingClock(0.25))
    snaps, leaves = [], []
    with pytest.raises(BudgetExceededError):
        enumerate_colorings(6, (7, 7, 7), leaves.append, node_budget=400,
                            progress=snaps.append)
    assert [s["nodes"] for s in snaps] == list(range(4, 401, 4))
    assert {"nodes", "leaves", "elapsed", "depth_histogram"} <= set(snaps[0])
    assert snaps[0]["elapsed"] == 1.0
    assert 0 < snaps[-1]["leaves"] <= len(leaves)
    assert sum(snaps[-1]["depth_histogram"]) == snaps[-1]["nodes"]


def test_visitor_early_stop():
    seen = []

    def visitor(col):
        seen.append(col)
        return True

    out = enumerate_colorings(3, (3, 3, 3), visitor=visitor)
    assert len(seen) == 1
    assert out.counterexample is not None
