import random

import pytest

from ramsey_pm.graphs import SimpleGraph, complete_graph
from ramsey_pm.path_matching import deficiency, max_pm_order, packing_oracle, pendant_gains

from conftest import graph_from_mask, pendant_gains_by_matching, random_graph, subset_deficiency


def star(leaves: int) -> SimpleGraph:
    return SimpleGraph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def test_deficiency_examples():
    assert deficiency(SimpleGraph.empty(5))[0] == 5
    assert deficiency(complete_graph(3))[0] == 0
    assert deficiency(star(4))[0] == 2  # packing covers 3 of 5 vertices


def test_max_pm_order_examples():
    assert max_pm_order(complete_graph(3)) == 3
    assert max_pm_order(star(4)) == 3
    assert max_pm_order(SimpleGraph.empty(7)) == 0


def test_has_perfect_pm_examples():
    assert max_pm_order(complete_graph(3)) == 3
    assert max_pm_order(complete_graph(2)) == 2
    with_isolated = SimpleGraph.from_edges(3, [(0, 1)])
    assert max_pm_order(with_isolated) != 3


def test_packing_oracle_examples():
    assert packing_oracle(complete_graph(3)) == 3
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert packing_oracle(p4) == 4
    assert packing_oracle(star(4)) == 3


def test_packing_oracle_too_large():
    with pytest.raises(ValueError):
        packing_oracle(SimpleGraph.empty(11))


def test_deficiency_beyond_24_vertices():
    assert deficiency(SimpleGraph.empty(25))[0] == 25
    g = random_graph(64, random.Random(15), p=0.03)
    pd, cert = deficiency(g)
    cert.check(g)
    assert cert.deficiency == pd


def test_deficiency_matches_subset_oracle_random():
    # G(n,p) rarely needs a non-empty LV set; leaves hanging off up to
    # three hubs of a random core usually do
    rng = random.Random(16)
    for i in range(400):
        n = rng.randint(6, 14)
        if i % 2:
            g = random_graph(n, rng, p=rng.random() * 0.5)
        else:
            h = rng.randint(1, n - 1)
            edges = [(u, v) for u in range(h) for v in range(u + 1, h) if rng.random() < 0.4]
            edges += [(rng.randrange(min(h, 3)), v) for v in range(h, n) if rng.random() < 0.9]
            g = SimpleGraph.from_edges(n, edges)
        pd, cert = deficiency(g)
        assert (pd, cert.lv_set, cert.isolated_witness) == subset_deficiency(g), g.edges()


def test_oracle_equivalence_exhaustive_small():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            assert max_pm_order(g) == packing_oracle(g), g.edges()
            pd, cert = deficiency(g)
            assert (pd, cert.lv_set, cert.isolated_witness) == subset_deficiency(g), g.edges()


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(7, 10)
        g = random_graph(n, rng, p=rng.random())
        assert max_pm_order(g) == packing_oracle(g), g.edges()


def test_deficiency_bounds_and_perfect_pm_relation():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(n, rng, p=rng.random())
        pd, _ = deficiency(g)
        assert 0 <= pd <= n
        assert (pd == 0) == (max_pm_order(g) == g.n)


def test_monotone_under_edge_addition():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_graph(n, rng, p=0.4)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert max_pm_order(g.with_edge(u, v)) >= max_pm_order(g)


def test_one_edge_raises_the_order_by_at_most_two():
    # a max path-matching of G + e minus e loses at most the two ends of e
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_graph(n, rng, p=rng.random())
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        assert packing_oracle(g.with_edge(u, v)) - packing_oracle(g) <= 2, (g.rows, u, v)


def test_pendant_gains_match_packing_oracle():
    # bit x of the masks against the oracle's gain from an edge (x, new)
    rng = random.Random(16)
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(n, rng, p=rng.random())
        base = packing_oracle(g)
        wide = SimpleGraph(n + 1, g.rows + (0,))
        one, two = pendant_gains(g.rows)
        for x in range(n):
            gain = packing_oracle(wide.with_edge(x, n)) - base
            assert (one >> x & 1, two >> x & 1) == (gain >= 1, gain >= 2), (g.rows, x, gain)
            seen.add(gain)
    assert seen == {0, 1, 2}


def test_pendant_gains_match_whole_matchings():
    # the gains found from one base matching against one whole matching per
    # vertex, on seeded random graphs of up to 16 vertices and all densities
    rng = random.Random(17)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 16)
        g = random_graph(n, rng, p=rng.random() ** 2)
        one, two = pendant_gains(g.rows)
        assert (one, two) == pendant_gains_by_matching(g.rows), g.rows
        seen.update((one >> x & 1) + (two >> x & 1) for x in range(n))
    assert seen == {0, 1, 2}


def test_certificate_soundness():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(n, rng, p=rng.random())
        pd, cert = deficiency(g)
        cert.check(g)
        assert cert.deficiency == pd


def test_certificate_deterministic_tiebreak():
    # two leaves hanging off both endpoints of an edge: X = {0} and X = {1}
    # both optimal; the lexicographically least LV set must be returned
    g = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    pd, cert = deficiency(g)
    pd2, cert2 = deficiency(g)
    assert (pd, cert) == (pd2, cert2)
    assert cert.lv_set.bit_count() <= 1


def test_star_certificate_is_center():
    pd, cert = deficiency(star(4))
    assert pd == 2
    assert cert.lv_set == 0b00001
    assert cert.isolated_witness == 0b11110
