import random
from itertools import combinations, permutations

import pytest

from ramsey_pm.core_ramsey import cover_feasible
from ramsey_pm.graphs import SimpleGraph, mask_of


def random_graph(n: int, rng: random.Random, p: float = 0.5) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    """Graph on n labelled vertices from a bitmask over the C(n,2) edges
    in lexicographic (u, v) order."""
    rows = [0] * n
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return SimpleGraph(n, tuple(rows))


def subset_deficiency(g: SimpleGraph) -> tuple[int, int, int]:
    """(pd, lv_set, isolated_witness) by enumerating every X directly.

    pd(G) = max over X of i(G - X) - 2|X|; ties go to the least X of
    minimum size, in lexicographic order of its sorted vertices.  Only
    |X| < n/3 can beat the empty set, and size k is skipped once n - 3k
    cannot beat the incumbent.  Exponential; for testing only.
    """
    n = g.n
    best = None
    for k in range((n + 2) // 3):
        if best is not None and n - 3 * k <= best[0]:
            break
        for xs in combinations(range(n), k):
            xm = mask_of(xs)
            wit = mask_of(v for v in range(n)
                          if not xm >> v & 1 and g.rows[v] & ~xm == 0)
            val = wit.bit_count() - 2 * k
            if best is None or val > best[0]:
                best = (val, xm, wit)
    return best


def scan_core_value(targets) -> int:
    """Exact 1-core value by the upward scan: the first n from p1 on at
    which K_n has no cover by blocks of sizes p_i - 1.  For testing only."""
    ts = tuple(sorted(targets, reverse=True))
    if ts[0] <= 2:
        return 2
    caps = tuple(p - 1 for p in ts)
    n = ts[0]
    while cover_feasible(n, caps) is not None:
        n += 1
    return n


def least_image(prefix, thresholds) -> tuple[int, ...]:
    """The least color sequence that a complete K_m prefix (1-indexed
    colors of the colex edges (0,1), (0,2), (1,2), (0,3), ...) takes under
    all m! relabellings of its vertices times all color permutations that
    keep every threshold.  Exponential; for testing only."""
    k, m = len(prefix), 1
    while m * (m - 1) // 2 < k:
        m += 1
    if m * (m - 1) // 2 != k:
        raise ValueError("the prefix is not a complete K_m")
    pairs = [(u, v) for v in range(1, m) for u in range(v)]
    slot = {pair: j for j, pair in enumerate(pairs)}
    r = len(thresholds)
    cmaps = [cm for cm in permutations(range(1, r + 1))
             if all(thresholds[cm[c] - 1] == thresholds[c] for c in range(r))]
    best = tuple(prefix)
    for perm in permutations(range(m)):
        moved = [prefix[slot[min(perm[u], perm[v]), max(perm[u], perm[v])]]
                 for u, v in pairs]
        for cm in cmaps:
            best = min(best, tuple(cm[c - 1] for c in moved))
    return best


def brute_force_canonical(prefix, thresholds) -> bool:
    """True iff no symmetry of the complete K_m prefix makes it smaller."""
    return least_image(prefix, thresholds) == tuple(prefix)


@pytest.fixture(autouse=True)
def private_cache(monkeypatch, tmp_path):
    """Point the default result cache at a per-test file, so no test
    writes the user's cache."""
    monkeypatch.setenv("RAMSEY_PM_CACHE", str(tmp_path / "cache.json"))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
