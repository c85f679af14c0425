import random
from itertools import (chain, combinations, combinations_with_replacement, groupby,
                       permutations, product)
from typing import Sequence

import pytest

from ramsey_pm import results
from ramsey_pm.bounds import ceil_div, ceil_third, core_upper, sorted_targets, standard_formula
from ramsey_pm.coloring import EdgeColoring, mono_pm_profile
from ramsey_pm.core_ramsey import BlockCover, cover_feasible_with_stats
from ramsey_pm.graphs import SimpleGraph, mask_of
from ramsey_pm.path_matching import packing_oracle, pendant_gains, pm_order_of_rows
from ramsey_pm.results import BudgetExceededError
from ramsey_pm.search import _ColoringDFS


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


def pendant_gains_by_matching(rows: tuple[int, ...]) -> tuple[int, int]:
    """pendant_gains with one whole maximum matching per vertex x: the
    graph with a new vertex and the edge from x to it, against the graph
    itself.  For testing only."""
    n = len(rows)
    base = pm_order_of_rows(rows, n)
    one = two = 0
    for x in range(n):
        ext = rows[:x] + (rows[x] | 1 << n,) + rows[x + 1:] + (1 << x,)
        gain = pm_order_of_rows(ext, n + 1) - base
        if gain:
            one |= 1 << x
            if gain == 2:
                two |= 1 << x
    return one, two


def scan_core_value(targets) -> int:
    """Exact 1-core value by the upward scan: the first n from p1 on at
    which K_n has no cover by blocks of sizes p_i - 1.  For testing only."""
    ts = tuple(sorted(targets, reverse=True))
    if ts[0] <= 2:
        return 2
    caps = tuple(p - 1 for p in ts)
    n = ts[0]
    while cover_feasible_with_stats(n, caps)[0] is not None:
        n += 1
    return n


def f_d(p, d: int, core_oracle) -> int:
    """max over the integer grid 0 <= x_i < p_i/d of
    core_oracle(p - d*x, re-sorted) + sum(x).

    Evaluates every grid point; the product route uses the bound-pruned
    pm_ramsey._f3_maximise, and this full scan is its reference.  For
    testing only.
    """
    if d < 1:
        raise ValueError("positive shift required")
    targets = tuple(p)
    # x_i < p_i / d for integers means x_i <= ceil(p_i/d) - 1
    grid = product(*(range(ceil_div(pi, d)) for pi in targets))
    return max(core_oracle(tuple(sorted((pi - d * xi for pi, xi in zip(targets, xs)),
                                        reverse=True))) + sum(xs)
               for xs in grid)


def ranked_f3_maximise(ts: tuple[int, ...], core_oracle) -> tuple[int, tuple[int, ...]]:
    """(value, first maximising xs) of the f^3 grid of the sorted ts, by
    the whole-grid ranking that the pruned walk of pm_ramsey._f3_maximise
    replaced: every distinct shifted multiset, keyed to the first xs that
    gives it, is ranked by (1-core bound + sum x) descending, then larger
    sum x, and core_oracle(shifted) is asked in that order while the bound
    can beat the best value so far.  For testing only.
    """
    per_run = []
    for p, run in groupby(ts):
        k = len(list(run))
        per_run.append([(tuple(p - 3 * x for x in xs), xs)
                        for xs in combinations_with_replacement(range(ceil_third(p)), k)])
    points: dict[tuple[int, ...], tuple[int, ...]] = {}
    for choice in product(*per_run):
        shifted = tuple(sorted(chain.from_iterable(s for s, _ in choice), reverse=True))
        points.setdefault(shifted, tuple(chain.from_iterable(xs for _, xs in choice)))
    ranked = sorted(((core_upper(shifted) + sum(xs), sum(xs), shifted, xs)
                     for shifted, xs in points.items()),
                    key=lambda point: (-point[0], -point[1]))
    best = (0, ())
    for bound, shift, shifted, xs in ranked:
        if bound <= best[0]:
            break
        value = core_oracle(shifted) + shift
        if value > best[0]:
            best = value, xs
    return best


def techfact_holds(a: Sequence[int]) -> tuple[bool, bool, bool]:
    """Truth of the three arithmetic facts behind the main upper bounds,
    for a1 >= ... >= ar >= 2 with r >= 3 and a1 >= 3.

    (i)   ceil(2a1/3 - r/3 + sum ai/3) >= ceil((a1+a2+a3)/2) - 1
    (ii)  standard >= ceil(a1/3 - r/3 + sum ai/3)
              iff  a1 >= 2r - 3 - sum_{i>=2} 3(ceil(ai/3) - ai/3)
    (iii) standard >= ceil((a1+a2+a3)/2) - 1 + sum_{i>=4}(ceil(ai/3) - 1)
              iff  a1 >= 2 + (a2 - 2 ceil(a2/3)) + (a3 - 2 ceil(a3/3))

    For (ii) and (iii) the returned booleans state whether the claimed
    equivalence holds (both directions), each side evaluated exactly.  The
    paper's lemma; no product route needs it.  For testing only.
    """
    t = sorted_targets(a)
    r = len(t)
    if r < 3 or t[0] < 3 or t[-1] < 2:
        raise ValueError("need r >= 3, a1 >= 3 and entries >= 2")
    standard = standard_formula(t)
    half_term = ceil_div(t[0] + t[1] + t[2], 2) - 1
    third_term = ceil_div(t[0] - r + sum(t), 3)

    item_i = ceil_div(2 * t[0] - r + sum(t), 3) >= half_term

    left_ii = standard >= third_term
    right_ii = 3 * t[0] >= 3 * (2 * r - 3) - sum(9 * ceil_third(ai) - 3 * ai for ai in t[1:])
    item_ii = left_ii == right_ii

    left_iii = standard >= half_term + sum(ceil_third(ai) - 1 for ai in t[3:])
    right_iii = t[0] >= 2 + (t[1] - 2 * ceil_third(t[1])) + (t[2] - 2 * ceil_third(t[2]))
    item_iii = left_iii == right_iii

    return item_i, item_ii, item_iii


class _SubsetCoverSearch:
    """The cover search with its candidate sets found by walking every
    subset of the roomy blocks and filtering each one, and with every child
    entered before its dead-end tests run.  For testing only."""

    def __init__(self, n, caps, node_budget):
        self.n = n
        self.caps = list(caps)  # sorted descending
        self.B = len(caps)
        self.node_budget = node_budget
        self.nodes = 0
        self.members = [0] * self.B
        self.blocks = [0] * self.B
        self.sets = []
        self.distinct = []
        best = sorted((c - 1 for c in self.caps), reverse=True)
        need, self.min_sets = n - 1, 0
        for c in best:
            if need <= 0:
                break
            need -= c
            self.min_sets += 1
        if need > 0:
            self.min_sets = self.B + 1

    def candidates(self, v):
        caps, members, B = self.caps, self.members, self.B
        roomy = 0
        for b in range(B):
            if members[b] < caps[b]:
                roomy |= 1 << b
        classes = {}
        for b in range(B):
            classes.setdefault((caps[b], self.blocks[b]), []).append(b)
        twin_runs = [run for run in classes.values() if len(run) > 1]
        after = self.n - v - 1
        floor_key = (self.sets[-1].bit_count(), self.sets[-1]) if self.sets else (0, 0)
        out = []
        sub = roomy
        while sub:
            if (sub.bit_count(), sub) >= floor_key and self._set_ok(sub, twin_runs, after):
                out.append(sub)
            sub = (sub - 1) & roomy
        out.sort(key=lambda s: (s.bit_count(), s))
        return out

    def _set_ok(self, s, twin_runs, after):
        if any(not other & s for other in self.distinct):
            return False
        union = future_room = 0
        for b in range(self.B):
            if s >> b & 1:
                union |= self.blocks[b]
                future_room += self.caps[b] - self.members[b] - 1
        if future_room < after or union.bit_count() + future_room < self.n - 1:
            return False
        for run in twin_runs:
            used = [s >> b & 1 for b in run]
            if used != sorted(used, reverse=True):
                return False
        return True

    def run(self, v):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError("oracle cover search exceeded its budget", self.nodes)
        n, B, caps, members = self.n, self.B, self.caps, self.members
        if v == n:
            return list(self.blocks)
        remaining = n - v
        slacks = [caps[b] - members[b] for b in range(B)]
        floor_size = self.min_sets
        if self.sets:
            floor_size = max(floor_size, self.sets[-1].bit_count())
        if sum(slacks) < remaining * floor_size:
            return None
        future_pairs = sum(caps[b] * (caps[b] - 1) // 2 -
                           members[b] * (members[b] - 1) // 2 for b in range(B))
        if future_pairs < v * remaining + remaining * (remaining - 1) // 2:
            return None
        for s in self.distinct:
            if sum(slacks[b] for b in range(B) if s >> b & 1) < remaining:
                return None
        for s in self.candidates(v):
            for b in range(B):
                if s >> b & 1:
                    members[b] += 1
                    self.blocks[b] |= 1 << v
            self.sets.append(s)
            fresh = not self.distinct or self.distinct[-1] != s
            if fresh:
                self.distinct.append(s)
            found = self.run(v + 1)
            if fresh:
                self.distinct.pop()
            self.sets.pop()
            for b in range(B):
                if s >> b & 1:
                    members[b] -= 1
                    self.blocks[b] &= ~(1 << v)
            if found is not None:
                return found
        return None


def subset_cover_search(n, capacities, node_budget=10**8, **ignored):
    """(cover or None, nodes) by the subset-walking cover search, with the
    same capacity order, pre-checks and returned cover as
    cover_feasible_with_stats, whose other options it accepts and ignores.
    Exponential in the number of blocks; for testing only."""
    caps_all = list(capacities)
    order = sorted((i for i, c in enumerate(caps_all) if c >= 2),
                   key=lambda i: (-caps_all[i], i))
    caps = [min(caps_all[i], n) for i in order]
    if not caps or sum(c * (c - 1) // 2 for c in caps) < n * (n - 1) // 2 \
            or sum(caps) < n * ceil_div(n - 1, caps[0] - 1):
        return None, 0
    if n <= caps[0]:
        found, nodes = [(1 << n) - 1] + [0] * (len(caps) - 1), 0
    else:
        search = _SubsetCoverSearch(n, caps, node_budget)
        found, nodes = search.run(0), search.nodes
    if found is None:
        return None, nodes
    blocks_all = [0] * len(caps_all)
    for slot, orig in enumerate(order):
        blocks_all[orig] = found[slot]
    return BlockCover(n, tuple(caps_all), tuple(blocks_all)), nodes


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


def search_extends(prefix, n, thresholds) -> bool:
    """True iff the coloring search extends this prefix (1-indexed colors
    of the first colex edges of K_n): recurses past it, or visits it as a
    leaf.  Each threshold is lifted to 2n plus its rank among the distinct
    thresholds, so equal ones stay equal and the color groups are the same,
    while no color of K_n comes near one, so success pruning and the
    look-aheads never cut.  The search itself runs; only its entry is
    watched.  For testing only."""
    seq = [c - 1 for c in prefix]
    ranks = sorted(set(thresholds))

    class Following(_ColoringDFS):
        def run(self, k=0, tie=True, pending=0):
            if 0 < k <= len(seq):
                u, v = self.edges[k - 1]  # the slots below k - 1 matched at the parent
                if self.col[u][v] != seq[k - 1]:
                    return False
            if k > len(seq) or k == self.E:
                return True
            return super().run(k, tie, pending)

    return Following(n, [2 * n + ranks.index(p) for p in thresholds], None).run()


def colored_edges(dfs: _ColoringDFS) -> tuple[tuple[tuple[int, int], int], ...]:
    """The edges that the search's prefix has colored, as ((u, v), color)
    with u < v and 1-indexed colors, read from its color rows."""
    n = dfs.n
    return tuple(((u, v), c + 1) for c, rows in enumerate(dfs.rows)
                 for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1)


def every_completion_succeeds(n, thresholds, colored) -> bool:
    """True iff every coloring of K_n that gives the edges of colored
    (((u, v), color) pairs) their colors has a color class whose order,
    by mono_pm_profile, reaches its threshold.  Brute force over all
    r^(uncolored edges) completions; for testing only."""
    r = len(thresholds)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    given = dict(colored)
    free = [e for e in pairs if e not in given]
    for combo in product(range(1, r + 1), repeat=len(free)):
        given.update(zip(free, combo))
        profile = mono_pm_profile(EdgeColoring(n, r, tuple(given[e] for e in pairs)))
        if all(o < p for o, p in zip(profile, thresholds)):
            return False
    return True


def dead_vertex(dfs: _ColoringDFS, v: int) -> bool:
    """The dead-vertex look-ahead that the bare-edge one replaced, asked
    where the search asked it: in the last row but one, with every color
    within 2 of its threshold, some x <= v reaches every threshold through
    its edge to the one bare vertex v+1 (pendant_gains), so that edge
    succeeds in whatever color it takes.  For testing only."""
    if v + 2 != dfs.n or any(p - o > 2 for p, o in zip(dfs.ts, dfs.order)):
        return False
    mask = (1 << v + 1) - 1
    for c, rows in enumerate(dfs.rows):
        mask &= pendant_gains(tuple(rows))[dfs.ts[c] - dfs.order[c] - 1]
    return mask != 0


def first_use_ok(seq, thresholds) -> bool:
    """True iff every color of seq (1-indexed) first appears after every
    lower color of equal threshold has appeared."""
    seen = set()
    for c in seq:
        if any(thresholds[d - 1] == thresholds[c - 1] and d not in seen for d in range(1, c)):
            return False
        seen.add(c)
    return True


def plain_counterexample(n, thresholds):
    """The lexicographically least coloring of K_n (1-indexed colors of the
    colex edges (0,1), (0,2), (1,2), (0,3), ...) in which every color class
    has path-matching order below its threshold, or None.  A plain DFS over
    the slots whose only prune is a color class reaching its threshold,
    measured by packing_oracle; no symmetry is used.  For testing only."""
    r = len(thresholds)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    rows = [[0] * n for _ in range(r)]
    seq = []

    def extend():
        if len(seq) == len(pairs):
            return tuple(seq)
        u, v = pairs[len(seq)]
        for c in range(r):
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
            if packing_oracle(SimpleGraph(n, tuple(rows[c]))) < thresholds[c]:
                seq.append(c + 1)
                found = extend()
                seq.pop()
                if found is not None:
                    return found
            rows[c][u] &= ~(1 << v)
            rows[c][v] &= ~(1 << u)
        return None

    return extend()


def oracle_leaves(n, thresholds) -> list[tuple[int, ...]]:
    """Every coloring of K_n (1-indexed colors of the colex edges (0,1),
    (0,2), (1,2), (0,3), ...) that the search must visit, in lexicographic
    order: every color class has path-matching order below its threshold,
    the colors of each equal-threshold group first appear in index order,
    and every K_m prefix with 3 <= m < n is the least member of its class.
    Built slot by slot; a prefix is dropped as soon as it breaks a
    condition that every completion keeps breaking.  Exponential; for
    testing only."""
    r = len(thresholds)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    boundary = {m * (m - 1) // 2: m for m in range(3, n)}
    out = []

    def below_thresholds(seq, m):
        for c in range(1, r + 1):
            g = SimpleGraph.from_edges(m, [pairs[j] for j, x in enumerate(seq) if x == c])
            if packing_oracle(g) >= thresholds[c - 1]:
                return False
        return True

    def extend(seq):
        k = len(seq)
        if (k in boundary or k == len(pairs)) and not below_thresholds(seq, pairs[k - 1][1] + 1):
            return
        if k in boundary and not brute_force_canonical(seq, thresholds):
            return
        if k == len(pairs):
            out.append(tuple(seq))
            return
        for c in range(1, r + 1):
            if first_use_ok(seq + [c], thresholds):
                extend(seq + [c])

    extend([])
    return out


class SteppingClock:
    """Stands in for the time module: every monotonic() reading is step
    seconds (an hour by default) after the one before."""

    def __init__(self, step: float = 3600.0):
        self.now = 0.0
        self.step = step

    def monotonic(self) -> float:
        self.now += self.step
        return self.now


# The complete searches share one budget contract.  Each check below takes a
# search as run(**budgets) -> (verdict, nodes) on an instance that needs more
# than one node and fewer than 1,024, and each engine's tests call it.

def check_node_budget_boundary(run):
    """A budget of exactly the nodes a search needs suffices; one less does
    not, and the error counts the node that broke the budget."""
    verdict, nodes = run()
    assert 1 < nodes < 1024
    assert run(node_budget=nodes) == (verdict, nodes)
    with pytest.raises(BudgetExceededError) as err:
        run(node_budget=nodes - 1)
    assert err.value.nodes == nodes


def check_non_positive_budgets_rejected(run):
    for bad in (dict(node_budget=0), dict(node_budget=-5),
                dict(time_budget=0), dict(time_budget=-1.0),
                dict(time_budget=float("nan"))):
        with pytest.raises(ValueError):
            run(**bad)


def check_time_budget_read_on_every_node(run, monkeypatch):
    """Each reading of the stepping clock is an hour after the one before,
    and the search needs fewer than 1,024 nodes, so a meter that read the
    clock only every so many nodes would finish within 60 s."""
    verdict, nodes = run(time_budget=60.0)
    assert (verdict, nodes) == run() and nodes < 1024
    monkeypatch.setattr(results, "time", SteppingClock())
    with pytest.raises(BudgetExceededError, match="time budget"):
        run(time_budget=60.0)


@pytest.fixture(autouse=True)
def private_cache(monkeypatch, tmp_path):
    """Point the default result cache at a per-test file, so no test
    writes the user's cache."""
    monkeypatch.setenv("RAMSEY_PM_CACHE", str(tmp_path / "cache.json"))


@pytest.fixture
def rng():
    return random.Random(0x5EED)
