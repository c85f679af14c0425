"""Isomorph-pruned exhaustive enumeration of edge colorings.

The engine answers one question: does some r-coloring of K_n keep every
color-i path-matching below its threshold p_i?  It walks colorings edge by
edge and prunes four ways:

* success pruning: path-matching order is monotone under adding edges, so
  once a color reaches its threshold in a partial coloring every
  completion does too and the subtree is skipped;
* color canonicity: among colors with equal thresholds, a new color may
  only enter in index order (first-use rule), valid at every prefix;
* vertex canonicity: edges are ordered colex, (0,1), (0,2), (1,2),
  (0,3), ..., so after C(m,2) edges the prefix is a full coloring of K_m
  and can be rejected if relabelling the first m vertices (composed with a
  threshold-preserving color permutation) yields a lexicographically
  smaller color sequence.  This is the minimality test of orderly
  generation (Read 1978; McKay, J. Algorithms 26, 1998): the relabelling
  is built one vertex at a time and the color map one color at a time,
  each branch stops at its first slot that differs from the prefix, and
  nothing is tabulated, so the test runs at every boundary m < n, and at
  m = n under canonical_leaves;
* row order: inside row v (the edges (0,v), ..., (v-1,v)), once vertex v
  agrees with vertex v-1 towards 0..u-1, the edge (u,v) may not take a
  color below that of (u,v-1).  A smaller one makes row v sort below row
  v-1, so swapping v-1 and v gives the K_{v+1} prefix a smaller image and
  its boundary test would reject every completion.  The rule applies only
  in rows whose boundary is tested, so it cuts nodes and no leaf.

The lexicographically least member of each equivalence class survives all
four prunes, so at least one representative per class is visited.  The
symmetry options become tables when the search is built (the color
groups, the tested boundaries, the row rule's slots), and
canonical_extension_check replays a prefix through the same tables, so it
accepts exactly the prefixes the search enters, success pruning aside.
Budgets and the progress hook are the cover search's too (SearchMeter in
results).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .coloring import EdgeColoring
from .path_matching import pm_order_of_rows
from .results import DEFAULT_NODE_BUDGET, BudgetExceededError, SearchMeter, check_budgets

SYMMETRY_NONE = "none"
SYMMETRY_COLORS = "colors"
SYMMETRY_FULL = "colors+vertices"

ALL_SUCCEED = "all-succeed"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SearchConfig:
    n: int
    r: int
    thresholds: tuple[int, ...]
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget: Optional[float] = None
    symmetry_level: str = SYMMETRY_FULL
    canonical_leaves: bool = False  # run the vertex check on complete colorings too
    # progress hook: called with {nodes, leaves, elapsed, depth_histogram}
    # at most once a second (see SearchMeter)
    progress: Optional[Callable[[dict], None]] = None

    def __post_init__(self):
        if len(self.thresholds) != self.r:
            raise ValueError("one threshold per color required")
        check_budgets(self.node_budget, self.time_budget)
        if self.symmetry_level not in (SYMMETRY_NONE, SYMMETRY_COLORS, SYMMETRY_FULL):
            raise ValueError(f"unknown symmetry level {self.symmetry_level!r}")


@dataclass
class SearchOutcome:
    status: str
    counterexample: Optional[EdgeColoring] = None
    nodes: int = 0
    leaves: int = 0
    millis: int = 0


def colex_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n ordered so the first C(m,2) form K_m for every m."""
    return [(u, v) for v in range(1, n) for u in range(v)]


@lru_cache(maxsize=None)
def _colex_slots(m: int) -> tuple[tuple[int, ...], ...]:
    """_colex_slots(m)[w][a]: the colex slot of edge {a, w} in K_m."""
    return tuple(tuple(a * (a - 1) // 2 + w if a > w else w * (w - 1) // 2 + a
                       for a in range(m)) for w in range(m))


def _no_smaller_extension(b: int, seq: Sequence[int], m: int,
                          slots: tuple[tuple[int, ...], ...], sigma: list[int],
                          free: list[int], cmap: list[int], mapped: list[int],
                          groups: list[list[int]], group_of: list[int]) -> bool:
    """False iff some choice of sigma(b..m-1), with the color map grown
    along, makes the image smaller than the prefix; sigma(0..b-1) and the
    partial color map give an image equal to it so far."""
    j0 = b * (b - 1) // 2
    first = -1  # the first candidate that ties at this level
    for w in free:
        if w < 0:
            continue  # already an image of sigma(0..b-1)
        row = slots[w]
        trail = []  # colors this candidate mapped
        for u in range(b):
            x = seq[row[sigma[u]]]
            y = cmap[x]
            cur = seq[j0 + u]
            if y < 0:  # unmapped: only the least free color of its group can tie
                g = group_of[x]
                y = groups[g][mapped[g]]
                if y == cur:
                    cmap[x] = y
                    mapped[g] += 1
                    trail.append(x)
            if y != cur:
                if y < cur:
                    return False
                break  # larger: cut the branch
        else:  # equal so far; at b = m - 1 an automorphism
            # a twin of the level's first tie (the same color towards every
            # other vertex) repeats that branch: swapping the two is an
            # automorphism of the prefix that fixes sigma(0..b-1)
            twin = first >= 0
            if twin:
                rt = slots[first]
                for x in range(m):
                    if x != first and x != w and seq[rt[x]] != seq[row[x]]:
                        twin = False
                        break
            else:
                first = w
            if b + 1 < m and not twin:
                sigma[b] = w
                free[w] = -1
                ok = _no_smaller_extension(b + 1, seq, m, slots, sigma, free,
                                           cmap, mapped, groups, group_of)
                free[w] = w
                if not ok:
                    return False
        for x in trail:
            cmap[x] = -1
            mapped[group_of[x]] -= 1
    return True


def _prefix_canonical(seq: Sequence[int], m: int, groups: list[list[int]],
                      group_of: list[int], cmap: list[int]) -> bool:
    """No relabelling of the first m vertices, composed with a
    threshold-preserving color permutation, makes the K_m prefix
    lexicographically smaller.

    The relabelling sigma is built one vertex at a time.  Fixing
    sigma(0..b) fixes the image of every slot below C(b+1, 2), so the new
    slots (0,b), ..., (b-1,b) are compared as soon as sigma(b) is chosen: a
    smaller image refutes canonicity, a larger one cuts the branch.  The
    color map grows the same way: a color first met unmapped goes to the
    least free color of its group, the only image that does not make the
    comparison larger there, and every such partial map extends to a full
    symmetry.  A group's mapped colors are always its first ones, and
    singleton groups are mapped to themselves from the start.  Of twin
    candidates at one level, only the first is followed, so a block of
    interchangeable vertices costs one branch instead of its factorial.
    cmap is that initial color map; the test works on a copy.
    """
    return _no_smaller_extension(0, seq, m, _colex_slots(m), [0] * m, list(range(m)),
                                 cmap[:], [0] * len(groups), groups, group_of)


class _ColoringDFS(SearchMeter):
    def __init__(self, config: SearchConfig,
                 visitor: Optional[Callable[[EdgeColoring], Optional[bool]]]):
        n, r = config.n, config.r
        self.edges = colex_edges(n)
        self.E = len(self.edges)
        super().__init__("coloring search", self.E + 1, config.node_budget,
                         config.time_budget, config.progress)
        self.cfg = config
        self.visitor = visitor
        # run reads no option: at level "none" every color is its own
        # group, so the first-use order never cuts; below "colors+vertices"
        # no boundary is tested, so the row rule holds nowhere
        level = config.symmetry_level
        by_key: dict[int, list[int]] = {}
        for c, p in enumerate(config.thresholds):
            by_key.setdefault(c if level == SYMMETRY_NONE else p, []).append(c)
        self.groups = list(by_key.values())  # ascending colors
        self.group_of = [0] * r
        self.rank_in_group = [0] * r
        for gi, g in enumerate(self.groups):
            for rank, c in enumerate(g):
                self.group_of[c] = gi
                self.rank_in_group[c] = rank
        self.cmap = [c if len(self.groups[g]) == 1 else -1
                     for c, g in enumerate(self.group_of)]
        # the K_m boundaries the search tests: m < n, and m = n under canonical_leaves
        top = n + 1 if config.canonical_leaves else n
        self.boundaries = ({m * (m - 1) // 2: m for m in range(3, top)}
                           if level == SYMMETRY_FULL else {})
        # above[k]: the slot of (u, v-1) if the row rule holds at slot
        # k = (u, v), else -1; it holds for u < v-1 in a row whose K_{v+1}
        # boundary is tested
        self.above = [k - (v - 1) if u < v - 1 and v * (v + 1) // 2 in self.boundaries
                      else -1 for k, (u, v) in enumerate(self.edges)]
        self.seq = [0] * self.E
        self.rows = [[0] * n for _ in range(r)]
        self.used_in_group = [0] * len(self.groups)
        self.counterexample: Optional[EdgeColoring] = None

    def _materialize(self) -> EdgeColoring:
        n = self.cfg.n
        flat = [0] * self.E
        for k, (u, v) in enumerate(self.edges):
            flat[u * n - u * (u + 1) // 2 + (v - u - 1)] = self.seq[k] + 1
        return EdgeColoring(n, self.cfg.r, tuple(flat))

    def _leaf(self) -> bool:
        """Handle a complete coloring; True means stop the whole search."""
        self.leaves += 1
        col = self._materialize()
        if self.counterexample is None:
            self.counterexample = col
        if self.visitor is not None:
            return bool(self.visitor(col))
        return True

    def run(self, k: int = 0, tie: bool = True) -> bool:
        """DFS from edge slot k; True aborts the search (stop requested).

        tie: the row of slot k agrees with the row before it so far."""
        if k == self.E:
            return self._leaf()
        cfg = self.cfg
        u, v = self.edges[k]
        ub, vb = 1 << u, 1 << v
        boundary_m = self.boundaries.get(k + 1)
        above = self.above[k]
        lo = self.seq[above] if tie and above >= 0 else 0  # row rule
        for c in range(lo, cfg.r):
            g = self.group_of[c]
            if self.rank_in_group[c] > self.used_in_group[g]:
                continue  # first-use order within each equal-threshold group
            self._tick(k)
            rows_c = self.rows[c]
            rows_c[u] |= vb
            rows_c[v] |= ub
            self.seq[k] = c
            ok = pm_order_of_rows(rows_c, cfg.n) < cfg.thresholds[c]
            if ok and boundary_m is not None:
                ok = _prefix_canonical(self.seq, boundary_m, self.groups,
                                       self.group_of, self.cmap)
            if ok:
                bumped = self.rank_in_group[c] == self.used_in_group[g]
                if bumped:
                    self.used_in_group[g] += 1
                if self.run(k + 1, above < 0 or (tie and c == lo)):
                    return True
                if bumped:
                    self.used_in_group[g] -= 1
            rows_c[u] &= ~vb
            rows_c[v] &= ~ub
        return False


def enumerate_colorings(config: SearchConfig,
                        visitor: Optional[Callable[[EdgeColoring], Optional[bool]]] = None,
                        ) -> SearchOutcome:
    """Visit the surviving complete colorings of K_n.

    Every coloring class in which no color ever reaches its threshold has
    at least one representative visited; classes that reach a threshold
    are pruned as successes.  Without a visitor the search stops at the
    first surviving coloring (a counterexample to the Ramsey property at
    n).  A visitor may return True to stop early.
    """
    started = time.monotonic()
    if config.n < 2:
        raise ValueError("need n >= 2")
    dfs = _ColoringDFS(config, visitor)
    try:
        dfs.run(0)
    except BudgetExceededError:
        status, cex = BUDGET_EXHAUSTED, None
    else:
        cex = dfs.counterexample
        status = ALL_SUCCEED if cex is None else COUNTEREXAMPLE
    return SearchOutcome(status, cex, dfs.nodes, dfs.leaves,
                         int((time.monotonic() - started) * 1000))


def canonical_extension_check(prefix_colors: Sequence[int], config: SearchConfig) -> bool:
    """True iff the search, success pruning aside, enters this prefix
    (colors of the first k colex edges, 1-indexed colors).

    The prefix is replayed slot by slot through the search's own tables:
    the row rule's least color, the first-use order, and the minimality
    test at every tested K_m boundary that the prefix completes.
    """
    seq = [c - 1 for c in prefix_colors]
    if any(not 0 <= c < config.r for c in seq):
        raise ValueError("colors out of range")
    dfs = _ColoringDFS(config, None)
    if len(seq) > dfs.E:
        raise ValueError(f"prefix longer than the {dfs.E} edges of K_{config.n}")
    used = dfs.used_in_group
    tie = True
    for k, c in enumerate(seq):
        above = dfs.above[k]
        lo = seq[above] if tie and above >= 0 else 0  # row rule
        g = dfs.group_of[c]
        if c < lo or dfs.rank_in_group[c] > used[g]:
            return False
        if dfs.rank_in_group[c] == used[g]:
            used[g] += 1
        m = dfs.boundaries.get(k + 1)
        if m is not None and not _prefix_canonical(seq, m, dfs.groups, dfs.group_of,
                                                   dfs.cmap):
            return False
        tie = above < 0 or (tie and c == lo)
    return True
