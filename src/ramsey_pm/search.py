"""Isomorph-pruned exhaustive enumeration of edge colorings.

The engine answers one question: does some r-coloring of K_n keep every
color-i path-matching below its threshold p_i?  It walks colorings edge by
edge, keeps them in an n x n color matrix, and prunes seven ways:

* success pruning: path-matching order is monotone under adding edges, so
  once a color reaches its threshold in a partial coloring every
  completion does too and the subtree is skipped.  A saturated color is
  skipped before it costs a node: one with p_c <= 2, or with p_c = 3 and
  an edge already, reaches p_c with any further edge (an edge has order
  2; a second one makes a P3 or two disjoint edges);
* future-clique look-ahead: at slot (u,v) the f = n-1-v vertices after v
  have no edge yet, and every completion colors the K_f among them.  In
  color c those edges form a graph H_c on vertices that the prefix's G_c
  leaves isolated, so the two are disjoint, the order of G_c + H_c is
  order_c plus that of H_c, and by monotonicity color c succeeds once H_c
  has order q_c = p_c - order_c.  So the child is cut as a success when
  every coloring of K_f lifts some color c by q_c: a smaller instance of
  the same question.  Colors with q_c <= 2 succeed on any edge of K_f; of
  the others, K_f in the one with the largest q_1 alone stays below it iff
  f < q_1, one such color alone is forced iff f >= q_1, and otherwise a
  sub-search of this engine on K_f with thresholds q decides, its nodes
  charged to this search's meter and its verdicts kept per search.  The
  cut is justified by the sub-search's own proof tree on K_f;
* bare-edge look-ahead (forward checking, Haralick and Elliott 1980,
  taken from one edge to all edges that must take a far color): a color
  c is near when q_c <= 2 and far otherwise.  Let Z be the x <= v that
  every far color leaves isolated and from which a pendant edge lifts
  every near color c by q_c (pendant_gains; one edge adds at most 2).
  Every completion colors the K_f on the bare vertices and every edge
  between Z and them, C(f,2) + f|Z| edges, and each finishes a near
  color, so each must take a far one.  There they touch only vertices
  that the color leaves isolated, so their order adds to order_c, as
  above: a color with q_c = 3 holds one of them, one with q_c = 4 only
  pairwise-intersecting ones, a star or a triangle.  The child is cut as
  a success when the edges outnumber those capacities; a far q_c >= 5
  stops the rule.  With no far color and f = 1 it cuts when some x <= v
  reaches every threshold through its edge to the last vertex;
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
  nothing is tabulated, so any K_m with 3 <= m < n can be tested.  The
  test of a K_m prefix waits for the first color at slot (0, m) that
  survives the other prunes, so a prefix with no surviving child is never
  tested;
* row order: inside row v (the edges (0,v), ..., (v-1,v)), once vertex v
  agrees with vertex v-1 towards 0..u-1, the edge (u,v) may not take a
  color below that of (u,v-1).  A smaller one makes row v sort below row
  v-1, so swapping v-1 and v gives the K_{v+1} prefix a smaller image and
  its boundary test would reject every completion;
* twin order: vertices a < b < v are twins in K_v when they have the same
  color towards every other vertex of K_v.  Swapping them fixes the K_v
  prefix and trades (a,v) with (b,v) in row v, so (b,v) may not take a
  color below that of (a,v), where a is the largest twin of b below it.

The row and twin rules apply only in rows whose K_{v+1} boundary is
tested, so they cut nodes and no leaf; success pruning and the two
look-aheads cut only subtrees in which every completion reaches a
threshold, so they cut no leaf either.  The lexicographically least member
of each equivalence class survives all seven prunes, so at least one
representative per class is visited.  The minimality test reads the color
matrix, whose row b up to column b is the prefix's row b, and records the
twins of each K_m it tests, which its own search and row m then use.

Both complete searches, this one and the cover search
(core_ramsey.cover_feasible_with_stats), keep one contract: plain
arguments, with the keywords node_budget, time_budget and progress and
the same defaults; input checks up front, which raise ValueError; budgets
and progress reports by SearchMeter (results); and running out of either
budget raises BudgetExceededError instead of returning a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .coloring import EdgeColoring
from .path_matching import pendant_gains, pm_order_of_rows
from .results import DEFAULT_NODE_BUDGET, SearchMeter, check_budgets


@dataclass
class SearchOutcome:
    counterexample: Optional[EdgeColoring]
    nodes: int
    leaves: int


def colex_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n ordered so the first C(m,2) form K_m for every m."""
    return [(u, v) for v in range(1, n) for u in range(v)]


def _twin_below(col: list[list[int]], m: int, prev: list[int]) -> list[int]:
    """For each vertex b of K_m, the largest a < b that is b's twin (the
    same color towards every other vertex of K_m), or -1; prev is that list
    for K_{m-1}.

    Twins in K_m below m-1 are twins in K_{m-1} with one color towards
    m-1, so b's twin is found along its chain prev[b], prev[prev[b]], ...
    """
    last = col[m - 1]
    out = [-1] * m
    for b in range(1, m - 1):
        a = prev[b]
        while a >= 0 and last[a] != last[b]:
            a = prev[a]
        out[b] = a
    for a in range(m - 2, -1, -1):
        ra = col[a]
        if ra[:a] == last[:a] and ra[a + 1:m - 1] == last[a + 1:m - 1]:
            out[m - 1] = a
            break
    return out


def _no_smaller_extension(b: int, col: list[list[int]], m: int, twins: list[int],
                          sigma: list[int], free: list[int], cmap: list[int],
                          mapped: list[int], groups: list[list[int]],
                          group_of: list[int]) -> bool:
    """False iff some choice of sigma(b..m-1), with the color map grown
    along, makes the image smaller than the prefix; sigma(0..b-1) and the
    partial color map give an image equal to it so far."""
    row_b = col[b]  # the prefix's slots (0,b), ..., (b-1,b)
    for w in free:
        if w < 0:
            continue  # already an image of sigma(0..b-1)
        a = twins[w]
        while a >= 0 and free[a] < 0:
            a = twins[a]
        if a >= 0:
            # a free twin below w repeats this branch: swapping the two is
            # an automorphism of the prefix that fixes sigma(0..b-1)
            continue
        row = col[w]
        trail = []  # colors this candidate mapped
        for u in range(b):
            x = row[sigma[u]]
            y = cmap[x]
            cur = row_b[u]
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
            if b + 1 < m:
                sigma[b] = w
                free[w] = -1
                ok = _no_smaller_extension(b + 1, col, m, twins, sigma, free,
                                           cmap, mapped, groups, group_of)
                free[w] = w
                if not ok:
                    return False
        for x in trail:
            cmap[x] = -1
            mapped[group_of[x]] -= 1
    return True


class _ColoringDFS(SearchMeter):
    def __init__(self, n: int, thresholds: Sequence[int],
                 visitor: Optional[Callable[[EdgeColoring], Optional[bool]]],
                 forced: Optional[dict] = None, *, node_budget: int = DEFAULT_NODE_BUDGET,
                 time_budget: Optional[float] = None,
                 progress: Optional[Callable[[dict], None]] = None):
        self.n, self.ts = n, tuple(thresholds)
        self.r = r = len(self.ts)
        self.edges = colex_edges(n)
        self.E = len(self.edges)
        super().__init__("coloring search", self.E + 1, node_budget, time_budget, progress)
        self.visitor = visitor
        by_key: dict[int, list[int]] = {}
        for c, p in enumerate(self.ts):
            by_key.setdefault(p, []).append(c)
        self.groups = list(by_key.values())  # ascending colors
        self.group_of = [0] * r
        self.rank_in_group = [0] * r
        for gi, g in enumerate(self.groups):
            for rank, c in enumerate(g):
                self.group_of[c] = gi
                self.rank_in_group[c] = rank
        self.cmap = [c if len(self.groups[g]) == 1 else -1
                     for c, g in enumerate(self.group_of)]
        self.col = [[0] * n for _ in range(n)]  # col[u][v] = col[v][u]: color of {u, v}
        # twin[m]: _twin_below of K_m, recorded by the K_m boundary test for
        # the row m that follows it; those of K_0..K_2 do not depend on colors.
        # Slot (0, m), where the test is still due, reads only twin[m][0],
        # which is always -1
        self.twin = [[], [-1], [-1, 0]] + [[-1] * m for m in range(3, n + 1)]
        self.rows = [[0] * n for _ in range(r)]
        # order[c]: max path-matching order of color c
        self.order = [0] * r
        # saturated[c]: the order from which any further edge of color c
        # reaches p_c (a threshold of at most 2, or 3 once c has an edge);
        # p_c itself for the other colors, which never get there
        self.saturated = [0 if p <= 2 else 2 if p == 3 else p for p in self.ts]
        self.used_in_group = [0] * len(self.groups)
        self.counterexample: Optional[EdgeColoring] = None
        # forced[(f, q)]: every coloring of K_f lifts some color i to q_i;
        # shared with the sub-searches that fill it
        self.forced = {} if forced is None else forced

    def _materialize(self) -> EdgeColoring:
        n, col = self.n, self.col
        return EdgeColoring(n, self.r,
                            tuple(col[u][v] + 1 for u in range(n) for v in range(u + 1, n)))

    def _canonical(self, m: int) -> bool:
        """No relabelling of the first m vertices, composed with a
        threshold-preserving color permutation, makes the K_m prefix
        lexicographically smaller.

        The relabelling sigma is built one vertex at a time.  Fixing
        sigma(0..b) fixes the image of every slot below C(b+1, 2), so the
        new slots (0,b), ..., (b-1,b) are compared with the prefix's row b,
        col[b][:b], as soon as sigma(b) is chosen: a smaller image refutes
        canonicity, a larger one cuts the branch.  The color map grows the
        same way: a color first met unmapped goes to the least free color
        of its group, the only image that does not make the comparison
        larger there, and every such partial map extends to a full
        symmetry.  A group's mapped colors are always its first ones, and
        singleton groups are mapped to themselves from the start.  Of twin
        candidates at one level only the least is tried, so a block of
        interchangeable vertices costs one branch instead of its factorial;
        the twins of K_m are recorded for row m.
        """
        twins = self.twin[m] = _twin_below(self.col, m, self.twin[m - 1])
        return _no_smaller_extension(0, self.col, m, twins, [0] * m, list(range(m)),
                                     self.cmap[:], [0] * len(self.groups), self.groups,
                                     self.group_of)

    def _least(self, u: int, v: int, tie: bool) -> int:
        """The least color that the row rule and the twin rule allow at
        slot (u, v), where tie says row v agrees with row v-1 towards
        0..u-1.  Both rules hold in every row but the last, whose K_n
        boundary is not tested; rows 0 and 1 allow every color anyway."""
        if v == self.n - 1:
            return 0
        col = self.col
        lo = col[u][v - 1] if tie and u < v - 1 else 0  # row rule
        a = self.twin[v][u]
        if a >= 0 and col[a][v] > lo:  # twin rule
            lo = col[a][v]
        return lo

    def _bare_edges_forced(self, v: int) -> bool:
        """The bare-edge look-ahead (see the module docstring) at a child in
        row v: the C(f,2) + f|Z| edges at the f = n-1-v bare vertices that
        must take a far color outnumber what the far colors can hold.  A
        color with q_c = 3 holds one; one with q_c = 4 a star of at most
        max(|Z|+f-1, f) edges or a triangle, which needs f >= 3, or f = 2
        and Z non-empty; one with q_c >= 5 is not bounded.  With f or more
        colors at q_c = 4 the capacities always suffice; otherwise the
        excess does not shrink as |Z| grows, so Z is narrowed one near
        color at a time while it can still exceed them."""
        f = self.n - 1 - v
        threes = fours = touched = 0  # touched: the vertices of far colors' edges
        near = []
        for c, rows in enumerate(self.rows):
            q = self.ts[c] - self.order[c]
            if q > 4:
                return False
            if q > 2:
                threes += q == 3
                fours += q == 4
                for row in rows:
                    touched |= row
            else:
                near.append((rows, q))

        def exceeds(z: int) -> bool:
            triangle = 3 if f >= 3 or f == 2 and z else 0
            return f * (f - 1) // 2 + f * z > threes + fours * max(z + f - 1, f, triangle)

        zs = ((1 << v + 1) - 1) & ~touched
        if not exceeds(zs.bit_count()):
            return False
        for rows, q in near:
            zs &= pendant_gains(tuple(rows))[q - 1]
            if not exceeds(zs.bit_count()):
                return False
        return True

    def _future_forced(self, f: int, k: int) -> bool:
        """Every coloring of the K_f on the bare vertices lifts some color
        c by q_c = p_c - order[c], so every completion succeeds.

        A color with q_c <= 2 succeeds on any edge, so only the q_c >= 3
        count, largest first.  K_f all in the color of q_1 has order f, so
        it stays below q_1 when f < q_1 and finishes the only such color
        otherwise.  With two or more, a sub-search on K_f with thresholds
        q decides, charging its nodes to this search's meter at slot k;
        its verdicts are kept in forced."""
        q = sorted((p - o for p, o in zip(self.ts, self.order) if p - o > 2),
                   reverse=True)
        if not q:
            return True
        if f < q[0]:
            return False
        if len(q) == 1:
            return True
        key = (f, tuple(q))
        hit = self.forced.get(key)
        if hit is None:
            sub = _ColoringDFS(f, key[1], None, self.forced)
            tick = self._tick
            sub._tick = lambda _depth: tick(k)
            sub.run()
            hit = self.forced[key] = sub.counterexample is None
        return hit

    def _leaf(self) -> bool:
        """Handle a complete coloring; True means stop the whole search."""
        self.leaves += 1
        col = self._materialize()
        if self.counterexample is None:
            self.counterexample = col
        if self.visitor is not None:
            return bool(self.visitor(col))
        return True

    def run(self, k: int = 0, tie: bool = True, pending: int = 0) -> bool:
        """DFS from edge slot k; True aborts the search (stop requested).

        tie: row v of slot k = (u, v) agrees with row v-1 towards 0..u-1.
        pending: m when slots 0..k-1 complete a K_m whose boundary test is
        still due (k = C(m, 2), slot k = (0, m)), else 0.  The test runs on
        the first color here that survives the other prunes, before the
        search goes deeper, and a rejection ends the whole subtree; so a
        prefix none of whose children survives is never tested.
        A saturated color is skipped without a node.  A color survives
        success pruning while its order, kept in order[c], stays below its
        threshold.  While a bare vertex is left (v+1 < n) the bare-edge
        look-ahead (_bare_edges_forced) runs on each surviving child.  Then,
        while v+2 < n, the future-clique look-ahead (_future_forced) runs on
        each child whose edge changed order[c]: an unchanged order was
        asked about at the parent, on the same K_f or on K_{f+1}, and the
        parent survived; a coloring of K_{f+1} that finishes no color
        restricts to one of K_f."""
        if k == self.E:
            return self._leaf()
        n, ts = self.n, self.ts
        u, v = self.edges[k]
        ub, vb = 1 << u, 1 << v
        row_u, row_v = self.col[u], self.col[v]
        above = row_u[v - 1] if u < v - 1 else -1  # the color of (u, v-1)
        ahead = v + 1 < n  # vertex v+1 exists and has no edge yet
        # slot (v-1, v) ends K_{v+1}, whose test is due when 3 <= v+1 < n
        boundary_m = v + 1 if u == v - 1 and v >= 2 and ahead else 0
        order, saturated = self.order, self.saturated
        for c in range(self._least(u, v, tie), self.r):
            if order[c] >= saturated[c]:
                continue  # this edge would lift c to its threshold
            g = self.group_of[c]
            if self.rank_in_group[c] > self.used_in_group[g]:
                continue  # first-use order within each equal-threshold group
            self._tick(k)
            rows_c = self.rows[c]
            rows_c[u] |= vb
            rows_c[v] |= ub
            row_u[v] = row_v[u] = c
            p, was = ts[c], order[c]
            order[c] = pm_order_of_rows(rows_c, n)
            ok = order[c] < p
            if ok and ahead:
                ok = not self._bare_edges_forced(v)
                if ok and v + 2 < n:  # an unchanged order was asked about at the parent
                    ok = order[c] == was or not self._future_forced(n - 1 - v, k)
            if ok and pending:
                if not self._canonical(pending):
                    rows_c[u] &= ~vb
                    rows_c[v] &= ~ub
                    order[c] = was
                    return False
                pending = 0
            if ok:
                bumped = self.rank_in_group[c] == self.used_in_group[g]
                if bumped:
                    self.used_in_group[g] += 1
                if self.run(k + 1, above < 0 or (tie and c == above), boundary_m):
                    return True
                if bumped:
                    self.used_in_group[g] -= 1
            rows_c[u] &= ~vb
            rows_c[v] &= ~ub
            order[c] = was
        return False


def enumerate_colorings(n: int, thresholds: Sequence[int],
                        visitor: Optional[Callable[[EdgeColoring], Optional[bool]]] = None, *,
                        node_budget: int = DEFAULT_NODE_BUDGET,
                        time_budget: Optional[float] = None,
                        progress: Optional[Callable[[dict], None]] = None) -> SearchOutcome:
    """Visit the surviving complete r-colorings of K_n, r = len(thresholds).

    Every coloring class in which no color ever reaches its threshold has
    at least one representative visited; classes that reach a threshold
    are pruned as successes.  Without a visitor the search stops at the
    first surviving coloring (a counterexample to the Ramsey property at
    n).  A visitor may return True to stop early.  The outcome's
    counterexample is the first surviving coloring, None when every
    coloring reaches some threshold.  Budgets and progress work as
    SearchMeter says; running out of either raises BudgetExceededError.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not thresholds or min(thresholds) < 1:
        raise ValueError(f"need one or more positive thresholds, got {tuple(thresholds)}")
    check_budgets(node_budget, time_budget)
    dfs = _ColoringDFS(n, thresholds, visitor, node_budget=node_budget,
                       time_budget=time_budget, progress=progress)
    dfs.run()
    return SearchOutcome(dfs.counterexample, dfs.nodes, dfs.leaves)

