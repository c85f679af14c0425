"""Isomorph-pruned exhaustive enumeration of edge colorings.

The engine answers one question: does some r-coloring of K_n keep every
color-i path-matching below its threshold p_i?  It walks colorings edge by
edge and prunes three ways:

* success pruning: path-matching order is monotone under adding edges, so
  once a color reaches its threshold in a partial coloring every
  completion does too and the subtree is skipped;
* color canonicity: among colors with equal thresholds, a new color may
  only enter in index order (first-use rule), valid at every prefix;
* vertex canonicity: edges are ordered colex, (0,1), (0,2), (1,2),
  (0,3), ..., so after C(m,2) edges the prefix is a full coloring of K_m
  and can be rejected if relabelling the first m vertices (composed with a
  threshold-preserving color permutation) yields a lexicographically
  smaller color sequence.

The lexicographically least member of each equivalence class survives all
three prunes, so at least one representative per class is visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Optional, Sequence

from .coloring import EdgeColoring
from .path_matching import pm_order_of_rows
from .results import BudgetExceededError

SYMMETRY_NONE = "none"
SYMMETRY_COLORS = "colors"
SYMMETRY_FULL = "colors+vertices"

ALL_SUCCEED = "all-succeed"
COUNTEREXAMPLE = "counterexample"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_NODE_BUDGET = 50_000_000
_MAX_PERM_VERTICES = 8
_MAX_COLOR_MAPS = 50_000


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
    # every progress_interval nodes (0 disables)
    progress: Optional[Callable[[dict], None]] = None
    progress_interval: int = 100_000

    def __post_init__(self):
        if len(self.thresholds) != self.r:
            raise ValueError("one threshold per color required")
        if self.node_budget <= 0:
            raise ValueError("positive node budget required")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("positive time budget required")
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


def _colex_pos(u: int, v: int) -> int:
    return v * (v - 1) // 2 + u


_PERM_MAPS: dict[int, list[tuple[int, ...]]] = {}


def _perm_maps(m: int) -> list[tuple[int, ...]]:
    """For each nonidentity relabelling of [m], where each colex edge slot
    reads from: applying the map to a color sequence yields the relabelled
    coloring's sequence."""
    cached = _PERM_MAPS.get(m)
    if cached is None:
        maps = []
        for sigma in permutations(range(m)):
            amap = []
            for v in range(1, m):
                for u in range(v):
                    a, b = sigma[u], sigma[v]
                    if a > b:
                        a, b = b, a
                    amap.append(_colex_pos(a, b))
            amap_t = tuple(amap)
            if amap_t != tuple(range(len(amap_t))):
                maps.append(amap_t)
        _PERM_MAPS[m] = maps
        cached = maps
    return cached


def _color_groups(thresholds: Sequence[int]) -> list[list[int]]:
    """Colors grouped by equal threshold (0-indexed), each group sorted."""
    by_value: dict[int, list[int]] = {}
    for c, p in enumerate(thresholds):
        by_value.setdefault(p, []).append(c)
    return [sorted(g) for g in by_value.values()]


def _color_maps(groups: list[list[int]], r: int) -> list[tuple[int, ...]]:
    """Threshold-preserving color permutations as full maps, identity first.

    Capped in size; a truncated list only weakens pruning, never
    correctness, since fewer symmetries get tested.
    """
    total = 1
    for g in groups:
        for k in range(2, len(g) + 1):
            total *= k
        if total > _MAX_COLOR_MAPS:
            return [tuple(range(r))]
    maps = []
    group_perms = [list(permutations(g)) for g in groups]
    for combo in product(*group_perms):
        cmap = list(range(r))
        for g, perm in zip(groups, combo):
            for src, dst in zip(g, perm):
                cmap[src] = dst
        maps.append(tuple(cmap))
    maps.sort(key=lambda m: m != tuple(range(r)))  # identity first
    return maps


def _prefix_canonical(seq: Sequence[int], m: int,
                      color_maps: list[tuple[int, ...]]) -> bool:
    """No relabelling of the first m vertices (with a color permutation)
    makes the K_m prefix lexicographically smaller."""
    length = m * (m - 1) // 2
    prefix = seq[:length]
    for amap in _perm_maps(m):
        for cmap in color_maps:
            for j in range(length):
                img = cmap[prefix[amap[j]]]
                cur = prefix[j]
                if img < cur:
                    return False
                if img > cur:
                    break
            # all equal: an automorphism of the prefix, keep going
    return True


class _ColoringDFS:
    def __init__(self, config: SearchConfig,
                 visitor: Optional[Callable[[EdgeColoring], Optional[bool]]]):
        self.cfg = config
        self.visitor = visitor
        n, r = config.n, config.r
        self.edges = colex_edges(n)
        self.E = len(self.edges)
        self.boundaries = {m * (m - 1) // 2: m for m in range(3, n + 1)}
        self.groups = _color_groups(config.thresholds)
        self.group_of = [0] * r
        for gi, g in enumerate(self.groups):
            for c in g:
                self.group_of[c] = gi
        self.rank_in_group = [0] * r
        for g in self.groups:
            for rank, c in enumerate(g):
                self.rank_in_group[c] = rank
        self.color_maps = _color_maps(self.groups, r) if r > 1 else [tuple(range(r))]
        self.seq = [0] * self.E
        self.rows = [[0] * n for _ in range(r)]
        self.used_in_group = [0] * len(self.groups)
        self.nodes = 0
        self.leaves = 0
        self.depth_hist = [0] * (self.E + 1)
        self.started = time.monotonic()
        self.deadline = (self.started + config.time_budget
                         if config.time_budget is not None else None)
        self.counterexample: Optional[EdgeColoring] = None

    def _tick(self, depth: int):
        self.nodes += 1
        self.depth_hist[depth] += 1
        if self.nodes > self.cfg.node_budget:
            raise BudgetExceededError(
                f"coloring search exceeded {self.cfg.node_budget} nodes", self.nodes)
        if self.deadline is not None and not self.nodes & 0x3FF:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError("coloring search hit its time budget", self.nodes)
        if self.cfg.progress is not None and self.cfg.progress_interval > 0 \
                and self.nodes % self.cfg.progress_interval == 0:
            self.cfg.progress({
                "nodes": self.nodes,
                "leaves": self.leaves,
                "elapsed": time.monotonic() - self.started,
                "depth_histogram": list(self.depth_hist),
            })

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

    def run(self, k: int = 0) -> bool:
        """DFS from edge slot k; True aborts the search (stop requested)."""
        if k == self.E:
            return self._leaf()
        cfg = self.cfg
        u, v = self.edges[k]
        ub, vb = 1 << u, 1 << v
        level = cfg.symmetry_level
        boundary_m = self.boundaries.get(k + 1)
        if boundary_m == cfg.n and not cfg.canonical_leaves:
            boundary_m = None
        for c in range(cfg.r):
            g = self.group_of[c]
            if level != SYMMETRY_NONE and self.rank_in_group[c] > self.used_in_group[g]:
                continue  # first-use order within each equal-threshold group
            self._tick(k)
            rows_c = self.rows[c]
            rows_c[u] |= vb
            rows_c[v] |= ub
            new_pm = pm_order_of_rows(rows_c, cfg.n)
            ok = new_pm < cfg.thresholds[c]
            if ok and boundary_m is not None and level == SYMMETRY_FULL \
                    and boundary_m <= _MAX_PERM_VERTICES:
                self.seq[k] = c
                if not _prefix_canonical(self.seq, boundary_m, self.color_maps):
                    ok = False
            if ok:
                self.seq[k] = c
                bumped = self.rank_in_group[c] == self.used_in_group[g]
                if bumped:
                    self.used_in_group[g] += 1
                if self.run(k + 1):
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
    except BudgetExceededError as err:
        return SearchOutcome(BUDGET_EXHAUSTED, None, err.nodes, dfs.leaves,
                             int((time.monotonic() - started) * 1000))
    status = COUNTEREXAMPLE if (dfs.counterexample is not None or dfs.leaves) \
        else ALL_SUCCEED
    return SearchOutcome(status, dfs.counterexample, dfs.nodes, dfs.leaves,
                         int((time.monotonic() - started) * 1000))


def canonical_extension_check(prefix_colors: Sequence[int], config: SearchConfig) -> bool:
    """True iff no permissible symmetry maps the prefix (colors of the
    first k colex edges, 1-indexed colors) to a smaller sequence.

    Color permutations apply at any prefix length; vertex relabellings
    additionally apply when the prefix is a complete K_m.
    """
    seq = [c - 1 for c in prefix_colors]
    if any(not 0 <= c < config.r for c in seq):
        raise ValueError("colors out of range")
    groups = _color_groups(config.thresholds)
    rank = {}
    for g in groups:
        for i, c in enumerate(g):
            rank[c] = i
    next_new = {gi: 0 for gi in range(len(groups))}
    group_of = {}
    for gi, g in enumerate(groups):
        for c in g:
            group_of[c] = gi
    for c in seq:
        gi = group_of[c]
        if rank[c] > next_new[gi]:
            return False  # a later color of the group appeared first
        if rank[c] == next_new[gi]:
            next_new[gi] += 1
    if config.symmetry_level != SYMMETRY_FULL:
        return True
    k = len(seq)
    for m in range(3, config.n + 1):
        if m * (m - 1) // 2 == k and m <= _MAX_PERM_VERTICES:
            return _prefix_canonical(seq, m, _color_maps(groups, config.r))
    return True
