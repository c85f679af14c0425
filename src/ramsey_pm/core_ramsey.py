"""Exact 1-core Ramsey values via covering designs.

An r-coloring of K_n in which the color-i 1-core has at most p_i - 1
vertices is the same thing as a cover of the pairs of K_n by r blocks of
sizes at most p_i - 1 (replace each 1-core by a clique on its vertex set).
So the exact value is the smallest n whose K_n admits no such block cover,
and cover_feasible is the workhorse: a complete backtracking search over
vertex-to-block assignments with heavy symmetry breaking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .bounds import ceil_div, core_upper_edgecount, core_upper_main, covering_lower_eh, covering_lower_schonheim
from .coloring import EdgeColoring, coloring_from_edge_colors
from .graphs import MAX_VERTICES
from .results import (BudgetExceededError, PROOF_SEARCH, RamseyResult,
                      RouteDisagreementError, SearchStats)

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class BlockCover:
    """Blocks (vertex masks) covering every pair of K_n within capacities."""

    n: int
    capacities: tuple[int, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.capacities):
            raise ValueError("one block per capacity required")

    def validate(self) -> None:
        """Raise unless sizes respect capacities and every pair is covered."""
        full = (1 << self.n) - 1
        for b, cap in zip(self.blocks, self.capacities):
            if b & ~full:
                raise ValueError("block references vertices >= n")
            if b.bit_count() > cap:
                raise ValueError(f"block of size {b.bit_count()} exceeds capacity {cap}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                pair = (1 << u) | (1 << v)
                if not any(blk & pair == pair for blk in self.blocks):
                    raise ValueError(f"pair ({u},{v}) uncovered")

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)


class _CoverSearch:
    """Backtracking over vertex-to-blocks assignments.

    A cover of K_n by capacity-bounded blocks is the same thing as giving
    every vertex a nonempty set of blocks (its memberships) such that any
    two vertices share a block and no block exceeds its capacity.  The
    search assigns vertices 0..n-1 in order; branching on whole membership
    sets propagates capacity and intersection constraints much harder than
    placing one pair at a time.
    """

    def __init__(self, n: int, caps: Sequence[int], node_budget: int,
                 deadline: Optional[float]):
        self.n = n
        self.caps = list(caps)  # sorted descending by the caller
        self.B = len(caps)
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self.members = [0] * self.B
        self.blocks = [0] * self.B
        self.sets: list[int] = []  # membership mask per assigned vertex
        self.distinct: list[int] = []  # distinct membership masks, in order
        # a vertex needs its blocks to reach all n-1 others even at full
        # capacity, which already takes this many memberships
        best = sorted((c - 1 for c in self.caps), reverse=True)
        need, self.min_sets = n - 1, 0
        for c in best:
            if need <= 0:
                break
            need -= c
            self.min_sets += 1
        if need > 0:
            self.min_sets = self.B + 1  # impossible outright

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceededError(
                f"cover search exceeded {self.node_budget} nodes", self.nodes)
        if self.deadline is not None and not self.nodes & 0x3FF:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError("cover search hit its time budget", self.nodes)

    def candidates(self, v: int) -> list[int]:
        """Membership sets available to vertex v, small sets first.

        A set must fit every block's remaining room, intersect each earlier
        vertex's set, and jointly offer room for all n-1 neighbours plus a
        free slot for every vertex still to come.  Two symmetry rules cut
        the rest: blocks of equal capacity with identical current members
        are interchangeable, so only a prefix of each such class may be
        used; and vertices are interchangeable outright, so sets are
        assigned in nondecreasing (size, mask) order.  The lexicographically
        minimal representative of any solution satisfies all of this at
        once, which keeps the search complete.
        """
        caps = self.caps
        members = self.members
        B = self.B
        roomy = 0
        for b in range(B):
            if members[b] < caps[b]:
                roomy |= 1 << b
        # blocks of equal capacity and equal current content are
        # interchangeable: swapping two of them fixes every assigned set,
        # so a candidate may only use a prefix of each class
        classes: dict[tuple[int, int], list[int]] = {}
        for b in range(B):
            classes.setdefault((caps[b], self.blocks[b]), []).append(b)
        twin_runs = [run for run in classes.values() if len(run) > 1]
        after = self.n - v - 1
        floor_key = (self.sets[-1].bit_count(), self.sets[-1]) if self.sets else (0, 0)
        out = []
        sub = roomy
        while sub:
            if (sub.bit_count(), sub) >= floor_key and \
                    self._set_ok(sub, twin_runs, after):
                out.append(sub)
            sub = (sub - 1) & roomy
        out.sort(key=lambda s: (s.bit_count(), s))
        return out

    def _set_ok(self, s: int, twin_runs: list[list[int]], after: int) -> bool:
        for other in self.distinct:
            if not other & s:
                return False
        union = 0
        future_room = 0
        mm = s
        while mm:
            bb = mm & -mm
            b = bb.bit_length() - 1
            union |= self.blocks[b]
            future_room += self.caps[b] - self.members[b] - 1
            mm ^= bb
        if future_room < after:
            return False  # later vertices cannot all reach this one
        # everyone else must eventually sit in one of these blocks
        if union.bit_count() + future_room < self.n - 1:
            return False
        for blocks in twin_runs:
            gap = False
            for b in blocks:
                if s >> b & 1:
                    if gap:
                        return False
                else:
                    gap = True
        return True

    def run(self, v: int) -> Optional[list[int]]:
        """Assign vertices v..n-1; a block list on success, else None."""
        self._tick()
        n, B = self.n, self.B
        if v == n:
            return list(self.blocks)
        caps = self.caps
        members = self.members
        remaining = n - v

        slacks = [caps[b] - members[b] for b in range(B)]
        total_slack = sum(slacks)
        # sets are assigned in nondecreasing size, so each unassigned vertex
        # consumes at least max(min_sets, current size floor) memberships
        floor_size = self.min_sets
        if self.sets:
            floor_size = max(floor_size, self.sets[-1].bit_count())
        if total_slack < remaining * floor_size:
            return None
        # every still-uncovered pair (assigned-unassigned or both unassigned)
        # must become a new pair inside some block
        future_pairs = sum(caps[b] * (caps[b] - 1) // 2 -
                           members[b] * (members[b] - 1) // 2 for b in range(B))
        if future_pairs < v * remaining + remaining * (remaining - 1) // 2:
            return None
        # each assigned vertex still needs room for all unassigned neighbours
        for s in self.distinct:
            room = 0
            mm = s
            while mm:
                bb = mm & -mm
                room += slacks[bb.bit_length() - 1]
                mm ^= bb
            if room < remaining:
                return None

        vbit = 1 << v
        for s in self.candidates(v):
            mm = s
            while mm:
                bb = mm & -mm
                b = bb.bit_length() - 1
                members[b] += 1
                self.blocks[b] |= vbit
                mm ^= bb
            self.sets.append(s)
            fresh = not self.distinct or self.distinct[-1] != s
            if fresh:
                self.distinct.append(s)
            found = self.run(v + 1)
            if fresh:
                self.distinct.pop()
            self.sets.pop()
            mm = s
            while mm:
                bb = mm & -mm
                b = bb.bit_length() - 1
                members[b] -= 1
                self.blocks[b] &= ~vbit
                mm ^= bb
            if found is not None:
                return found
        return None


def cover_feasible(n: int, capacities: Sequence[int], *,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   time_budget: Optional[float] = None) -> Optional[BlockCover]:
    cover, _ = cover_feasible_with_stats(
        n, capacities, node_budget=node_budget, time_budget=time_budget)
    return cover


def cover_feasible_with_stats(n: int, capacities: Sequence[int], *,
                              node_budget: int = DEFAULT_NODE_BUDGET,
                              time_budget: Optional[float] = None,
                              ) -> tuple[Optional[BlockCover], int]:
    """A block cover of K_n within the capacities, or None; plus node count.

    The search is complete: a None verdict means no cover exists, and any
    returned cover is a valid witness.  Exceeding either budget raises
    BudgetExceededError.
    """
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"need 2 <= n <= {MAX_VERTICES}")
    if node_budget <= 0:
        raise ValueError("positive node budget required")
    if time_budget is not None and not time_budget > 0:
        raise ValueError("positive time budget required")
    caps_all = list(capacities)
    if not caps_all:
        raise ValueError("at least one block required")
    # capacity <= 1 blocks cover no pair; drop them from the search
    order = sorted((i for i, c in enumerate(caps_all) if c >= 2),
                   key=lambda i: (-caps_all[i], i))
    caps = [min(caps_all[i], n) for i in order]
    if not caps:
        return None, 0

    total_pairs = n * (n - 1) // 2
    if sum(c * (c - 1) // 2 for c in caps) < total_pairs:
        return None, 0
    # each vertex needs ceil((n-1)/(capmax-1)) blocks, so sizes sum to at least that
    if sum(caps) < n * ceil_div(n - 1, caps[0] - 1):
        return None, 0
    if n <= caps[0]:
        # one big block swallows everything
        found = [0] * len(caps)
        found[0] = (1 << n) - 1
        nodes = 0
    else:
        deadline = time.monotonic() + time_budget if time_budget is not None else None
        search = _CoverSearch(n, caps, node_budget, deadline)
        found, nodes = search.run(0), search.nodes
    if found is None:
        return None, nodes

    blocks_all = [0] * len(caps_all)
    for slot, orig in enumerate(order):
        blocks_all[orig] = found[slot]
    cover = BlockCover(n, tuple(caps_all), tuple(blocks_all))
    cover.validate()
    return cover, nodes


def _trivial_cover(caps: Sequence[int]) -> BlockCover:
    """Cover of K_1: no pairs, so empty blocks suffice."""
    return BlockCover(1, tuple(caps), (0,) * len(caps))


def exact_core_ramsey(targets: Sequence[int], *,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      time_budget: Optional[float] = None) -> RamseyResult:
    """Exact 1-core Ramsey value of the targets by bisection.

    K_n can be covered by blocks of sizes p_i - 1 for every n below the
    value and for none from it on, so the value is found by bisecting
    between n = p1 - 1 (one block swallows K_n) and the smaller proven
    upper bound (edge count, three-term bound).  The value always rests
    on a completed infeasibility verdict at that size, and the cover at
    the size below is kept as the lower witness.  Entries at most 2
    contribute nothing (their blocks hold at most one vertex).
    """
    started = time.monotonic()
    ts = tuple(sorted(targets, reverse=True))
    if not ts or any(p < 1 for p in ts):
        raise ValueError("targets must be positive")
    stats = SearchStats()
    caps = tuple(p - 1 for p in ts)
    if ts[0] <= 2:
        # in K_2 the single edge already forms a 1-core of order 2
        stats.millis = int((time.monotonic() - started) * 1000)
        return RamseyResult(ts, 2, PROOF_SEARCH, _trivial_cover(caps), stats)
    kw = dict(node_budget=node_budget, time_budget=time_budget)

    lo = ts[0] - 1
    witness = cover_feasible_with_stats(lo, caps, **kw)[0] if lo >= 2 else _trivial_cover(caps)
    bound = core_upper_edgecount(ts)
    if len(ts) >= 2:
        bound = min(bound, core_upper_main(ts))
    hi, refuted = bound, False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        cover, nodes = cover_feasible_with_stats(mid, caps, **kw)
        stats.nodes += nodes
        if cover is None:
            hi, refuted = mid, True
        else:
            lo, witness = mid, cover
    if not refuted:
        cover, nodes = cover_feasible_with_stats(hi, caps, **kw)
        stats.nodes += nodes
        if cover is not None:  # so the value would be at least hi + 1
            raise RouteDisagreementError(
                f"{ts} is coverable at its proven upper bound {bound}",
                {"targets": ts, "n": hi + 1, "bound": bound})
    stats.millis = int((time.monotonic() - started) * 1000)
    return RamseyResult(ts, hi, PROOF_SEARCH, witness, stats)


def covering_number(v: int, k: int, max_blocks: int = 64, *,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    time_budget: Optional[float] = None) -> Optional[int]:
    """Exact C(v, k): minimum number of size-<=k blocks covering K_v.

    Scans upward from the iterated-ceiling lower bound; None if the answer
    exceeds max_blocks.
    """
    if not (v >= k >= 2):
        raise ValueError("need v >= k >= 2")
    if v == k:
        return 1
    b = covering_lower_schonheim(v, k) if k >= 3 else covering_lower_eh(v, k)
    while b <= max_blocks:
        if cover_feasible(v, (k,) * b, node_budget=node_budget,
                          time_budget=time_budget) is not None:
            return b
        b += 1
    return None


def cover_to_coloring(cover: BlockCover) -> EdgeColoring:
    """Color every pair by the lowest-index block containing it.

    The color-i 1-core then sits inside block i, which is how a cover
    certifies a 1-core lower bound as an honest edge coloring.
    """
    r = len(cover.capacities)

    def color(u: int, v: int) -> int:
        pair = (1 << u) | (1 << v)
        for i, blk in enumerate(cover.blocks):
            if blk & pair == pair:
                return i + 1
        raise ValueError(f"pair ({u},{v}) uncovered")

    return coloring_from_edge_colors(cover.n, r, color)
