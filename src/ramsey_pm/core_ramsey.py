"""Exact 1-core Ramsey values via covering designs.

An r-coloring of K_n in which the color-i 1-core has at most p_i - 1
vertices is the same thing as a cover of the pairs of K_n by r blocks of
sizes at most p_i - 1 (replace each 1-core by a clique on its vertex set).
So the exact value is the smallest n whose K_n admits no such block cover,
and cover_feasible_with_stats is the workhorse: a complete backtracking
search over vertex-to-block assignments with heavy symmetry breaking.  Its
budgets are its only limit; vertex sets are Python ints of any width.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bounds import core_upper, covering_lower_eh, covering_lower_schonheim, sorted_targets
from .coloring import EdgeColoring, coloring_from_edge_colors
from .results import (DEFAULT_NODE_BUDGET, PROOF_SEARCH, PROOF_TABLE, RamseyResult,
                      RouteDisagreementError, SearchMeter, SearchStats, check_budgets)


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

    def restrict(self, n: int) -> "BlockCover":
        """The blocks cut to the first n vertices: a cover of K_n."""
        if not 1 <= n <= self.n:
            raise ValueError(f"need 1 <= n <= {self.n}, got {n}")
        return BlockCover(n, self.capacities, tuple(b & ((1 << n) - 1) for b in self.blocks))


class _CoverSearch(SearchMeter):
    """Backtracking over vertex-to-blocks assignments.

    A cover of K_n by capacity-bounded blocks is the same thing as giving
    every vertex a nonempty set of blocks (its memberships) such that any
    two vertices share a block and no block exceeds its capacity.  The
    search assigns vertices 0..n-1 in order; branching on whole membership
    sets propagates capacity and intersection constraints much harder than
    placing one pair at a time.

    Each node builds its candidate sets from classes of interchangeable
    blocks and keeps only those whose child passes the three counting
    tests a child would otherwise run on entry (see candidates), so no
    dead child is entered or counted.  What those tests read, the room
    left in each block, in all blocks together and for new pairs, is
    updated as sets are assigned and taken back.
    """

    def __init__(self, n: int, caps: Sequence[int], min_sets: int, node_budget: int,
                 time_budget: Optional[float], progress: Optional[Callable[[dict], None]]):
        super().__init__("cover search", n + 1, node_budget, time_budget, progress)
        self.n = n
        self.caps = list(caps)  # sorted descending by the caller
        self.B = len(caps)
        self.min_sets = min_sets
        self.slack = list(caps)  # room left in each block
        self.total_slack = sum(caps)
        self.future_pairs = sum(c * (c - 1) // 2 for c in caps)  # pairs blocks can still gain
        self.blocks = [0] * self.B
        self.distinct: list[int] = []  # distinct membership masks, in order

    def candidates(self, v: int) -> list[int]:
        """Membership sets for vertex v whose child is alive, small first.

        Vertices are interchangeable, so sets are assigned in nondecreasing
        (size, mask) order.  Roomy blocks of equal capacity and equal
        content are interchangeable too (swapping two fixes every assigned
        set), so a set takes a prefix of each such class and is built as
        one prefix count per class.  The lexicographically minimal
        representative of any solution obeys both rules, which keeps the
        search complete.  A set must meet every earlier vertex's set (its
        blocks must hold all of 0..v-1) and leave a slot in its blocks for
        every later vertex.  A set is dropped, since its child would be
        dead on entry, if
        - the later vertices, each taking at least as many memberships,
          would overrun the total room; so a set stops growing once its
          size passes total_slack // (n - v);
        - the blocks could no longer gain a new pair for every pair that
          still has to be covered; or
        - some earlier set would keep less room than the vertices after v.
        All three only get worse as a set grows, so a class count that
        fails one ends the counts of that class.
        """
        n, B, caps, slack, blocks = self.n, self.B, self.caps, self.slack, self.blocks
        after = n - v - 1
        top = self.total_slack // (after + 1)
        pair_room = self.future_pairs - (v + 1) * after - after * (after - 1) // 2
        last = self.distinct[-1] if self.distinct else 0
        last_size = last.bit_count()
        low = max(self.min_sets, last_size)
        if top < low:
            return []
        # an earlier set d may lose at most room(d) - after of its slots;
        # only those that could lose fewer than top need watching
        tight = []
        for d in self.distinct:
            spare = sum(slack[b] for b in range(B) if d >> b & 1) - after
            if spare < top:
                tight.append((d, spare))
        classes: dict[tuple[int, int], list[int]] = {}
        for b in range(B):
            if slack[b]:
                classes.setdefault((caps[b], blocks[b]), []).append(b)
        # per class: content, members, room each block adds for later
        # vertices, prefix masks, and the tight sets that hold the class
        runs = []
        for (cap, content), run in classes.items():
            prefixes = [0]
            for b in run:
                prefixes.append(prefixes[-1] | 1 << b)
            meets = [(d, spare) for d, spare in tight if d & prefixes[1]] if tight else ()
            runs.append((content, cap - slack[run[0]], slack[run[0]] - 1, prefixes, meets))
        assigned = (1 << v) - 1
        # what the classes from i on can hold of 0..v-1
        k = len(runs)
        reach = [0] * (k + 1)
        for i in range(k - 1, -1, -1):
            reach[i] = reach[i + 1] | runs[i][0]
        out: list[int] = []

        def grow(i: int, size: int, mask: int, pairs: int, room: int, union: int) -> None:
            if union | reach[i] != assigned:
                return
            if i == k:
                if size >= low and room >= after and (size > last_size or mask >= last):
                    out.append(mask)
                return
            content, members, gain, prefixes, meets = runs[i]
            grow(i + 1, size, mask, pairs, room, union)
            union |= content
            for c in range(1, min(len(prefixes) - 1, top - size) + 1):
                pairs += members
                mask |= prefixes[c]
                if pairs > pair_room or any((d & mask).bit_count() > spare for d, spare in meets):
                    break
                grow(i + 1, size + c, mask, pairs, room + c * gain, union)

        grow(0, 0, 0, 0, 0, 0)
        out.sort(key=lambda s: (s.bit_count(), s))
        return out

    def run(self, v: int) -> Optional[list[int]]:
        """Assign vertices v..n-1; a block list on success, else None."""
        self._tick(v)
        if v == self.n:
            return list(self.blocks)
        caps, slack, blocks = self.caps, self.slack, self.blocks
        vbit = 1 << v
        for s in self.candidates(v):
            chosen = [b for b in range(self.B) if s >> b & 1]
            for b in chosen:
                self.future_pairs -= caps[b] - slack[b]
                slack[b] -= 1
                blocks[b] |= vbit
            self.total_slack -= len(chosen)
            fresh = not self.distinct or self.distinct[-1] != s
            if fresh:
                self.distinct.append(s)
            found = self.run(v + 1)
            if fresh:
                self.distinct.pop()
            self.total_slack += len(chosen)
            for b in chosen:
                slack[b] += 1
                self.future_pairs += caps[b] - slack[b]
                blocks[b] &= ~vbit
            if found is not None:
                return found
        return None


def _min_sets(n: int, caps: Sequence[int]) -> int:
    """Memberships a vertex needs so that its blocks, even when full, reach
    all n - 1 others; len(caps) + 1 if no number of them does."""
    need = n - 1
    for count, c in enumerate(sorted(caps, reverse=True)):
        if need <= 0:
            return count
        need -= c - 1
    return len(caps) if need <= 0 else len(caps) + 1


def cover_feasible_with_stats(n: int, capacities: Sequence[int], *,
                              node_budget: int = DEFAULT_NODE_BUDGET,
                              time_budget: Optional[float] = None,
                              progress: Optional[Callable[[dict], None]] = None,
                              ) -> tuple[Optional[BlockCover], int]:
    """A block cover of K_n within the capacities, or None; plus node count.

    The one entry point of the cover search, at any n.  The search is
    complete: a None verdict means no cover exists, and any returned cover
    is a valid witness.  Its budgets are its only limit: exceeding either
    raises BudgetExceededError.  Budgets and progress work as SearchMeter
    says; depth is the number of vertices assigned, and leaves is always
    0, since the search stops at its first leaf.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_budgets(node_budget, time_budget)
    caps_all = list(capacities)
    if not caps_all or min(caps_all) < 0:
        raise ValueError(f"need one or more nonnegative capacities, got {tuple(caps_all)}")
    # capacity <= 1 blocks cover no pair; drop them from the search
    order = sorted((i for i, c in enumerate(caps_all) if c >= 2),
                   key=lambda i: (-caps_all[i], i))
    caps = [min(caps_all[i], n) for i in order]
    if not caps:
        return None, 0

    total_pairs = n * (n - 1) // 2
    if sum(c * (c - 1) // 2 for c in caps) < total_pairs:
        return None, 0
    # every vertex takes at least min_sets memberships
    min_sets = _min_sets(n, caps)
    if sum(caps) < n * min_sets:
        return None, 0
    if n <= caps[0]:
        # one big block swallows everything
        found = [0] * len(caps)
        found[0] = (1 << n) - 1
        nodes = 0
    else:
        search = _CoverSearch(n, caps, min_sets, node_budget, time_budget, progress)
        found, nodes = search.run(0), search.nodes
    if found is None:
        return None, nodes

    blocks_all = [0] * len(caps_all)
    for slot, orig in enumerate(order):
        blocks_all[orig] = found[slot]
    cover = BlockCover(n, tuple(caps_all), tuple(blocks_all))
    cover.validate()
    return cover, nodes


def exact_core_ramsey(targets: Sequence[int], *,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      time_budget: Optional[float] = None,
                      progress: Optional[Callable[[dict], None]] = None) -> RamseyResult:
    """Exact 1-core Ramsey value of the targets by bisection.

    K_n can be covered by blocks of sizes p_i - 1 for every n below the
    value and for none from it on, so the value is found by bisecting
    between n = p1 - 1 (one block swallows K_n) and the smaller proven
    upper bound (edge count, three-term bound).  The value always rests
    on a completed infeasibility verdict at that size, and the cover at
    the size below is kept as the lower witness.  Entries at most 2
    contribute nothing (their blocks hold at most one vertex).  Budgets
    and the progress hook apply to each cover search.
    """
    started = time.monotonic()
    ts = sorted_targets(targets)
    stats = SearchStats()
    caps = tuple(p - 1 for p in ts)
    if ts[0] <= 2:
        # in K_2 the single edge already forms a 1-core of order 2; K_1 has
        # no pairs, so empty blocks cover it
        stats.millis = int((time.monotonic() - started) * 1000)
        return RamseyResult(ts, 2, PROOF_TABLE, BlockCover(1, caps, (0,) * len(caps)), stats)
    kw = dict(node_budget=node_budget, time_budget=time_budget, progress=progress)

    lo = ts[0] - 1  # one block swallows K_lo, so no search nodes here
    witness = cover_feasible_with_stats(lo, caps, **kw)[0]
    bound = core_upper(ts)
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


def covering_number(v: int, k: int, *,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    time_budget: Optional[float] = None) -> int:
    """Exact C(v, k): minimum number of size-<=k blocks covering K_v.

    Scans upward from the iterated-ceiling lower bound.  The scan ends,
    since C(v, 2) one-pair blocks cover K_v; the budgets apply to each
    cover search.
    """
    if not (v >= k >= 2):
        raise ValueError("need v >= k >= 2")
    if v == k:
        return 1
    b = covering_lower_schonheim(v, k) if k >= 3 else covering_lower_eh(v, k)
    while cover_feasible_with_stats(v, (k,) * b, node_budget=node_budget,
                                    time_budget=time_budget)[0] is None:
        b += 1
    return b


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
