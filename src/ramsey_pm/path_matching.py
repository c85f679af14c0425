"""Path-matching deficiency and maximum path-matching order.

A path-matching is a vertex-disjoint union of paths with at least two
vertices each; its order is the number of vertices it covers.  Any such
union can be rewritten using only P2 and P3 components, which is what the
brute-force packing oracle enumerates.

The deficiency pd(G), the number of vertices missed by a maximum
path-matching, satisfies the minimax identity

    pd(G) = max over X of  (# isolated vertices of G - X) - 2|X|

and a set X attaining the maximum is called an LV set.  The same
identity is Hall's condition for stars with one or two leaves (Amahashi
and Kano), so pd(G) is the deficiency of a bipartite matching: left copies
of the vertices, each matched at most once, into right copies, each taking
at most two, along the edges of G.  One augmenting-path routine computes
it in polynomial time, and the alternating paths from the unmatched left
vertices give the least LV set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import SimpleGraph, VertexSet, bits, mask_of

ORACLE_CAP = 10


@dataclass(frozen=True)
class DeficiencyCertificate:
    """An LV set together with the isolated vertices it leaves behind.

    Invariants: |isolated_witness| - 2|lv_set| = deficiency, and every
    witness vertex has all of its neighbours inside lv_set.
    """

    lv_set: VertexSet
    deficiency: int
    isolated_witness: VertexSet

    def check(self, g: SimpleGraph) -> None:
        """Raise if the certificate does not hold in g."""
        if self.lv_set & self.isolated_witness:
            raise ValueError("LV set and witness overlap")
        if self.isolated_witness.bit_count() - 2 * self.lv_set.bit_count() != self.deficiency:
            raise ValueError("witness count does not match deficiency")
        for v in bits(self.isolated_witness):
            if g.rows[v] & ~self.lv_set:
                raise ValueError(f"witness vertex {v} has a neighbour outside the LV set")


def _isolated_after_removal(rows: tuple[int, ...], xm: VertexSet) -> VertexSet:
    """Vertices outside xm whose neighbours all lie in xm."""
    rest = ((1 << len(rows)) - 1) ^ xm
    return mask_of(v for v in bits(rest) if rows[v] & rest == 0)


def _star_matching(rows: tuple[int, ...], held: list[int] | None = None, full: int = 0,
                   left: tuple[int, ...] | None = None) -> tuple[int, VertexSet, VertexSet]:
    """(pd, least LV set, full) of the graph given by rows.

    A maximum matching of left copies (capacity 1) into right copies
    (capacity 2) along the edges, grown one left vertex at a time by
    depth-first augmenting paths; pd counts the left vertices that stay
    unmatched.  The right vertices that alternating paths reach from the
    unmatched ones form an LV set contained in every other, hence the
    unique one of minimum size.  A failed search never reaches a vertex
    that a later augmenting path changes, so that set is the union of the
    right vertices each failed search saw.

    By default the matching starts empty and every vertex is tried.  A
    caller may pass a matching to grow, as held (right vertex -> mask of
    the left vertices it holds, updated in place) and full (the right
    vertices holding two), and the left vertices to try; then pd counts
    those of them that stay unmatched.
    """
    if held is None:
        held = [0] * len(rows)
    seen = 0  # right vertices seen by the current search

    def augment(u: int) -> bool:
        nonlocal full, seen
        todo = rows[u] & ~seen
        seen |= todo
        spare = todo & ~full
        if spare:
            v = (spare & -spare).bit_length() - 1
            if held[v]:
                full |= 1 << v
            held[v] |= 1 << u
            return True
        for v in bits(todo):
            for w in bits(held[v]):
                if augment(w):
                    held[v] ^= 1 << w | 1 << u
                    return True
        return False

    pd = lv = 0
    for u in range(len(rows)) if left is None else left:
        seen = 0
        if not augment(u):
            pd += 1
            lv |= seen
    return pd, lv, full


def deficiency(g: SimpleGraph) -> tuple[int, DeficiencyCertificate]:
    """Exact pd(g) with a certificate.

    The LV set is the least one, so certificates are stable across runs.
    """
    pd, lv, _ = _star_matching(g.rows)
    return pd, DeficiencyCertificate(lv, pd, _isolated_after_removal(g.rows, lv))


@lru_cache(maxsize=1 << 18)
def _pm_order(rows: tuple[int, ...]) -> int:
    """Max path-matching order of the graph given by rows."""
    return len(rows) - _star_matching(rows)[0]


def pm_order_of_rows(rows, n: int) -> int:
    """Max path-matching order from the n adjacency rows of a graph.

    The result is cached on the rows as given; isolated vertices need no
    special case, since the matching leaves them unmatched.  The coloring
    search leans on the cache heavily.
    """
    return _pm_order(tuple(rows))


@lru_cache(maxsize=1 << 15)
def pendant_gains(rows: tuple[int, ...]) -> tuple[VertexSet, VertexSet]:
    """The vertices x at which a pendant edge, from x to a new vertex,
    raises the max path-matching order of the graph given by rows by at
    least 1, and those where it raises it by 2 (it never does more).

    An isolated x gains 2 (the edge itself).  Any other x starts from one
    maximum matching M of the graph, kept for all of them; with the new
    vertex z and the edge (x, z) added, the gain is the number of
    augmenting paths two searches find.  The first starts at z.  Any
    other path starts at a vertex that M leaves unmatched, and a search
    that fails once never succeeds later, so the second is one search from
    all of those at once: from a virtual left vertex whose row is the
    union of theirs (plus z when x is one of them, for the edge x -> z).
    Cached on the rows as given.
    """
    n = len(rows)
    held = [0] * (n + 1)
    _, _, full = _star_matching(rows, held)
    matched = reach = 0
    for h in held:
        matched |= h
    for u in range(n):
        if not matched >> u & 1:
            reach |= rows[u]
    one = two = 0
    for x in range(n):
        if rows[x]:
            source = reach | 1 << n if not matched >> x & 1 else reach
            ext = rows[:x] + (rows[x] | 1 << n,) + rows[x + 1:] + (1 << x, source)
            gain = 2 - _star_matching(ext, held[:], full, (n, n + 1))[0]
        else:
            gain = 2
        if gain:
            one |= 1 << x
            if gain == 2:
                two |= 1 << x
    return one, two


def max_pm_order(g: SimpleGraph) -> int:
    """Maximum order of a path-matching in g, as n - pd(g)."""
    return pm_order_of_rows(g.rows, g.n)


def packing_oracle(g: SimpleGraph) -> int:
    """Exhaustive {P2, P3}-packing, independent of the deficiency formula.

    Bottom-up over vertex subsets: the lowest vertex of the remaining set
    is either left uncovered, matched by an edge, or placed in a P3 as an
    endpoint or as the centre.  Exact for n <= 10; used for testing.
    """
    n = g.n
    if n > ORACLE_CAP:
        raise ValueError(f"packing oracle capped at {ORACLE_CAP} vertices, got {n}")
    rows = g.rows
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for mask in range(1, full + 1):
        vb = mask & -mask
        rest = mask ^ vb
        best = dp[rest]
        nb = rows[vb.bit_length() - 1] & rest
        mm = nb
        while mm:
            ub = mm & -mm
            mm ^= ub
            rest2 = rest ^ ub
            t = 2 + dp[rest2]
            if t > best:
                best = t
            mw = rows[ub.bit_length() - 1] & rest2
            while mw:
                wb = mw & -mw
                mw ^= wb
                t = 3 + dp[rest2 ^ wb]
                if t > best:
                    best = t
            mw = nb & rest2 & ~((ub << 1) - 1)  # centres: second leg above u avoids repeats
            while mw:
                wb = mw & -mw
                mw ^= wb
                t = 3 + dp[rest2 ^ wb]
                if t > best:
                    best = t
        dp[mask] = best
    return dp[full]
