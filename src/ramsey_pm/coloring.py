"""Edge colorings of complete graphs and the layered extremal family.

Colors are 1-indexed throughout (matching the text format); vertices are
0-indexed internally and 1-indexed in files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bounds import sorted_targets
from .graphs import SimpleGraph
from .path_matching import pm_order_of_rows


def _tri(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class EdgeColoring:
    """Total r-coloring of the edges of K_n.

    colors is the flat upper triangle in row-major order: entry for edge
    (u, v) with u < v sits at offset(u) + (v - u - 1).
    """

    n: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError(f"need n >= 1 and r >= 1, got n={self.n}, r={self.r}")
        if len(self.colors) != _tri(self.n):
            raise ValueError("color array length does not match n")
        if any(not 1 <= c <= self.r for c in self.colors):
            raise ValueError("colors must lie in 1..r")

    def _index(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no self-loops")
        if u > v:
            u, v = v, u
        return u * self.n - u * (u + 1) // 2 + (v - u - 1)

    def color_of(self, u: int, v: int) -> int:
        return self.colors[self._index(u, v)]

    def class_rows(self) -> list[list[int]]:
        """Adjacency rows of every color class, filled in one pass over the
        edges: class_rows()[c - 1][v] is the color-c neighbour mask of v."""
        n, rows, k = self.n, [[0] * self.n for _ in range(self.r)], 0
        for u in range(n - 1):
            for v, c in enumerate(self.colors[k:k + n - u - 1], u + 1):
                rows[c - 1][u] |= 1 << v
                rows[c - 1][v] |= 1 << u
            k += n - u - 1
        return rows

    def color_class(self, color: int) -> SimpleGraph:
        if not 1 <= color <= self.r:
            raise ValueError(f"color {color} outside 1..{self.r}")
        return SimpleGraph(self.n, tuple(self.class_rows()[color - 1]))

    def restrict(self, n: int) -> "EdgeColoring":
        """The coloring of K_n on the first n vertices."""
        if not 1 <= n <= self.n:
            raise ValueError(f"need 1 <= n <= {self.n}, got {n}")
        return coloring_from_edge_colors(n, self.r, self.color_of)

    def relabel(self, perm: Sequence[int]) -> "EdgeColoring":
        """Coloring with vertex u renamed perm[u]."""
        out = [0] * len(self.colors)
        k = 0
        for u in range(self.n):
            for v in range(u + 1, self.n):
                a, b = perm[u], perm[v]
                if a > b:
                    a, b = b, a
                out[a * self.n - a * (a + 1) // 2 + (b - a - 1)] = self.colors[k]
                k += 1
        return EdgeColoring(self.n, self.r, tuple(out))

    def permute_colors(self, cmap: Sequence[int]) -> "EdgeColoring":
        """Coloring with color c renamed cmap[c-1] (cmap is 1-indexed values)."""
        return EdgeColoring(self.n, self.r, tuple(cmap[c - 1] for c in self.colors))


def coloring_from_edge_colors(n: int, r: int, assignment) -> EdgeColoring:
    """Build a coloring from a callable (u, v) -> color, u < v."""
    cols = []
    for u in range(n):
        for v in range(u + 1, n):
            cols.append(assignment(u, v))
    return EdgeColoring(n, r, tuple(cols))


def layered_coloring(sizes: Sequence[int]) -> EdgeColoring:
    """The coloring [t1, ..., tr]: parts A1..Ar with |Ai| = ti, and every
    edge colored by the largest-index part it touches.

    Parts of size 0 simply leave their color unused.
    """
    if any(t < 0 for t in sizes):
        raise ValueError("part sizes must be nonnegative")
    n = sum(sizes)
    if n < 2:
        raise ValueError("need at least 2 vertices in total")
    r = len(sizes)
    part = []
    for i, t in enumerate(sizes):
        part.extend([i + 1] * t)
    return coloring_from_edge_colors(n, r, lambda u, v: max(part[u], part[v]))


def pm_extremal_coloring(p: Sequence[int]) -> EdgeColoring:
    """The lower-bound coloring [p1-1, ceil(p2/3)-1, ..., ceil(pr/3)-1]."""
    t = sorted_targets(p)
    if t[0] < 2:
        raise ValueError("leading target must be at least 2")
    sizes = [t[0] - 1] + [(pi + 2) // 3 - 1 for pi in t[1:]]
    return layered_coloring(sizes)


def core_lift_coloring(core: EdgeColoring, x: Sequence[int]) -> EdgeColoring:
    """Append blocks X_1..X_r with |X_i| = x_i and paint every edge that
    touches X_i with color i; an edge touching several blocks gets the
    highest block index, i.e. blocks are applied in increasing color order
    with last writer winning.
    """
    if len(x) != core.r:
        raise ValueError("one block size per color required")
    if any(xi < 0 for xi in x):
        raise ValueError("block sizes must be nonnegative")
    n = core.n + sum(x)
    block = [0] * core.n  # 0 = core vertex, else color index of its block
    for i, xi in enumerate(x):
        block.extend([i + 1] * xi)

    def color(u: int, v: int) -> int:
        top = max(block[u], block[v])
        if top == 0:
            return core.color_of(u, v)
        return top

    return coloring_from_edge_colors(n, core.r, color)


def mono_pm_profile(c: EdgeColoring) -> tuple[int, ...]:
    """Per-color maximum path-matching orders."""
    return tuple(pm_order_of_rows(rows, c.n) for rows in c.class_rows())


def mono_core_profile(c: EdgeColoring) -> tuple[int, ...]:
    """Per-color 1-core orders, i.e. how many vertices see each color."""
    return tuple(sum(1 for row in rows if row) for rows in c.class_rows())
