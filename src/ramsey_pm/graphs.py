"""Dense small-graph primitives backed by per-vertex bitmasks.

Vertex sets are plain ints used as bitmasks (bit v = vertex v); ints have
no width, so a graph may have any number of vertices.  Only the searches
bound the sizes they accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

# A vertex set is just a bitmask; kept as an alias for readability.
VertexSet = int


def mask_of(vertices: Iterable[int]) -> VertexSet:
    """Bitmask of the given vertex labels."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of a mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1.

    rows[v] is the neighbour bitmask of v.  The adjacency relation is
    symmetric and irreflexive; instances are immutable and safe to share.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in bits(self.rows[v]):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({u},{v})")

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        """Copy with one extra edge (no-op if already present)."""
        if u == v:
            raise ValueError("self-loop")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return SimpleGraph(self.n, tuple(rows))


def complete_graph(n: int) -> SimpleGraph:
    """K_n; like SimpleGraph, it rejects n < 1."""
    return SimpleGraph(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))
