"""Simple undirected graphs on 0..n-1, stored as per-vertex adjacency bitsets.

Python ints are the bitsets, so all the hot set algebra (neighbourhood
intersections, cell counts in refinement) is C-level popcount work.

The vertex cap lives here too: every reader of untrusted input checks
it before it allocates a graph, a group table or a part.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

DEFAULT_MAX_VERTICES = 1024


class CapacityError(RuntimeError):
    """The request exceeds a documented size cap."""


def vertex_cap() -> int:
    """The most vertices a graph may have: MHAAR_MAX_VERTICES, default 1024."""
    raw = os.environ.get("MHAAR_MAX_VERTICES", "")
    if not raw:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MHAAR_MAX_VERTICES must be a positive integer, got {raw!r}")
    return cap


def check_vertex_cap(n: int) -> None:
    cap = vertex_cap()
    if n > cap:
        raise CapacityError(f"graph has {n} vertices, over the cap of {cap} "
                            "(set MHAAR_MAX_VERTICES to raise it)")


class Graph:
    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: Optional[list[int]] = None):
        self.n = n
        self.bits = bits if bits is not None else [0] * n

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = Graph(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        self.bits[u] |= 1 << v
        self.bits[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        b = self.bits[v]
        while b:
            low = b & -b
            yield low.bit_length() - 1
            b ^= low

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            b = self.bits[u] >> (u + 1) << (u + 1)  # only v > u
            while b:
                low = b & -b
                yield (u, low.bit_length() - 1)
                b ^= low

    def edge_count(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

    def on_triangle(self, v: int) -> bool:
        bv = self.bits[v]
        b = bv
        while b:
            low = b & -b
            if bv & self.bits[low.bit_length() - 1]:
                return True
            b ^= low
        return False

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            b = frontier
            while b:
                low = b & -b
                nxt |= self.bits[low.bit_length() - 1]
                b ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen.bit_count() == self.n

    def triangle_count(self, v: int) -> int:
        """Number of triangles through v."""
        total = 0
        for u in self.neighbors(v):
            total += (self.bits[v] & self.bits[u]).bit_count()
        return total // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.bits)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"
