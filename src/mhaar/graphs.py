"""Simple undirected graphs on 0..n-1, stored as per-vertex adjacency bitsets.

Python ints are the bitsets, so all the hot set algebra (neighbourhood
intersections, cell counts in refinement) is C-level popcount work.

The vertex cap lives here too: every reader of untrusted input checks
it before it allocates a graph, a group table or a part.  So do the
search's default candidate budget, which the CLI reads without loading
the search, and `read_input`, the one reader of input files, whose byte
limit derives from the cap.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

DEFAULT_MAX_VERTICES = 1024
# the most MHAAR_MAX_VERTICES may ask for: the largest group table the spec
# parser then admits builds in about 3 s and 230 MB (D2048, C2^11), where
# order 4096 takes 9 s (D4096) or 750 MB (C4096)
MAX_VERTICES_CEILING = 2048
DEFAULT_BUDGET = 10 ** 8  # candidates a search may count before it refuses


class CapacityError(RuntimeError):
    """The request exceeds a documented size cap."""


def vertex_cap() -> int:
    """The most vertices a graph may have: MHAAR_MAX_VERTICES, default 1024,
    at most `MAX_VERTICES_CEILING`."""
    raw = os.environ.get("MHAAR_MAX_VERTICES", "")
    if not raw:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if not 1 <= cap <= MAX_VERTICES_CEILING:
        raise ValueError(f"MHAAR_MAX_VERTICES must be an integer from 1 to "
                         f"{MAX_VERTICES_CEILING}, got {raw!r}")
    return cap


def check_vertex_cap(n: int) -> None:
    cap = vertex_cap()
    if n > cap:
        raise CapacityError(f"graph has {n} vertices, over the cap of {cap} "
                            "(set MHAAR_MAX_VERTICES to raise it)")


def input_byte_cap() -> int:
    """The most bytes an input file may hold: 16 per entry of a square
    table on the vertex cap, and at least 64 KiB.

    The largest legitimate inputs grow with the square of the vertex
    count: at the default cap, the edge list of K1024 is about 5 MB and a
    1024-element group table about 6 MB of JSON (12 MB indented).
    """
    cap = vertex_cap()
    return max(1 << 16, 16 * cap * cap)


def read_input(path: str) -> str:
    """The text of an input file, read as UTF-8 up to `input_byte_cap`
    bytes; a longer file raises CapacityError naming it."""
    limit = input_byte_cap()
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise CapacityError(f"{path}: over {limit} bytes, the input cap for "
                            f"{vertex_cap()} vertices "
                            "(set MHAAR_MAX_VERTICES to raise it)")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 text: {e}") from None


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

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            b = self.bits[u] >> (u + 1) << (u + 1)  # only v > u
            while b:
                low = b & -b
                yield (u, low.bit_length() - 1)
                b ^= low

    def edge_count(self) -> int:
        return sum(b.bit_count() for b in self.bits) // 2

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
        bits = self.bits
        bv = b = bits[v]
        total = 0
        while b:
            low = b & -b
            total += (bv & bits[low.bit_length() - 1]).bit_count()
            b ^= low
        return total // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"
