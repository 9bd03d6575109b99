"""Graph automorphism groups by individualization and refinement.

The search keeps an ordered partition of the vertices, refined to
equitability: each splitter on the worklist splits every cell by the
neighbour counts of its vertices in the splitter, subcells ordered by
count, and every fragment joins the worklist.  A splitter only reaches
the cells that hold its neighbours, so the rest are never counted: a
splitter with no neighbour in a non-singleton cell is skipped, in a hit
cell the vertices outside the neighbourhood go straight to count 0, and
a singleton splitter splits a cell with one AND.  Refinement stops as
soon as the partition is discrete (McKay 1981; McKay & Piperno 2014).
Non-discrete partitions branch on the first non-singleton cell.  The
first leaf fixes a reference ordering; every later leaf proposes the
map carrying the reference ordering to its own, which is accepted only
if it verifiably preserves adjacency.

The tree is searched depth first and every accepted generator unwinds
the search to the first-path node it branched from, so while level d of
the first path is explored, every generator found so far fixes the
first d branch vertices.  The orbits of the generators found so far are
kept in a union-find, merged in place as each generator is accepted.
A child at a first-path level is pruned when it shares an orbit with a
child already tried, each generator found maps the first-path vertex
outside its current orbit (so none is redundant), and once the level is
done the orbit of its first-path vertex has the size of the stabilizer
index at that level.  The exact group order is the product of these
first-path orbit sizes.  Subtrees are pruned when their refinement-trace
invariant differs from the first path's at the same depth; equal hashes
are always explored, so a hash collision costs time, never soundness.

Vertex colourings are derived from the graph alone (degree and triangle
count per vertex), so results are label-independent.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cayley import ConnectionMatrix, build_graph, is_m_haar
from .graphs import Graph
from .groups import CapacityError

DEFAULT_MAX_VERTICES = 1024
_FNV = 1099511628211
_MASK = (1 << 64) - 1


def _max_vertices() -> int:
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


def _hmix(h: int, x: int) -> int:
    # fixed-multiplier rolling hash: stable across processes and runs
    return ((h ^ (x & _MASK)) * _FNV) & _MASK


# -- permutation helpers ------------------------------------------------------


def _is_automorphism(bits: list[int], p: Sequence[int]) -> bool:
    # a pair of fixed points keeps its adjacency, so only moved rows matter
    for u, row in enumerate(bits):
        if p[u] == u:
            continue
        image = 0
        b = row
        while b:
            low = b & -b
            image |= 1 << p[low.bit_length() - 1]
            b ^= low
        if image != bits[p[u]]:
            return False
    return True


# -- equitable refinement -----------------------------------------------------


def _refine(bits: list[int], cells: list[int], worklist: list[int], h: int) -> int:
    """Refine cells in place to equitability; returns the updated trace hash."""
    n = len(bits)
    wl = list(worklist)
    qi = 0
    # vertices of the non-singleton cells, the only ones a splitter can
    # move; collected when the first splitter with neighbours comes up
    free = -1
    while qi < len(wl) and len(cells) < n:
        splitter = wl[qi]
        qi += 1
        single = not splitter & (splitter - 1)
        if single:
            touched = bits[splitter.bit_length() - 1]
        else:
            touched = 0
            b = splitter
            while b:
                low = b & -b
                touched |= bits[low.bit_length() - 1]
                b ^= low
        if not touched:
            continue
        if free < 0:
            # the cells are disjoint, so their sum is their union
            free = sum(c for c in cells if c & (c - 1))
        touched &= free
        if not touched:
            continue
        shift = 0
        for ci in [i for i, c in enumerate(cells) if c & touched]:
            ci += shift
            cell = cells[ci]
            hit = cell & touched
            rest = cell ^ hit
            if single:
                # counts are 0 (rest) and 1 (hit)
                if not rest:
                    continue
                buckets = {0: rest, 1: hit}
            else:
                buckets = {0: rest} if rest else {}
                b = hit
                while b:
                    low = b & -b
                    cnt = (bits[low.bit_length() - 1] & splitter).bit_count()
                    buckets[cnt] = buckets.get(cnt, 0) | low
                    b ^= low
                if len(buckets) == 1:
                    continue
            counts = sorted(buckets)
            parts = [buckets[c] for c in counts]
            cells[ci : ci + 1] = parts
            h = _hmix(h, ci)
            for c in counts:
                h = _hmix(h, c)
                h = _hmix(h, buckets[c].bit_count())
            if len(cells) == n:
                return h
            for part in parts:
                if not part & (part - 1):
                    free ^= part
            wl.extend(parts)
            shift += len(parts) - 1
    return h


# -- the search ----------------------------------------------------------------


@dataclass
class AutResult:
    """Automorphism group of a graph: exact order, verified generators."""

    order: int
    generators: list[tuple[int, ...]]
    orbits: list[tuple[int, ...]]
    nodes: int = 0

    def orbit_of(self, v: int) -> tuple[int, ...]:
        for orb in self.orbits:
            if v in orb:
                return orb
        raise ValueError(f"vertex {v} not in any orbit")

    def stabilizer_order(self, v: int) -> int:
        # orbit-stabilizer: |G_v| = |G| / |orbit(v)|
        return self.order // len(self.orbit_of(v))

    def is_trivial(self) -> bool:
        return self.order == 1


class _Orbits:
    """Union-find over the vertices, merged by each accepted generator."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def add(self, perm: Sequence[int]) -> None:
        for v, w in enumerate(perm):
            rv, rw = self.find(v), self.find(w)
            if rv != rw:
                if self.size[rv] < self.size[rw]:
                    rv, rw = rw, rv
                self.parent[rw] = rv
                self.size[rv] += self.size[rw]

    def orbit_size(self, v: int) -> int:
        return self.size[self.find(v)]

    def orbits(self) -> list[tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for v in range(len(self.parent)):
            groups.setdefault(self.find(v), []).append(v)
        return sorted(tuple(vs) for vs in groups.values())


class _Jump(Exception):
    __slots__ = ("depth",)

    def __init__(self, depth: int):
        self.depth = depth


def automorphism_group(graph: Graph, initial_colors: Optional[Sequence[int]] = None,
                       max_vertices: Optional[int] = None) -> AutResult:
    """Exact automorphism group of the graph.

    initial_colors restricts automorphisms to colour-preserving ones;
    leave it None for the plain automorphism group.  The vertex cap
    guards against accidental huge inputs (override with the
    MHAAR_MAX_VERTICES environment variable or the max_vertices arg).
    """
    n = graph.n
    cap = max_vertices if max_vertices is not None else _max_vertices()
    if n > cap:
        raise CapacityError(
            f"graph has {n} vertices, over the cap of {cap} "
            "(set MHAAR_MAX_VERTICES or pass max_vertices to raise it)")
    if n == 0:
        return AutResult(1, [], [])
    bits = graph.bits

    if initial_colors is None:
        keys: list = [(graph.degree(v), graph.triangle_count(v)) for v in range(n)]
    else:
        if len(initial_colors) != n:
            raise ValueError("initial_colors length must equal vertex count")
        keys = list(initial_colors)
    cells: list[int] = []
    h0 = 0
    for k in sorted(set(keys)):
        mask = 0
        for v in range(n):
            if keys[v] == k:
                mask |= 1 << v
        cells.append(mask)
        h0 = _hmix(h0, mask.bit_count())
    h0 = _refine(bits, cells, list(cells), h0)

    identity = tuple(range(n))
    found: list[tuple[int, ...]] = []
    orbits = _Orbits(n)
    first_leaf: Optional[list[int]] = None
    first_invs: list[int] = []
    first_branch: list[int] = []
    order = 1
    nodes = 0

    def recurse(cells: list[int], h: int, depth: int, on_first: bool, anchor: int) -> None:
        nonlocal first_leaf, order, nodes
        nodes += 1
        if on_first and first_leaf is None and len(first_invs) == depth:
            first_invs.append(h)

        target = -1
        for idx, c in enumerate(cells):
            if c.bit_count() > 1:
                target = idx
                break

        if target < 0:
            lam = [c.bit_length() - 1 for c in cells]
            if first_leaf is None:
                first_leaf = lam
                return
            sigma_l = [0] * n
            for zv, lv in zip(first_leaf, lam):
                sigma_l[zv] = lv
            sigma = tuple(sigma_l)
            if sigma != identity and _is_automorphism(bits, sigma):
                found.append(sigma)
                orbits.add(sigma)
                raise _Jump(anchor)
            return

        cell = cells[target]
        tried: list[int] = []
        b = cell
        while b:
            low = b & -b
            v = low.bit_length() - 1
            b ^= low
            if on_first and first_leaf is None:
                first_branch.append(v)
            elif on_first:
                root = orbits.find(v)
                if any(orbits.find(t) == root for t in tried):
                    continue
            child = list(cells)
            child[target : target + 1] = [low, cell ^ low]
            ch = _hmix(h, target)
            ch = _refine(bits, child, [low], ch)
            ch = _hmix(ch, len(child))
            child_first = on_first and first_leaf is None
            if not child_first and first_leaf is not None:
                if depth + 1 >= len(first_invs) or ch != first_invs[depth + 1]:
                    tried.append(v)
                    continue
            try:
                recurse(child, ch, depth + 1,
                        child_first, depth + 1 if child_first else anchor)
            except _Jump as jp:
                if jp.depth != depth:
                    raise
            tried.append(v)
        if on_first:
            # every generator so far fixes first_branch[:depth], and the
            # level is exhausted: this orbit is the stabilizer index here
            order *= orbits.orbit_size(first_branch[depth])

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * n + 200))
    try:
        recurse(cells, h0, 0, True, 0)
    finally:
        sys.setrecursionlimit(limit)
    return AutResult(order, found, orbits.orbits(), nodes)


def aut_order(graph: Graph) -> int:
    return automorphism_group(graph).order


# old name, no longer exported; perfbench/test_perfbench.py still checks
# that tracing restores it, so it goes when that test next changes
automorphisms = automorphism_group


# -- brute-force oracle --------------------------------------------------------

BRUTE_FORCE_LIMIT = 9


def brute_force_aut_order(graph: Graph, limit: int = BRUTE_FORCE_LIMIT) -> int:
    """|Aut| by pruned enumeration of all vertex bijections.

    Independent of the refinement machinery on purpose; capped at
    `limit` vertices because the tree is factorial in the worst case.
    """
    n = graph.n
    if n > limit:
        raise CapacityError(f"brute force capped at {limit} vertices, got {n}")
    if n == 0:
        return 1
    bits = graph.bits
    degs = [b.bit_count() for b in bits]
    img = [0] * n
    used = [False] * n
    count = 0

    def rec(u: int) -> None:
        nonlocal count
        if u == n:
            count += 1
            return
        for w in range(n):
            if used[w] or degs[w] != degs[u]:
                continue
            ok = True
            for u2 in range(u):
                if (bits[u] >> u2 & 1) != (bits[w] >> img[u2] & 1):
                    ok = False
                    break
            if ok:
                img[u] = w
                used[w] = True
                rec(u + 1)
                used[w] = False
        return

    rec(0)
    return count


# -- verdicts ------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of a structural check, with the first failure spelled out."""

    ok: bool
    aut_order: Optional[int]
    reason: str = ""
    valencies: tuple[int, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def is_m_hgr(cm: ConnectionMatrix) -> Verdict:
    """Regular, diagonal-free, and the graph's full group is as small as
    the right translations force it to be: |Aut| equals the group order."""
    haar = is_m_haar(cm)
    vals = cm.valencies()
    if not haar:
        return Verdict(False, None, haar.reason, vals)
    aut = automorphism_group(build_graph(cm))
    if aut.order != cm.group.order:
        return Verdict(False, aut.order,
                       f"automorphism group has order {aut.order}, "
                       f"group has order {cm.group.order}", vals)
    return Verdict(True, aut.order, "", vals)


def is_m_pgsr(cm: ConnectionMatrix) -> Verdict:
    """Diagonal-free with |Aut| equal to the group order; valencies free."""
    vals = cm.valencies()
    for i in range(1, cm.m + 1):
        if cm.block(i, i):
            return Verdict(False, None, f"diagonal block ({i}, {i}) is nonempty", vals)
    aut = automorphism_group(build_graph(cm))
    if aut.order != cm.group.order:
        return Verdict(False, aut.order,
                       f"automorphism group has order {aut.order}, "
                       f"group has order {cm.group.order}", vals)
    return Verdict(True, aut.order, "", vals)
