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

The tree is searched depth first in one loop over an explicit stack,
one frame per non-leaf node on the current path, so no recursion and no
recursion limit is involved.  Every accepted generator truncates the
stack to the frame of the first-path node it branched from (its
anchor), which then moves on to its next child; so while level d of the
first path is explored, every generator found so far fixes the first d
branch vertices.  The orbits of the generators found so far are
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

`only_translations(graph, n)` runs the same loop as a yes/no question:
is |Aut| = n, for a graph whose right translations by a group of order
n are automorphisms, acting regularly on each part (each run of n
consecutive vertices)?  Two things change.  At the root, a child in the
same part as a child already tried is skipped: a right translation maps
one onto the other, so their subtrees are isomorphic, and the root
cells are unions of parts because the translations are automorphisms.
(The union-find is not seeded with the translations: below the root
they do not fix the first-path vertices, so orbit pruning there would be
unsound.)  And the search stops at the first generator it accepts.
Found below the first child of the root, it fixes a vertex, which no
translation but the identity does; found under another root child, it
moves the first-path vertex into another part, which no translation
does.  Either way |Aut| > n.  Conversely, if |Aut| > n, either the
stabilizer of the first-path vertex is nontrivial, and its elements map
the first leaf to other leaves under the first root child, or the orbit
of that vertex, a union of parts, holds another part, whose root child
is tried and has the image of the first leaf below it.  So the search
finds a generator unless |Aut| = n.  No order is computed.

The claim check (`evidence`, `check_claim`) works on connection
matrices, so it needs `cayley`, and `cayley` needs `groups`.  It imports
`cayley` inside those two functions rather than at the top: the engine
itself needs only `graphs`, and `mhaar oracle-aut` then starts without
compiling or loading any group or matrix code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .graphs import CapacityError, Graph, check_vertex_cap

if TYPE_CHECKING:
    from .cayley import ConnectionMatrix, Verdict

_FNV = 1099511628211
_MASK = (1 << 64) - 1


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


def automorphism_group(graph: Graph) -> AutResult:
    """Exact automorphism group of the graph.

    The vertex cap guards against accidental huge inputs (override with
    the MHAAR_MAX_VERTICES environment variable).
    """
    res = _search(graph, 0)
    assert res is not None  # only the decision mode stops early
    return res


def only_translations(graph: Graph, n: int) -> bool:
    """Whether |Aut(graph)| = n, for a graph whose automorphisms include
    the right translations by a group of order n, acting regularly on
    each run of n consecutive vertices (the parts of `build_graph`).

    Stops at the first automorphism the search finds; no order is
    computed.  The vertex cap applies as for `automorphism_group`.
    """
    if n < 1 or graph.n % n:
        raise ValueError(f"{graph.n} vertices do not split into parts of size {n}")
    return _search(graph, n) is not None


def _search(graph: Graph, part: int) -> Optional[AutResult]:
    """The search loop; part > 0 is the decision mode of `only_translations`,
    which returns None at the first generator instead of going on."""
    n = graph.n
    check_vertex_cap(n)
    if n == 0:
        return AutResult(1, [], [])
    bits = graph.bits

    keys = [(graph.degree(v), graph.triangle_count(v)) for v in range(n)]
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
    # stack[d] is the non-leaf node at depth d of the current path:
    # [cells, hash, on_first, anchor, target, unvisited target vertices, tried]
    stack: list[list] = []
    # the node to enter next: cells, hash, on_first, anchor, where to
    # start looking for the target cell (every cell before it is a singleton)
    node: Optional[tuple] = (cells, h0, True, 0, 0)
    while node is not None:
        cells, h, on_first, anchor, start = node
        nodes += 1
        if on_first and first_leaf is None:
            first_invs.append(h)  # the first path's trace, one hash per depth
        target = start
        while target < len(cells) and not cells[target] & (cells[target] - 1):
            target += 1
        if target < len(cells):
            stack.append([cells, h, on_first, anchor, target, cells[target], []])
        elif first_leaf is None:
            first_leaf = [c.bit_length() - 1 for c in cells]
        else:
            sigma_l = [0] * n
            for zv, c in zip(first_leaf, cells):
                sigma_l[zv] = c.bit_length() - 1
            sigma = tuple(sigma_l)
            if sigma != identity and _is_automorphism(bits, sigma):
                if part:
                    return None  # not a right translation, so |Aut| > part
                found.append(sigma)
                orbits.add(sigma)
                del stack[anchor + 1 :]  # back to the first-path node it branched from

        node = None
        while node is None and stack:
            frame = stack[-1]
            cells, h, on_first, anchor, target, b, tried = frame
            depth = len(stack) - 1
            if not b:
                stack.pop()
                if on_first:
                    # every generator so far fixes first_branch[:depth], and the
                    # level is exhausted: this orbit is the stabilizer index here
                    order *= orbits.orbit_size(first_branch[depth])
                continue
            low = b & -b
            v = low.bit_length() - 1
            frame[5] = b ^ low
            first = on_first and first_leaf is None
            if first:
                first_branch.append(v)
            elif on_first:
                if part:
                    # no orbits merge in this mode; at the root a right
                    # translation carries v onto a tried child in its part
                    seen = not depth and any(t // part == v // part for t in tried)
                else:
                    root = orbits.find(v)
                    seen = any(orbits.find(t) == root for t in tried)
                if seen:
                    continue
            tried.append(v)
            child = list(cells)
            child[target : target + 1] = [low, cells[target] ^ low]
            ch = _hmix(h, target)
            ch = _refine(bits, child, [low], ch)
            ch = _hmix(ch, len(child))
            if first:
                node = (child, ch, True, depth + 1, target + 1)
            elif depth + 1 < len(first_invs) and ch == first_invs[depth + 1]:
                node = (child, ch, False, anchor, target + 1)
    return AutResult(order, found, orbits.orbits(), nodes)


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


# -- the claim check -----------------------------------------------------------

CLAIM_KINDS = ("hgr", "pgsr")


@dataclass(repr=False, eq=False)  # keeps a Verdict's repr short
class Evidence:
    """What a witness certificate records about a connection matrix."""

    matrix: ConnectionMatrix
    graph: Graph
    aut: AutResult
    fields: dict  # the nine certificate evidence entries, in order


def evidence(cm: ConnectionMatrix) -> Evidence:
    """Build the graph, run the engine once, and collect the evidence."""
    from .cayley import build_graph
    check_vertex_cap(cm.m * cm.group.order)  # before a huge m builds anything
    graph = build_graph(cm)
    aut = automorphism_group(graph)
    n = cm.group.order
    # the engine lists orbits as sorted tuples in sorted order
    parts = [tuple(range(i * n, (i + 1) * n)) for i in range(cm.m)]
    return Evidence(cm, graph, aut, {
        "aut_order": aut.order,
        "group_order": n,
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "valencies": list(cm.valencies()),
        "regular": cm.is_regular(),
        "diagonal_empty": cm.diagonal_empty(),
        "connected": graph.is_connected(),
        "orbits_are_parts": aut.orbits == parts,
    })


def check_claim(witness: Union[ConnectionMatrix, Evidence], kind: str) -> Verdict:
    """The claim `kind` about a matrix, checked in order; the first failure wins.

    "hgr": empty diagonal, regular, |Aut| = |G|, the parts are the
    orbits; "pgsr" skips regular.  The engine runs only after the
    structural checks pass, and not at all when given earlier Evidence.
    """
    from .cayley import Verdict, is_m_haar
    if kind not in CLAIM_KINDS:
        raise ValueError(f"kind must be one of {CLAIM_KINDS}, got {kind!r}")
    given = isinstance(witness, Evidence)
    cm = witness.matrix if given else witness
    haar = is_m_haar(cm)
    # a pgsr claim leaves the valencies free
    if not haar and not (kind == "pgsr" and haar.field == "evidence.regular"):
        return haar
    ev = witness if given else evidence(cm)
    order, n = ev.aut.order, cm.group.order
    if order != n:
        return Verdict(False, order, f"automorphism group has order {order}, "
                       f"group has order {n}", "evidence.aut_order", ev)
    if not ev.fields["orbits_are_parts"]:
        return Verdict(False, order, "vertex orbits do not coincide with the parts",
                       "evidence.orbits_are_parts", ev)
    return Verdict(True, order, evidence=ev)


def is_m_hgr(cm: ConnectionMatrix) -> Verdict:
    """Regular, diagonal-free, and the graph's full group is as small as
    the right translations force it to be: |Aut| equals the group order."""
    return check_claim(cm, "hgr")


def is_m_pgsr(cm: ConnectionMatrix) -> Verdict:
    """Diagonal-free with |Aut| equal to the group order; valencies free."""
    return check_claim(cm, "pgsr")
