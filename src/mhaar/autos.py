"""Graph automorphism groups by individualization and refinement.

The search keeps an ordered partition of the vertices, refined to
equitability: each splitter on the worklist splits every cell by the
neighbour counts of its vertices in the splitter, subcells ordered by
count, and every fragment but the last joins the worklist.  A splitter
only reaches the cells that hold its neighbours, so the rest are never
counted: a splitter with no neighbour in a non-singleton cell is
skipped, in a hit cell the vertices outside the neighbourhood go
straight to count 0, and a singleton splitter splits a cell with one
AND.  Refinement stops as soon as the partition is discrete (McKay
1981; McKay & Piperno 2014).  Non-discrete partitions branch on the
first non-singleton cell.  The first leaf fixes a reference ordering;
every later leaf proposes the map carrying the reference ordering to
its own, which is accepted only if it verifiably preserves adjacency.

Leaving the last fragment off the worklist is exact, after Hopcroft
(1971), under one precondition that every refinement keeps: each cell
not on the worklist is one the partition is already equitable against.
The root queues every initial cell but the last; every cell has one
degree, because the initial key includes it, so the partition is
equitable against the vertex set.  A child starts from an equitable
partition and queues only the vertex it individualizes.  When a cell X
splits into P1..Pk, X is accounted for or still queued, so by the time
Pk would be dequeued from the FIFO worklist, X and P1..Pk-1 have been
processed.  Each vertex's count into Pk is then its count into X less
its counts into P1..Pk-1, constant on every cell, so Pk would split
nothing.  The trace hash mixes only on splits, so every result is the
same as with Pk queued.

One partition serves the whole search (`_Partition`).  Beside the cells
in order, as bitmasks, it keeps the start position of each cell and,
in a second list, the non-singleton cells with their starts; a splitter
looks only at that second list, and finds a cell's index from its start
by bisection.  One routine, `split`, makes every split in place and
records it on a trail: the root's split of the vertex set into its
initial cells, each split in refinement, and individualizing a vertex.
A node's frame keeps the trail's length, and before making its next
child it undoes the splits made since, so no child copies the partition.

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

Early abort (McKay & Piperno 2014).  The first path records the running
trace hash after each split of each child's refinement, one list per
depth, and a later child at that depth stops refining at the first
split whose hash differs from the first path's, or at a split the first
path did not make; it is pruned without the rest of its refinement, and
the split is not made.  The trace is label-invariant, so a child that
an automorphism maps onto the first path has the same hash after every
split and is never cut.  The final test is kept: a child whose splits
all match but which ends with fewer cells is pruned as before.  The
rule differs from refining to the end only when two different split
sequences collide in the final 64-bit hash: that subtree used to be
explored and is now cut.  Different split sequences mean that no
automorphism maps one node onto the other, so the cut subtree holds no
automorphism, and the order stays exact.

Known translations.  `automorphism_group(graph, known)` may be given
`known(v, w)`, a permutation that should take vertex v to vertex w, or
None; `evidence` passes the right translations of a Haar graph.  It is
asked only in full mode, at the root, after the orbit test, once the
first leaf is found one level below the root (the first-path vertex v0
alone makes the partition discrete).  A root child w is then accepted
without refinement when sigma = known(v0, w) takes v0 to w and passes
the adjacency check; the node is counted, sigma is kept as a generator
and its orbits merged.  The root partition is invariant under every
automorphism, so an automorphism taking v0 to w carries the first leaf
onto w's leaf; the first leaf is discrete, so that automorphism is
unique, and it is the generator that refining w would have found.  A
map that fails either check is ignored and w is refined as before, so
a wrong `known` costs time, never a result.

The quotient root.  `evidence` also tells `automorphism_group` the part
size |G| of a Haar graph: its right translations are automorphisms,
regular on each run of |G| consecutive vertices (a part).  Every root
cell is then a union of parts.  The initial key is constant on a part,
and if every cell and splitter so far is a union of parts, a
translation carrying one vertex of a part onto another fixes them all,
so every vertex of a part has the same count into the splitter and no
split cuts a part.  So the root is refined one bit per part: a cell or
splitter is the mask of its parts' first vertices, the parts a splitter
S touches come from `adj`, the parts adjacent to each part, a part's
count into S is read at its first vertex v as `(bits[v] & S *
block).bit_count()`, where block = (1 << |G|) - 1 widens each first
vertex to its part, and each size is mixed into the hash times |G|.
This is the vertex-level refinement split for split: the same splitters
in the same order make the same splits, with the same counts and cell
indices, and each size times |G| is the vertex count.  Refinement stops
once every cell is one part; the splitters the vertex-level refinement
would still process then split nothing, so they mix nothing.  The final
cells, widened by `* block`, are the vertex-level root, with its hash.
The decision mode keeps the vertex-level refinement of its per-part key
(below): on its 18-24-vertex graphs the quotient was measured slower.

Vertex colourings are derived from the graph alone (degree and triangle
count per vertex), so results are label-independent.

`extra_automorphism(graph, n)` runs the same loop in decision mode: is
|Aut| = n, for a graph whose right translations by a group of order n
are automorphisms, acting regularly on each part (each run of n
consecutive vertices)?  Two things change.  At the root, a child in the
same part as a child already tried is skipped: a right translation maps
one onto the other, so their subtrees are isomorphic, and the root
cells are unions of parts because the translations are automorphisms.
(The union-find is not seeded with the translations: below the root
they do not fix the first-path vertices, so orbit pruning there would be
unsound.)  And the search stops at the first generator it accepts, and
returns it.  Found below the first child of the root, it fixes a vertex
and is not the identity, which no translation does; found under another
root child, it moves the first-path vertex into another part, which no
translation does.  Either way it is not a right translation, so
|Aut| > n.  Neither property depends on the graph or on the group's
table, so the map is no right translation of any graph on the same
parts: a search keeps the maps it is given, and a kept map that
preserves a later candidate's adjacency shows |Aut| > n for that one
too (see `search`).  Conversely, if |Aut| > n, either the stabilizer of
the first-path vertex is nontrivial, and its elements map the first
leaf to other leaves under the first root child, or the orbit of that
vertex, a union of parts, holds another part, whose root child is tried
and has the image of the first leaf below it.  So the search finds a
generator unless |Aut| = n, and then returns None.  No order is
computed.  The root key is computed once per part, at its first vertex:
the translations are automorphisms, so (degree, triangle count) is
constant on each part, and the cells and hash are those of the key read
at every vertex.

The claim check (`evidence`, `check_claim`) works on connection
matrices, so it needs `cayley`, and `cayley` needs `groups`.  It imports
`cayley` inside those two functions rather than at the top: the engine
itself needs only `graphs`, and `mhaar oracle-aut` then starts without
compiling or loading any group or matrix code.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Union

from .graphs import CapacityError, Graph, check_vertex_cap

if TYPE_CHECKING:
    from .cayley import ConnectionMatrix, Verdict

# known(v, w): a permutation that should take vertex v to w, or None
Known = Callable[[int, int], Optional[Sequence[int]]]

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


# -- the ordered partition -----------------------------------------------------


class _Partition:
    """An ordered partition of the vertices, refined in place.

    `cells` are the cells in order, as bitmasks, and `starts` their first
    positions.  `wide` holds the non-singleton cells, in the same order,
    and `wstarts` their starts.  Each split is recorded on `trail` as
    (cell index, index in wide, the cell, parts, non-singleton parts), and
    `undo(mark)` takes the splits back in reverse order until `trail` has
    `mark` entries again.
    """

    __slots__ = ("cells", "starts", "wide", "wstarts", "trail")

    def __init__(self, cells: Sequence[int]):
        # the vertex set as one cell (the cells are disjoint), split into these
        whole = sum(cells)
        self.cells, self.starts, self.wide, self.wstarts = [whole], [0], [whole], [0]
        self.trail: list[tuple[int, int, int, int, int]] = []
        self.split(0, 0, cells)
        self.trail.clear()

    def split(self, ci: int, k: int, parts: Sequence[int]) -> int:
        """Replace cell `ci`, which is `wide[k]`, by `parts` in order, on the
        trail; returns how many of the parts are non-singleton."""
        cells, starts = self.cells, self.starts
        start = starts[ci]
        pstarts, wparts, wpstarts = [], [], []
        for p in parts:
            pstarts.append(start)
            size = p.bit_count()
            if size > 1:
                wparts.append(p)
                wpstarts.append(start)
            start += size
        self.trail.append((ci, k, cells[ci], len(parts), len(wparts)))
        cells[ci : ci + 1] = parts
        starts[ci : ci + 1] = pstarts
        self.wide[k : k + 1] = wparts
        self.wstarts[k : k + 1] = wpstarts
        return len(wparts)

    def undo(self, mark: int) -> None:
        cells, starts, wide, wstarts, trail = (
            self.cells, self.starts, self.wide, self.wstarts, self.trail)
        while len(trail) > mark:
            ci, k, cell, np, nw = trail.pop()
            cells[ci : ci + np] = [cell]
            del starts[ci + 1 : ci + np]
            wide[k : k + nw] = [cell]
            wstarts[k : k + nw] = [starts[ci]]

    def individualize(self, low: int) -> int:
        """Split the vertex bit `low` off the front of the first non-singleton
        cell, on the trail; returns that cell's index, which is its start
        because every cell before it is a singleton."""
        ci = self.wstarts[0]
        self.split(ci, 0, [low, self.cells[ci] ^ low])
        return ci


# -- equitable refinement -----------------------------------------------------


def _refine(bits: list[int], ptn: _Partition, worklist: list[int], h: int,
            trace: Optional[list[int]] = None, follow: bool = False,
            adj: Optional[list[int]] = None, size: int = 1) -> Optional[int]:
    """Refine the partition in place to equitability; returns the updated
    trace hash.

    With a `trace` and `follow` false, the hash after each split is
    appended to it.  With `follow` true, the refinement stops and returns
    None at the first split whose hash differs from the trace's at that
    position, or that goes past its end (the early abort, see the module
    docstring); the split is then not made.

    With `adj`, the partition is of parts of `size` consecutive vertices
    (the quotient root, see the module docstring): each cell and splitter
    is a mask of its parts' first vertices, and `adj[v]`, for the first
    vertex v of a part, is the mask of the parts adjacent to v's part.

    Precondition: every cell not on the worklist is one the partition is
    already equitable against (the last fragment of a split is not
    queued, see the module docstring).
    """
    starts, wide, wstarts = ptn.starts, ptn.wide, ptn.wstarts
    expect = iter(trace) if follow else None
    if adj is None:
        adj = bits
    block = (1 << size) - 1
    wl = list(worklist)
    qi = 0
    while qi < len(wl) and wide:
        splitter = wl[qi]
        qi += 1
        if not splitter & (splitter - 1):
            touched = adj[splitter.bit_length() - 1]
            # one vertex, not one part of several
            single = size == 1
        else:
            touched = 0
            b = splitter
            while b:
                low = b & -b
                touched |= adj[low.bit_length() - 1]
                b ^= low
            single = False
        if not touched:
            continue
        if not single:
            # the splitter's vertices, each part widened from its first
            span = splitter * block
        shift = 0
        # only the non-singleton cells can split
        for k in [k for k, c in enumerate(wide) if c & touched]:
            k += shift
            cell = wide[k]
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
                    cnt = (bits[low.bit_length() - 1] & span).bit_count()
                    buckets[cnt] = buckets.get(cnt, 0) | low
                    b ^= low
                if len(buckets) == 1:
                    continue
            ci = bisect_left(starts, wstarts[k])
            h = _hmix(h, ci)
            parts = []
            for c in sorted(buckets):
                p = buckets[c]
                h = _hmix(h, c)
                h = _hmix(h, p.bit_count() * size)
                parts.append(p)
            if expect is not None:
                if next(expect, None) != h:
                    return None
            elif trace is not None:
                trace.append(h)
            # recorded before the discrete return, so that undo restores it
            wide_parts = ptn.split(ci, k, parts)
            if not wide:
                return h
            # the last part would split nothing by the time it came up
            wl.extend(parts[:-1])
            shift += wide_parts - 1
    return h


# -- the search ----------------------------------------------------------------


class AutResult(NamedTuple):
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


def automorphism_group(graph: Graph, known: Optional[Known] = None,
                       part: int = 0) -> AutResult:
    """Exact automorphism group of the graph.

    `known(v, w)`, when given, returns a permutation that should take
    vertex v to vertex w, or None; the search tries it before it refines
    a root child w, and keeps it only if it is an automorphism taking v to
    w (see the module docstring).  A wrong answer costs time, never a
    result: every field of the result is the same with or without it.

    `part` > 0 states what `extra_automorphism` assumes: the right
    translations by a group of order `part` are automorphisms, acting
    regularly on each run of `part` consecutive vertices.  The root is
    then refined one part at a time (see the module docstring), with the
    same result; a graph that breaks the assumption may get a wrong one.

    The vertex cap guards against accidental huge inputs (override with
    the MHAAR_MAX_VERTICES environment variable).
    """
    if part:
        _check_parts(graph, part)
    res = _search(graph, part, False, known)
    assert isinstance(res, AutResult)  # only the decision mode returns a map
    return res


def extra_automorphism(graph: Graph, n: int) -> Optional[tuple[int, ...]]:
    """An automorphism of the graph that is not a right translation, or
    None when |Aut(graph)| = n, for a graph whose automorphisms include
    the right translations by a group of order n, acting regularly on
    each run of n consecutive vertices (the parts of `build_graph`).

    The map returned, as the image of each vertex, is the first generator
    the search accepts: it fixes a vertex and is not the identity, or it
    moves a vertex into another part (see the module docstring).  Either
    way it is no right translation on these parts, whatever the graph,
    so it refutes any graph on them whose adjacency it preserves.  No
    order is computed.  The vertex cap applies as for
    `automorphism_group`.
    """
    _check_parts(graph, n)
    res = _search(graph, n, True)
    assert not isinstance(res, AutResult)  # the decision mode returns a map
    return res


def _check_parts(graph: Graph, n: int) -> None:
    if n < 1 or graph.n % n:
        raise ValueError(f"{graph.n} vertices do not split into parts of size {n}")


def _root_partition(graph: Graph, part: int = 0,
                    quotient: bool = False) -> tuple[_Partition, int]:
    """The root's equitable partition and its trace hash.

    The initial cells are the classes of (degree, triangle count), in key
    order.  All but the last are queued.  That meets `_refine`'s
    precondition: every cell has one degree, so the partition is already
    equitable against the vertex set, and the last cell is the vertex
    set less the queued ones.

    With part > 0 the right translations are automorphisms, regular on
    each part, so the key is constant on a part and is computed once per
    part, at its first vertex.  The decision mode then refines the
    vertices as before; with `quotient`, the parts are refined, one bit
    each, and the final cells widened to their vertices (see the module
    docstring).
    """
    n, bits = graph.n, graph.bits
    step = part or 1
    block = (1 << step) - 1
    # the vertices a bit of a cell stands for, and the bits of one part
    size, unit = (step, 1) if quotient else (1, block)
    classes: dict[tuple[int, int], int] = {}
    for v in range(0, n, step):
        key = (graph.degree(v), graph.triangle_count(v))
        classes[key] = classes.get(key, 0) | unit << v
    cells = [classes[k] for k in sorted(classes)]
    h = 0
    for mask in cells:
        h = _hmix(h, mask.bit_count() * size)
    ptn = _Partition(cells)
    if size == 1:
        return ptn, _refine(bits, ptn, cells[:-1], h)
    # the parts adjacent to each part, read at its first vertex
    adj = [0] * n
    for v in range(0, n, step):
        b = bits[v]
        while b:
            u = (b & -b).bit_length() - 1
            first = u - u % step
            adj[v] |= 1 << first
            b &= ~block << first  # the rest of u's part adds nothing
    h = _refine(bits, ptn, cells[:-1], h, adj=adj, size=step)
    return _Partition([c * block for c in ptn.cells]), h


def _search(graph: Graph, part: int, decide: bool, known: Optional[Known] = None
            ) -> Union[AutResult, tuple[int, ...], None]:
    """The search loop; `decide` is the decision mode of
    `extra_automorphism`, which returns the first generator it accepts
    instead of going on, and None if it accepts none.  With
    part > 0 the right translations are automorphisms (see
    `automorphism_group`)."""
    n = graph.n
    check_vertex_cap(n)
    if n == 0:
        return None if decide else AutResult(1, [], [])
    bits = graph.bits
    ptn, h0 = _root_partition(graph, part, quotient=not decide)
    cells, wide, trail = ptn.cells, ptn.wide, ptn.trail

    identity = tuple(range(n))
    found: list[tuple[int, ...]] = []
    orbits = _Orbits(n)
    first_leaf: Optional[list[int]] = None
    first_invs: list[int] = []
    # first_traces[d]: the hash after each split refining the first path's
    # child of its depth-d node
    first_traces: list[list[int]] = []
    first_branch: list[int] = []
    order = 1
    nodes = 0
    # stack[d] is the non-leaf node at depth d of the current path:
    # [trail length, hash, on_first, anchor, unvisited vertices of the first
    # non-singleton cell, tried]; undoing the trail to its length restores
    # its partition
    stack: list[list] = []
    # the node to enter next, whose partition ptn holds: hash, on_first, anchor
    node: Optional[tuple] = (h0, True, 0)
    while node is not None:
        h, on_first, anchor = node
        nodes += 1
        if on_first and first_leaf is None:
            first_invs.append(h)  # the first path's trace, one hash per depth
        if wide:
            stack.append([len(trail), h, on_first, anchor, wide[0], []])
        elif first_leaf is None:
            first_leaf = [c.bit_length() - 1 for c in cells]
        else:
            sigma_l = [0] * n
            for zv, c in zip(first_leaf, cells):
                sigma_l[zv] = c.bit_length() - 1
            sigma = tuple(sigma_l)
            if sigma != identity and _is_automorphism(bits, sigma):
                if decide:
                    return sigma  # not a right translation, so |Aut| > part
                found.append(sigma)
                orbits.add(sigma)
                del stack[anchor + 1 :]  # back to the first-path node it branched from

        node = None
        while node is None and stack:
            frame = stack[-1]
            mark, h, on_first, anchor, b, tried = frame
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
            frame[4] = b ^ low
            first = on_first and first_leaf is None
            if first:
                first_branch.append(v)
            elif on_first:
                if decide:
                    # no orbits merge in this mode; at the root a right
                    # translation carries v onto a tried child in its part
                    seen = not depth and any(t // part == v // part for t in tried)
                else:
                    root = orbits.find(v)
                    seen = any(orbits.find(t) == root for t in tried)
                if seen:
                    continue
                if not depth and known is not None and len(first_invs) == 2:
                    # the first leaf is one level down: the automorphism
                    # taking its vertex to v, if any, is the one below v
                    aut = known(first_branch[0], v)
                    if (aut is not None and aut[first_branch[0]] == v
                            and _is_automorphism(bits, aut)):
                        nodes += 1
                        tried.append(v)
                        found.append(tuple(aut))
                        orbits.add(aut)
                        continue
            tried.append(v)
            ptn.undo(mark)
            ch = _hmix(h, ptn.individualize(low))
            if first:
                trace: list[int] = []
                first_traces.append(trace)
                ch = _hmix(_refine(bits, ptn, [low], ch, trace), len(cells))
                node = (ch, True, depth + 1)
            elif depth < len(first_traces):
                ch = _refine(bits, ptn, [low], ch, first_traces[depth], follow=True)
                if ch is not None:
                    ch = _hmix(ch, len(cells))
                    if ch == first_invs[depth + 1]:
                        node = (ch, False, anchor)
    return None if decide else AutResult(order, found, orbits.orbits(), nodes)


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


class Evidence(NamedTuple):
    """What a witness certificate records about a connection matrix."""

    matrix: ConnectionMatrix
    graph: Graph
    aut: AutResult
    fields: dict  # the nine certificate evidence entries, in order

    def __repr__(self) -> str:  # keeps a Verdict's repr short
        return f"Evidence(|Aut|={self.aut.order}, vertices={self.graph.n})"


def evidence(cm: ConnectionMatrix) -> Evidence:
    """Build the graph, run the engine once, and collect the evidence."""
    from .cayley import build_graph
    check_vertex_cap(cm.m * cm.group.order)  # before a huge m builds anything
    graph = build_graph(cm)
    n = cm.group.order
    aut = automorphism_group(graph, _translations(cm), n)
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


def _translations(cm: ConnectionMatrix) -> Known:
    """The right translation taking v to w when they lie in the same part,
    for `automorphism_group`'s `known`: (h, i) -> (h * h_v^-1 * h_w, i)."""
    from .cayley import right_translation
    g, n = cm.group, cm.group.order

    def known(v: int, w: int) -> Optional[list[int]]:
        if v // n != w // n:
            return None
        return right_translation(cm, g.mul(g.inv(v % n), w % n))
    return known


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
        return Verdict(False, "evidence.aut_order", f"automorphism group has "
                       f"order {order}, group has order {n}", order, ev)
    if not ev.fields["orbits_are_parts"]:
        return Verdict(False, "evidence.orbits_are_parts",
                       "vertex orbits do not coincide with the parts", order, ev)
    return Verdict(True, aut_order=order, evidence=ev)


def is_m_hgr(cm: ConnectionMatrix) -> Verdict:
    """Regular, diagonal-free, and the graph's full group is as small as
    the right translations force it to be: |Aut| equals the group order."""
    return check_claim(cm, "hgr")


def is_m_pgsr(cm: ConnectionMatrix) -> Verdict:
    """Diagonal-free with |Aut| equal to the group order; valencies free."""
    return check_claim(cm, "pgsr")
