"""Exhaustive existence search over all m-part Haar-type matrices.

The decision procedure in `constructions` answers from a theorem; this
module answers by enumeration, so the two can be checked against each
other on small cases, and so that m = 2 (outside the classification)
can still be decided.

Candidates are grouped by *profile*: the upper-triangular array of
block sizes.  A witness graph is regular, and the valency of part i is
the sum of row i's block sizes, so only equal-row-sum profiles can
carry witnesses.  Within a profile, blocks range over all size-s
subsets of the group.

Mode "exhaustive" enumerates that whole space.  Mode "normalized"
shrinks it soundly: translating part i by b_i maps block (i, j) to
b_j * T_ij * b_i^{-1}, an isomorphism of derived graphs, and walking a
spanning forest of the profile's nonempty-block support lets the b_i
force the identity into every forest block.  Every isomorphism class
with that profile keeps a representative, so existence answers agree
with exhaustive mode; only the candidate counts differ.

The space is sized before any candidate (see `space_size`): a memoized
count on degree classes bounds it, and normalized mode then counts its
candidates exactly over the cell states that the profile walk takes.
Those counts depend only on m and |G|, so one memo per (m, |G|) serves
the sizing, the walk and any later sizing or search of the same pair
(`reverify` checks a certificate's sizes, then reruns its search); the
last pair's memo is kept.  The walk is depth-first over an explicit
stack, so a walk as deep as a thousand cells meets no recursion limit,
and it enters only states that hold profiles, so it needs no budget of
its own.

The trivial group gets its own scanner: its blocks are 0/1, so
candidates are plain d-regular graphs, enumerated row by row with
degree-feasibility pruning, which is far smaller than the generic
profile space.

Every candidate graph has the right translations as automorphisms, so
it is a witness exactly when they are all of Aut; the engine is asked
only that (`autos.extra_automorphism`), and stops at the first
automorphism that is not a translation instead of computing |Aut|.  It
returns that map, and each search keeps the last few maps it was given
(`_decider`), one list for all of its profiles or degrees.  A candidate
is first checked against the kept maps, the one used last first, and
the engine runs only when none of them preserves its adjacency.  This
is sound: a map from the engine fixes a vertex without being the
identity, or moves a vertex into another part, so it is no right
translation whatever the graph, and every candidate of a search has the
same vertices and parts.  A kept map that passes is an automorphism
that is not a translation, so the candidate is decided "no" exactly as
the engine would decide it.  A witness passes no kept map, so it
reaches the engine; the answers, `examined` and the witness are those
of the engine alone, and only the number of engine calls falls.

Both streams also skip the engine for a candidate that a known
isomorphism maps onto an earlier candidate of the same stream.  In
normalized mode the maps are the part translations above that keep
the identity in every forest block, and the order is the lexicographic
order of the block tuple; in the degree scan they are the swaps of two
adjacent vertices of N(0) or of its complement, and the order is that
of (N+(1), ..., N+(m-1)), where N+(u) holds the neighbours above u.
This is sound: a skipped candidate is isomorphic to an earlier one, so
by induction to a candidate the engine answered "no".  The first
witness has no earlier image (it would be an earlier witness), so it is
reached at the same position, and `examined` still counts every
candidate.  Exhaustive mode skips nothing: it decides every candidate,
by a kept map or by the engine.

Normalized mode also skips whole profiles (McKay 1998).  Relabelling the
parts by a permutation t maps a candidate of profile P onto an
isomorphic candidate of profile t(P), inverting a block whose parts
change order; t(P) has P's row sums, so it is a profile of the same
valency.  If t(P) is lexicographically smaller, it came earlier in the
walk, and its normalized candidates hold every isomorphism class of its
profile, so P holds no witness unless t(P) did, and then the search
would have ended there.  So such a profile is counted in `examined` and
never decided.  At m <= 3 every profile is least: its row sums force all
sizes equal.

Normalized mode tests translations on block prefixes too, as orderly
generation does (Read 1978; McKay 1998).  A profile's blocks are set in
cell order, and the prefix of the first k cells is tested once cell k-1
is set, when the live cells among them join their parts into one
component and a later cell is live; `_translation_check` names these
lengths itself, from the pass over the cells that sets up the test.  If
a translation that keeps the identity in the forced blocks among the k
cells maps the prefix lower, every completion is counted and skipped.
This is sound: each later forced block joins two components, so at
least one of its parts lies outside the prefix's one; choosing those
parts' a_j in forest order, so that each forced block keeps the
identity, extends the translation to the completion, whose image is
then an earlier candidate of the stream.
So the engine sees the same candidates in the same order, and
`examined`, `total_space` and the witness are those of the test on
whole candidates.  A prefix of two components is not cut: a later block
that joins them could tie a translation's parts together.  The blocks
between two tested prefixes are walked as one segment, and a segment's
first choice, each block the least of its pool, is not tested: an image
below it would already be below on the shorter prefix, whose test
failed.  D6/3 makes 319 translation tests where the test on whole
candidates made 4,031.

The degree scan is orderly as well: a swap decides
"earlier" on a prefix of rows, so it is tested as each row is fixed, and
a prefix whose every completion maps to an earlier graph is cut without
being walked.  Its graphs still count in `examined` (and against the
budget): they are the labelled graphs on the unfinished vertices with
their remaining degrees, the same count with block sizes capped at 1.
C1/9 builds 81 graphs of its 14,634.
"""

from __future__ import annotations

import functools
import itertools
import time
from math import comb, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .autos import _is_automorphism, automorphism_group, extra_automorphism  # noqa: F401
from .cayley import ConnectionMatrix, build_graph
from .graphs import DEFAULT_BUDGET, Graph, check_vertex_cap
from .groups import CapacityError, Group, cyclic

# automorphism_group is unused here, but the tracing test in
# perfbench/test_perfbench.py expects this module to bind it

Profile = tuple[int, ...]  # block sizes along lex-ordered cells (i, j), i < j
Blocks = tuple[tuple[int, ...], ...]  # one candidate: a sorted block per cell
Decide = Callable[[Graph, int], bool]  # whether |Aut(graph)| = n (`_decider`)


def _cells(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


# -- the block-size profiles: one walk over the cells in order -----------------

CellState = tuple[int, int, tuple[int, ...], tuple[int, ...]]


def _cell_moves(state: CellState, m: int, n: int
                ) -> list[tuple[int, bool, int, CellState]]:
    """(size, forest, factor, next state) for each size the cell may take.

    A state is the next cell (i, j), what parts i..m still need of their
    row sums, and their components so far, labelled in order of first
    appearance.  A row's last cell must meet its need; the last cell
    meets part m's too.  A nonempty cell joining two components is in the
    spanning forest of a greedy union-find in cell order: normalized mode
    keeps comb(n-1, s-1) of its blocks, and comb(n, s) of any other's.
    """
    i, j, need, comp = state
    b = j - i  # part j's place among the open parts; part i's is 0
    lo = max(need) if i == m - 1 else need[0] if j == m else 0
    moves = []
    for s in range(lo, min(n, need[0], need[b]) + 1):
        left = [r - s if k in (0, b) else r for k, r in enumerate(need)]
        # part i is labelled 0; merging label comp[b] into it keeps the order
        forest = s > 0 and comp[b] != 0
        parts = (tuple(0 if c == comp[b] else c - (c > comp[b]) for c in comp)
                 if forest else comp)
        if j < m:
            later = (i, j + 1, tuple(left), parts)
        else:  # row i closes, and the other parts are labelled afresh
            labels: dict[int, int] = {}
            later = (i + 1, i + 2, tuple(left[1:]),
                     tuple(labels.setdefault(c, len(labels)) for c in parts[1:]))
        moves.append((s, forest, comb(n - 1, s - 1) if forest else comb(n, s), later))
    return moves


@functools.lru_cache(maxsize=1)
def _cell_counts(m: int, n: int) -> dict:
    """The counted cell states for m parts over a group of order n, each
    as (profiles, normalized candidates).

    The counts depend on (m, n) alone, so the sizing, the walk and a
    rerun of the same pair share them.
    """
    return {(m, m + 1, (0,), (0,)): (1, 1)}  # every cell is set


def _counted_root(m: int, n: int, d: int) -> CellState:
    """The first cell state of valency d, once `_cell_counts` holds it and
    every later state."""
    root = (1, 2, (d,) * m, tuple(range(m)))
    _evaluate(root, lambda state: [(later, (1, factor)) for _, _, factor, later
                                   in _cell_moves(state, m, n)], _cell_counts(m, n))
    return root


class SearchReport(NamedTuple):
    group: Group
    m: int
    mode: str
    exists: bool
    profiles: int
    total_space: Optional[int]  # None when the mode streams without a precount
    examined: int
    witness: Optional[ConnectionMatrix]
    elapsed: float

    # the search stops at its first witness, and enumerates the whole
    # space when it finds none
    witnesses = property(lambda self: int(self.exists))
    exhausted = property(lambda self: not self.exists)

    def __str__(self) -> str:
        head = (f"{self.group.label} m={self.m} [{self.mode}] "
                f"examined {self.examined}"
                + ("" if self.total_space is None else f"/{self.total_space}"))
        if self.exists:
            return head + f": witness found ({self.witnesses} seen)"
        return head + ": none exist"


# -- the trivial group: an orderly scan over regular graphs --------------------


def _assignment_count(sums: Sequence[int], n: int,
                      memo: dict[tuple[int, ...], tuple[int, int]]
                      ) -> tuple[int, int]:
    """(size assignments, candidates) for these row sums and size cap n.

    An assignment gives each pair of vertices a size 0..n, so that each
    vertex's sizes add up to its row sum; it holds the product of
    comb(n, s) over its pairs as candidates.  With m row sums of d, these
    are the valency-d profiles and their exhaustive candidates; with
    n = 1, both numbers are the labelled simple graphs with these degrees.

    The count depends only on how many vertices need each degree, so a
    state is that class vector (entry e-1 counts the vertices that need
    e), and the memo is keyed on it.
    """
    memo.setdefault((), (1, 1))
    if sum(sums) % 2:
        return 0, 0
    classes = [0] * (max(sums, default=0) + 1)
    for r in sums:
        classes[r] += 1
    return _evaluate(_state(classes), lambda state: _moves(state, n).items(), memo)


def _evaluate(root, moves: Callable[..., Iterable], memo: dict) -> tuple[int, int]:
    """memo[root]: a state's pair sums a and c times the later pair of its
    (later, (a, c)) moves, from an explicit stack and final states in memo."""
    stack: list[list] = [[root, None]]
    while stack:
        frame = stack[-1]
        state, later = frame
        if state in memo:
            stack.pop()
            continue
        if later is None:
            later = frame[1] = list(moves(state))
            missing = [[after, None] for after, _ in later if after not in memo]
            if missing:
                stack.extend(missing)
                continue
        stack.pop()
        first = second = 0
        for after, (a, c) in later:
            after_a, after_c = memo[after]
            first += a * after_a
            second += c * after_c
        memo[state] = first, second
    return memo[root]


def _state(classes: Sequence[int]) -> tuple[int, ...]:
    """The class vector of degrees 1.. (classes[0] counts finished vertices)."""
    end = len(classes)
    while end > 1 and not classes[end - 1]:
        end -= 1
    return tuple(classes[1:end])


def _moves(state: tuple[int, ...], n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The states left once one vertex's row is set, each with its
    (assignments, candidates) multiplier.

    The vertex that needs least gives out its whole sum.  For each class
    e, and each size s of 1..min(n, e) in turn, it picks k of the class's
    vertices not yet given a size: comb(free, k) ways, each holding
    comb(n, s)^k candidates, and those vertices then need e - s.
    """
    classes = [0, *state]
    r = next(e for e, count in enumerate(classes) if count)
    classes[r] -= 1
    ways = {(r, tuple(classes)): (1, 1)}  # (sum left, classes) -> multipliers
    for e in range(1, len(classes)):
        for s in range(1, min(n, e) + 1):
            held = comb(n, s)
            step: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
            for (left, now), (a, c) in ways.items():
                free = now[e]
                for k in range(min(free, left // s) + 1):
                    after = list(now)
                    after[e] -= k
                    after[e - s] += k
                    key = (left - k * s, tuple(after))
                    pick = comb(free, k)
                    old_a, old_c = step.get(key, (0, 0))
                    step[key] = old_a + a * pick, old_c + c * pick * held ** k
            ways = step
    moves: dict[tuple[int, ...], tuple[int, int]] = {}
    for (left, after), (a, c) in ways.items():
        if not left:
            later = _state(after)
            old_a, old_c = moves.get(later, (0, 0))
            moves[later] = old_a + a, old_c + c
    return moves


def _degree_scan(m: int, d: int, examined: int, budget: int,
                 decide: Decide) -> tuple[int, Optional[Graph]]:
    """Decide the d-regular graphs on m vertices with N(0) = {1..d}, each
    by `decide` (see `_decider`).

    Returns (examined, first witness), `examined` counted on from the
    value passed in.  Every d-regular graph is isomorphic to one of
    these.  Rows N+(u) = {v > u : uv an edge} are chosen for
    u = 1, 2, ... as sorted combinations of the later vertices that
    still need an edge, and a row survives only if the remaining degrees
    can still be met; so the graphs come in increasing order of
    (N+(1), ..., N+(m-1)), rows compared as sorted tuples.

    A row prefix is cut when swapping two adjacent vertices k, k+1 of
    N(0), or of its complement, maps every completion to an earlier
    graph (the swap fixes 0 and N(0), so the image is in the stream).
    Rows u < k change only where u sees exactly one of k, k+1, so the
    first such row decides: it gives an earlier image if it sees k+1
    only.  If no row below k does, rows k and k+1 trade their parts
    above k+1, and the image is earlier if row k+1's part holds the
    lowest bit in which they differ.  A cut prefix's graphs are counted
    as examined without being built.
    """
    bits = [0] * m
    bits[0] = (2 << d) - 2
    for v in range(1, d + 1):
        bits[v] = 1
    rem = [0] + [d - 1] * d + [d] * (m - d - 1)
    swaps = sum(1 << k for k in itertools.chain(range(1, d), range(d + 1, m - 1)))
    memo: dict[tuple[int, ...], tuple[int, int]] = {}

    def row(u: int, split: int) -> list:
        # split: the swaps k that some row below u sees exactly one of
        pool = [v for v in range(u + 1, m) if rem[v]]
        return [u, itertools.combinations(pool, rem[u]), (), split]

    stack = [row(1, 0)]
    while stack:
        frame = stack[-1]
        u, combos, combo, split = frame
        for v in combo:  # undo the row's previous choice
            rem[v] += 1
            bits[v] ^= 1 << u
            bits[u] ^= 1 << v
        combo = frame[2] = next(combos, None)
        if combo is None:
            stack.pop()
            continue
        for v in combo:
            rem[v] -= 1
            bits[v] |= 1 << u
            bits[u] |= 1 << v
        tail = sum(rem[u + 1:])
        if tail % 2 or tail < 2 * max(rem[u + 1:], default=0):
            continue
        above = bits[u] >> (u + 1) << (u + 1)  # N+(u)
        # the swaps (k, k+1), k > u, that row u is the first to see
        # exactly one of; the image is earlier where that one is k+1
        fresh = (above ^ above >> 1) & swaps >> (u + 1) << (u + 1) & ~split
        split |= fresh
        # the swap (u-1, u) once both its rows are fixed
        k = u - 1
        diff = (bits[k] ^ bits[u]) >> (u + 1)
        cut = bool(fresh & above >> 1
                   or swaps >> k & 1 and not split >> k & 1
                   and above >> (u + 1) & diff & -diff)
        if u + 1 < m and not cut:
            stack.append(row(u + 1, split))
            continue
        examined += _assignment_count(rem[u + 1:], 1, memo)[0] if cut else 1
        if examined > budget:
            raise CapacityError(
                f"degree scan exceeded budget {budget} at degree {d}")
        if cut:
            continue
        graph = Graph(m, list(bits))
        if decide(graph, 1):
            return examined, graph
    return examined, None


def _trivial_group_scan(group: Group, m: int, budget: int, decide: Decide
                        ) -> tuple[int, Optional[ConnectionMatrix]]:
    """Scan the regular graphs on m vertices, deciding each by `decide`;
    returns (examined, first witness)."""
    examined = 0
    # degrees 0..2 and their complements force symmetries (swaps of
    # isolated vertices or matched pairs, rotations of cycle unions),
    # and complements preserve Aut, so only 3 <= d <= (m-1)/2 matters
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        examined, first = _degree_scan(m, d, examined, budget, decide)
        if first is not None:
            from .catalog import matrix_from_graph  # only on a witness
            return examined, matrix_from_graph(group, first)
    return examined, None


def c1_regular_asymmetric_scan(m: int) -> SearchReport:
    """Scan the regular graphs on m vertices for an asymmetric one.

    Over the trivial group a connection matrix is just a graph on the
    parts, so existence for (C1, m) reduces to this question, and this
    is `decide_existence(cyclic(1), m)` capped at m = 10, where the
    first asymmetric regular graphs appear: that settles the paper's C1
    row, and the template route builds larger ones.  `decide_existence`
    runs the same scan for any m, within its budget; from m = 13
    (checked up to m = 300) the counted graphs pass the default budget
    before a witness.
    """
    if m > 10:
        raise ValueError(f"scan supports m <= 10, got {m}")
    return decide_existence(cyclic(1), m)


# -- deciding a candidate: the kept refutations, then the engine ----------------

# the refutations a search keeps.  A miss tries every one, at about 1.5 us
# each against 150-210 us for an engine call on 18-32 vertices, so a miss
# costs at most about half an engine call; a longer list saved no time on
# the largest searches measured (C2^3/3, Q8xC2/2, C2^4/2)
_KEPT = 64


def _decider() -> Decide:
    """A decision for the candidates of one search: whether |Aut(graph)|
    = n, the right translations alone.

    It keeps the last `_KEPT` maps that refuted a candidate, the most
    recently used first.  A kept map that preserves a candidate's adjacency
    decides it "no" and moves to the front; only when none does is the
    engine asked, and a map it returns goes to the front.  Every kept map
    is an `extra_automorphism` of an earlier candidate, so it is no right
    translation on these parts whatever the graph, and every candidate
    has the same vertices and parts: a map that passes shows |Aut| > n.
    So each answer is the engine's, and only the number of engine calls
    changes.  A witness passes no kept map, so it always reaches the
    engine.
    """
    kept: list[tuple[int, ...]] = []

    def decide(graph: Graph, n: int) -> bool:
        bits = graph.bits
        for k, sigma in enumerate(kept):
            if _is_automorphism(bits, sigma):
                if k:
                    kept.insert(0, kept.pop(k))
                return False
        sigma = extra_automorphism(graph, n)
        if sigma is None:
            return True
        kept.insert(0, sigma)
        del kept[_KEPT:]
        return False

    return decide


# -- one profile at a time -----------------------------------------------------


def _translation_check(group: Group, m: int, cells: Sequence[tuple[int, int]],
                       profile: Profile, forced: frozenset[int]
                       ) -> tuple[Callable[[Blocks, int], bool], list[int]]:
    """A test for whether a part translation maps the blocks of the first
    k cells of a candidate of this profile onto earlier ones, and the
    lengths k that the walk tests it on, then the number of cells.

    Translating part i by a_i maps block (i, j) to a_j * T_ij * a_i^-1.
    The image keeps the identity in every forced block among those cells
    when a_j^-1 * a_i is in T_ij, and it is earlier when its block tuple
    is lexicographically smaller.  The a_i are chosen in part order;
    blocks are compared in cell order as soon as their parts are set, so
    a larger leading block prunes.  A part with no live block among the k
    cells moves no block, so it takes one a_i; moving every part by one
    central element fixes every block, so the first part with a live
    block only needs one a_i per coset of the centre.  With k the number
    of cells, this is the test on whole candidates.

    A length k is tested when cell k-1 is live, a later cell is live, and
    the live cells among the first k join their parts into one component.
    The forced cells are the spanning forest that a greedy union-find
    picks in cell order (`_cell_moves`), so those live cells make as many
    components as they reach parts, less the forced cells among them.
    """
    n = group.order
    table = group.table
    inv = [group.inv(a) for a in range(n)]
    centre = [z for z, column in enumerate(zip(*table)) if table[z] == column]
    starts: list[int] = []  # the least element of each coset of the centre
    covered: set[int] = set()
    for x in range(n):
        if x not in covered:
            starts.append(x)
            covered.update(table[x][z] for z in centre)
    order = [(c, *cells[c]) for c in range(len(cells)) if profile[c]]
    # the forced blocks (c, i) by their later part j.  The first, the
    # anchor, fixes a_j up to the block's elements and keeps the identity
    # there by construction; a part without one gets the cell past the last
    into: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    since = [len(cells)] * (m + 1)  # each part's first live cell
    ends: list[int] = []
    components = 0
    for c, i, j in order:
        components += (since[i] == len(cells)) + (since[j] == len(cells))
        if c in forced:
            into[j].append((c, i))
            components -= 1
        since[i], since[j] = min(since[i], c), min(since[j], c)
        if components == 1 and c < order[-1][0]:
            ends.append(c + 1)
    anchor = [into[j].pop(0) if into[j] else (len(cells), 0) for j in range(m + 1)]
    first = order[0][1] if order else 0  # the least part with a live block
    everything = range(n)
    # for each k: how many live blocks the first k cells hold, and the
    # last part they reach
    held, lasts = [0], [0]
    for c in range(len(cells)):
        held.append(held[-1] + bool(profile[c]))
        lasts.append(max(lasts[-1], cells[c][1]) if profile[c] else lasts[-1])
    a = [0] * (m + 1)
    # the candidate and prefix length under test, set by `earlier`
    choice: Blocks = ()
    k = end = last = 0

    def rec(j: int, pos: int, below: bool) -> bool:
        # parts before j are set; the live blocks order[:pos] match the
        # candidate's, unless the image is already below it
        c, i = anchor[j]
        if c < k:
            row = table[a[i]]
            options = [row[inv[t]] for t in choice[c]]
        else:
            options = starts if j == first else everything if since[j] < k else (0,)
        for x in options:
            a[j] = x
            if into[j]:
                row = table[inv[x]]
                if any(row[a[i]] not in choice[c] for c, i in into[j] if c < k):
                    continue
            p, lower = pos, below
            while not lower and p < end and order[p][2] <= j:
                c, i, h = order[p]
                row, back = table[a[h]], inv[a[i]]
                block = tuple(sorted([table[row[t]][back] for t in choice[c]]))
                if block != choice[c]:
                    if block > choice[c]:
                        break
                    lower = True
                p += 1
            else:
                if lower if j == last else rec(j + 1, p, lower):
                    return True
        return False

    def earlier(candidate: Blocks, length: int) -> bool:
        nonlocal choice, k, end, last
        choice, k, end, last = candidate, length, held[length], lasts[length]
        return last > 0 and rec(1, 0, False)

    return earlier, ends + [len(cells)]


def _relabelling_check(m: int, cells: Sequence[tuple[int, int]]
                       ) -> Callable[[Profile], bool]:
    """A test for whether relabelling the parts maps a profile onto a
    lexicographically smaller one.

    The image under p -> t(p) has size[t(i)][t(j)] at cell (i, j).  The
    t(j) are chosen in part order, and image cells are compared in cell
    order as soon as both of their parts are set, so a larger leading
    cell prunes, as in `_translation_check`.
    """
    at = [[0] * (m + 1) for _ in range(m + 1)]
    for c, (i, j) in enumerate(cells):
        at[i][j] = at[j][i] = c
    t = [0] * (m + 1)
    free = [True] * (m + 1)

    def earlier(profile: Profile) -> bool:
        size = [[profile[c] for c in row] for row in at]

        def rec(j: int, pos: int) -> bool:
            # parts before j are placed; the image matches cells[:pos]
            for x in range(1, m + 1):
                if not free[x]:
                    continue
                t[j] = x
                p = pos
                while p < len(cells) and cells[p][1] <= j:
                    i, k = cells[p]
                    s = size[t[i]][t[k]]
                    if s != profile[p]:
                        if s < profile[p]:
                            return True
                        break
                    p += 1
                else:
                    if j < m:
                        free[x] = False
                        below = rec(j + 1, p)
                        free[x] = True
                        if below:
                            return True
            return False

        return rec(1, 0)

    return earlier


def _run_profile(group: Group, m: int, cells: Sequence[tuple[int, int]],
                 profile: Profile, forced: frozenset[int], space: int,
                 decide: Decide) -> tuple[int, Optional[ConnectionMatrix]]:
    """Scan one profile, deciding each candidate by `decide` (see
    `_decider`); returns (examined, first witness).

    Each cell's block ranges over a pool of sorted blocks (a forced
    block's pool holds only the blocks with the identity), and the
    candidates come in increasing order of the block tuple.  When cells
    are forced (normalized mode) and there is more than one candidate, a
    candidate that a part translation maps to an earlier one is counted
    but not decided, and so is every completion of a block prefix that
    `_translation_check` tests and a translation maps lower.  The tested
    prefixes split the cells into segments, and an explicit stack holds
    one iterator over each open segment's block tuples.
    """
    n = group.order
    size = len(cells)
    pools = [[(0,) + rest for rest in itertools.combinations(range(1, n), s - 1)]
             if c in forced else list(itertools.combinations(range(n), s))
             for c, s in enumerate(profile)]
    earlier, ends = (_translation_check(group, m, cells, profile, forced)
                     if forced and space > 1 else (None, [size]))
    heads: list[tuple] = [()] * len(ends)  # [i]: the blocks before segment i
    examined = 0
    # a segment's first tuple holds the least block of each pool, so no
    # image is below it unless one is below the shorter prefix, whose test
    # failed: its test is skipped (the tuples are numbered for that)
    stack = [enumerate(itertools.product(*pools[:ends[0]]))]
    while stack:
        i = len(stack) - 1
        if i == len(ends) - 1:  # the last segment: each tuple ends a candidate
            for later, tail in stack.pop():
                choice = heads[i] + tail
                examined += 1
                if later and earlier is not None and earlier(choice, size):
                    continue
                blocks = {cell: elems for cell, elems in zip(cells, choice) if elems}
                cm = ConnectionMatrix(group, m, blocks)
                if decide(build_graph(cm), n):
                    return examined, cm
            continue
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        later, segment = step
        prefix = heads[i] + segment
        if later and earlier(prefix, ends[i]):
            examined += prod(map(len, pools[ends[i]:]))  # its completions
        else:
            heads[i + 1] = prefix
            stack.append(enumerate(itertools.product(*pools[ends[i]:ends[i + 1]])))
    return examined, None


def _check_mode(mode: str) -> None:
    if mode not in ("normalized", "exhaustive"):
        raise ValueError(f"mode must be 'normalized' or 'exhaustive', got {mode!r}")


def _plan(group: Group, m: int,
          mode: str) -> Iterator[tuple[Profile, frozenset[int], int]]:
    """Each profile with its forced cells and its candidate count.

    The profiles come by valency, then in lex order, from a depth-first
    walk over the cell states of `_cell_moves`, kept on an explicit stack
    (as deep as there are cells), that enters only states with profiles
    counted in `_cell_counts`, so every branch ends in a profile.
    Normalized mode forces the forest cells.
    """
    n = group.order
    normalized = mode == "normalized"
    for d in range(n * (m - 1) + 1):
        # (state, moves so far); a state's moves go on in reverse, so the
        # first is walked first
        stack: list[tuple[CellState, tuple]] = [(_counted_root(m, n, d), ())]
        # held per valency: counting another (m, n) between two profiles
        # would replace the cached memo, but not this one
        memo = _cell_counts(m, n)
        while stack:
            state, taken = stack.pop()
            if state[0] == m:  # every cell is set
                yield (tuple(s for s, _, _, _ in taken),
                       frozenset(idx for idx, (_, forest, _, _) in enumerate(taken)
                                 if forest and normalized),
                       prod(factor if normalized else comb(n, s)
                            for s, _, factor, _ in taken))
                continue
            stack.extend((move[3], taken + (move,))
                         for move in reversed(_cell_moves(state, m, n))
                         if memo[move[3]][0])


# -- the public entry point ----------------------------------------------------


def decide_existence(group: Group, m: int, mode: str = "normalized",
                     budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Search every candidate matrix for (group, m); no theory involved.

    Returns a report whose `exists`/`witness` fields carry the answer.
    The search stops at its first witness; without one it has enumerated
    the whole finite space (a budget overflow raises CapacityError
    instead).  The profiles are decided one after another, in plan
    order, in this process.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _check_mode(mode)
    n = group.order
    check_vertex_cap(m * n)  # before the cells, the plan or a graph is built
    t0 = time.perf_counter()
    decide = _decider()  # one list of refutations for the whole search
    if n == 1:
        mode, profiles, total = "degree-scan", 0, None
        examined, witness = _trivial_group_scan(group, m, budget, decide)
    else:
        # counted first, so an oversized space is refused before any candidate
        profiles, total = space_size(group, m, mode, budget)
        cells = _cells(m)
        relabelled = _relabelling_check(m, cells)
        examined, witness = 0, None
        for profile, forced, space in _plan(group, m, mode):
            if mode == "normalized" and relabelled(profile):
                # decided with the earlier profile a part relabelling maps it to
                examined += space
                continue
            ex, witness = _run_profile(group, m, cells, profile, forced, space, decide)
            examined += ex
            if witness is not None:
                break
    return SearchReport(
        group=group, m=m, mode=mode,
        exists=witness is not None, profiles=profiles, total_space=total,
        examined=examined, witness=witness, elapsed=time.perf_counter() - t0)


def space_size(group: Group, m: int, mode: str = "normalized",
               budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(profile count, candidate count) for the given search mode.

    Valency by valency, the profiles and exhaustive candidates are counted
    on degree classes (`_assignment_count`), exact in exhaustive mode, and
    the space is refused once a lower bound on its candidates passes the
    budget: in normalized mode every profile keeps a candidate, and each of
    its at most m-1 forest blocks keeps s/n of its comb(n, s), so the bound
    is max(profiles, ceil(exhaustive / n^(m-1))).  Normalized mode then
    counts its candidates exactly, over the cell states of `_cell_moves`.
    """
    _check_mode(mode)
    n = group.order
    check_vertex_cap(m * n)
    refusal = (f"search space for {group.label}, m={m} in {mode} mode "
               f"exceeds the budget of {budget} candidates")
    spread = n ** (m - 1) if mode == "normalized" else 1
    classes: dict[tuple[int, ...], tuple[int, int]] = {}
    profiles = total = 0
    for d in range(n * (m - 1) + 1):
        more_profiles, more = _assignment_count([d] * m, n, classes)
        profiles += more_profiles
        total += more
        if max(profiles, -(-total // spread)) > budget:
            raise CapacityError(refusal)
    if mode == "exhaustive":
        return profiles, total
    # the cell states count the same profiles, so only the candidates change
    total = 0
    for d in range(n * (m - 1) + 1):
        total += _cell_counts(m, n)[_counted_root(m, n, d)][1]
        if total > budget:
            raise CapacityError(refusal)
    return profiles, total
