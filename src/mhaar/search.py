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
last pair's memo is kept.  The walk enters only states that hold
profiles, so it needs no budget of its own.

The trivial group gets its own scanner: its blocks are 0/1, so
candidates are plain d-regular graphs, enumerated row by row with
degree-feasibility pruning, which is far smaller than the generic
profile space.

Every candidate graph has the right translations as automorphisms, so
it is a witness exactly when they are all of Aut; each candidate asks
the engine only that (`autos.only_translations`), which stops at the
first automorphism that is not a translation instead of computing |Aut|.

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
candidate.  Skipping stops at the first witness of a profile (or
degree), so counts of all witnesses are unchanged too.  Exhaustive mode
skips nothing and stays a literal check.

Normalized mode also skips whole profiles (McKay 1998).  Relabelling the
parts by a permutation t maps a candidate of profile P onto an
isomorphic candidate of profile t(P), inverting a block whose parts
change order; t(P) has P's row sums, so it is a profile of the same
valency.  If t(P) is lexicographically smaller, it came earlier in the
walk, and its normalized candidates hold every isomorphism class of its
profile, so P holds no witness unless t(P) did.  So until the first
witness, such a profile is counted in `examined` and never decided.
After it, every profile is decided, since an earlier profile with
witnesses says nothing about how many P holds; so `--count-all` counts
stay exact.  At m <= 3 every profile is least: its row sums force all
sizes equal.

The degree scan is orderly (Read 1978; McKay 1998): a swap decides
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

from .autos import automorphism_group, only_translations  # noqa: F401
from .cayley import ConnectionMatrix, build_graph
from .graphs import Graph, check_vertex_cap
from .groups import CapacityError, Group, cyclic

# automorphism_group is unused here, but the tracing test in
# perfbench/test_perfbench.py expects this module to bind it

DEFAULT_BUDGET = 10 ** 8

Profile = tuple[int, ...]  # block sizes along lex-ordered cells (i, j), i < j
Blocks = tuple[tuple[int, ...], ...]  # one candidate: a sorted block per cell


def _cells(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _profile_candidates(n: int, profile: Profile,
                        forced: frozenset[int]) -> Iterator[Blocks]:
    pools = []
    for idx, s in enumerate(profile):
        if idx in forced:
            pools.append([(0,) + rest
                          for rest in itertools.combinations(range(1, n), s - 1)])
        else:
            pools.append(list(itertools.combinations(range(n), s)))
    return itertools.product(*pools)


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
    witnesses: int
    witness: Optional[ConnectionMatrix]
    exhausted: bool
    elapsed: float

    def __str__(self) -> str:
        head = (f"{self.group.label} m={self.m} [{self.mode}] "
                f"examined {self.examined}"
                + ("" if self.total_space is None else f"/{self.total_space}"))
        if self.exists:
            return head + f": witness found ({self.witnesses} seen)"
        return head + (": none exist" if self.exhausted else ": none seen")


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
                 early_exit: bool) -> tuple[int, int, Optional[Graph]]:
    """Decide the d-regular graphs on m vertices with N(0) = {1..d}.

    Returns (examined, witnesses, first witness), `examined` counted on
    from the value passed in.  Every d-regular graph is isomorphic to
    one of these.  Rows N+(u) = {v > u : uv an edge} are chosen for
    u = 1, 2, ... as sorted combinations of the later vertices that
    still need an edge, and a row survives only if the remaining degrees
    can still be met; so the graphs come in increasing order of
    (N+(1), ..., N+(m-1)), rows compared as sorted tuples.

    Until the first witness, a row prefix is cut when swapping two
    adjacent vertices k, k+1 of N(0), or of its complement, maps every
    completion to an earlier graph (the swap fixes 0 and N(0), so the
    image is in the stream).  Rows u < k change only where u sees exactly
    one of k, k+1, so the first such row decides: it gives an earlier
    image if it sees k+1 only.  If no row below k does, rows k and k+1
    trade their parts above k+1, and the image is earlier if row k+1's
    part holds the lowest bit in which they differ.  A cut prefix's
    graphs are counted as examined without being built.
    """
    bits = [0] * m
    bits[0] = (2 << d) - 2
    for v in range(1, d + 1):
        bits[v] = 1
    rem = [0] + [d - 1] * d + [d] * (m - d - 1)
    swaps = sum(1 << k for k in itertools.chain(range(1, d), range(d + 1, m - 1)))
    memo: dict[tuple[int, ...], tuple[int, int]] = {}
    witnesses = 0
    first = None

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
        cut = False
        if first is None:
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
        if only_translations(graph, 1):
            witnesses += 1
            if first is None:
                first = graph
            if early_exit:
                break
    return examined, witnesses, first


def _trivial_group_scan(group: Group, m: int, budget: int,
                        early_exit: bool) -> SearchReport:
    t0 = time.perf_counter()
    examined = witnesses = 0
    witness = None
    # degrees 0..2 and their complements force symmetries (swaps of
    # isolated vertices or matched pairs, rotations of cycle unions),
    # and complements preserve Aut, so only 3 <= d <= (m-1)/2 matters
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        examined, found, first = _degree_scan(m, d, examined, budget, early_exit)
        witnesses += found
        if witness is None and first is not None:
            from .catalog import matrix_from_graph  # only on a witness
            witness = matrix_from_graph(group, first)
            if early_exit:
                break
    stopped_early = witness is not None and early_exit
    return SearchReport(
        group=group, m=m, mode="degree-scan",
        exists=witness is not None, profiles=0, total_space=None,
        examined=examined, witnesses=witnesses, witness=witness,
        exhausted=not stopped_early, elapsed=time.perf_counter() - t0)


def c1_regular_asymmetric_scan(m: int, budget: int = DEFAULT_BUDGET,
                               early_exit: bool = True) -> SearchReport:
    """Scan the regular graphs on m vertices for an asymmetric one.

    Over the trivial group a connection matrix is just a graph on the
    parts, so existence for (C1, m) reduces to this question.  Capped
    at m = 10, where the first asymmetric regular graphs appear: that
    settles the paper's C1 row, and the template route builds larger
    ones.  `decide_existence` runs the same scan for any m, within its
    budget; from m = 13 (checked up to m = 300) the counted graphs pass
    the default budget before a witness.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if m > 10:
        raise ValueError(f"scan supports m <= 10, got {m}")
    return _trivial_group_scan(cyclic(1), m, budget, early_exit)


# -- one profile at a time -----------------------------------------------------


def _translation_check(group: Group, m: int, cells: Sequence[tuple[int, int]],
                       profile: Profile, forced: frozenset[int]
                       ) -> Callable[[Blocks], bool]:
    """A test for whether a part translation maps a candidate of this
    profile onto an earlier one.

    Translating part i by a_i maps block (i, j) to a_j * T_ij * a_i^-1.
    The image is a candidate of the profile when every forced block
    still holds the identity (a_j^-1 * a_i in T_ij), and it is earlier
    when its block tuple is lexicographically smaller.  The a_i are
    chosen in part order; blocks are compared in cell order as soon as
    their parts are set, so a larger leading block prunes.  Moving every
    part by one central element fixes every block, so part 1 only needs
    one a_1 per coset of the centre.
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
    # the live blocks in cell order, and the forced ones by their later part
    order = [(c, *cells[c]) for c in range(len(cells)) if profile[c]]
    into: list[list[tuple[int, int]]] = [[] for _ in range(m + 1)]
    for c, i, j in order:
        if c in forced:
            into[j].append((c, i))
    # the first forced block into part j fixes a_j up to its elements;
    # the identity stays in that block by construction
    anchor = [into[j].pop(0) if into[j] else None for j in range(m + 1)]
    a = [0] * (m + 1)

    def earlier(choice: Blocks) -> bool:
        def rec(j: int, pos: int, below: bool) -> bool:
            # parts before j are set; the live blocks order[:pos] match
            # the candidate's, unless the image is already below it
            if j == 1:
                options = starts
            elif anchor[j] is None:
                options = range(n)
            else:
                c, i = anchor[j]
                row = table[a[i]]
                options = [row[inv[t]] for t in choice[c]]
            for x in options:
                a[j] = x
                if into[j]:
                    row = table[inv[x]]
                    if any(row[a[i]] not in choice[c] for c, i in into[j]):
                        continue
                p, lower = pos, below
                while not lower and p < len(order) and order[p][2] <= j:
                    c, i, k = order[p]
                    row, back = table[a[k]], inv[a[i]]
                    block = tuple(sorted([table[row[t]][back] for t in choice[c]]))
                    if block != choice[c]:
                        if block > choice[c]:
                            break
                        lower = True
                    p += 1
                else:
                    if lower if j == m else rec(j + 1, p, lower):
                        return True
            return False

        return rec(1, 0, False)

    return earlier


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
                 early_exit: bool, skip: bool) -> tuple[int, int, Optional[dict]]:
    """Scan one profile; returns (examined, witnesses, first blocks).

    With skip, a candidate that a part translation maps to an earlier
    one is counted but not decided, until the profile's first witness.
    """
    target = group.order
    earlier = (_translation_check(group, m, cells, profile, forced)
               if skip and space > 1 else None)
    examined = witnesses = 0
    first = None
    for choice in _profile_candidates(target, profile, forced):
        examined += 1
        if earlier is not None and first is None and earlier(choice):
            continue
        blocks = {cell: elems for cell, elems in zip(cells, choice) if elems}
        cm = ConnectionMatrix(group, m, blocks)
        if only_translations(build_graph(cm), target):
            witnesses += 1
            if first is None:
                first = blocks
            if early_exit:
                break
    return examined, witnesses, first


def _check_mode(mode: str) -> None:
    if mode not in ("normalized", "exhaustive"):
        raise ValueError(f"mode must be 'normalized' or 'exhaustive', got {mode!r}")


def _plan(group: Group, m: int,
          mode: str) -> Iterator[tuple[Profile, frozenset[int], int]]:
    """Each profile with its forced cells and its candidate count.

    The profiles come by valency, then in lex order, from a walk over the
    cell states of `_cell_moves` (as deep as there are cells) that enters
    only states with profiles counted in `_cell_counts`, so every branch
    ends in a profile.  Normalized mode forces the forest cells.
    """
    n = group.order
    normalized = mode == "normalized"

    def walk(state: CellState, taken: tuple) -> Iterator:
        if state[0] == m:  # every cell is set
            yield (tuple(s for s, _, _, _ in taken),
                   frozenset(idx for idx, (_, forest, _, _) in enumerate(taken)
                             if forest and normalized),
                   prod(factor if normalized else comb(n, s)
                        for s, _, factor, _ in taken))
            return
        for move in _cell_moves(state, m, n):
            if memo[move[3]][0]:
                yield from walk(move[3], taken + (move,))

    for d in range(n * (m - 1) + 1):
        root = _counted_root(m, n, d)
        # held per valency: counting another (m, n) between two profiles
        # would replace the cached memo, but not this one
        memo = _cell_counts(m, n)
        yield from walk(root, ())


# -- the public entry point ----------------------------------------------------


def decide_existence(group: Group, m: int, mode: str = "normalized",
                     budget: int = DEFAULT_BUDGET,
                     early_exit: bool = True) -> SearchReport:
    """Search every candidate matrix for (group, m); no theory involved.

    Returns a report whose `exists`/`witness` fields carry the answer.
    A nonexistence verdict requires `exhausted` to be true, which it
    always is when no witness was found (the space is finite and fully
    enumerated; a budget overflow raises CapacityError instead).  The
    profiles are decided one after another, in plan order, in this
    process.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    _check_mode(mode)
    n = group.order
    check_vertex_cap(m * n)  # before the cells, the plan or a graph is built
    if n == 1:
        return _trivial_group_scan(group, m, budget, early_exit)

    t0 = time.perf_counter()
    # counted first, so an oversized space is refused before any candidate
    profiles, total = space_size(group, m, mode, budget)
    cells = _cells(m)
    normalized = mode == "normalized"
    relabelled = _relabelling_check(m, cells)

    examined = witnesses = 0
    witness_blocks = None
    for profile, forced, space in _plan(group, m, mode):
        if normalized and witness_blocks is None and relabelled(profile):
            # decided with the earlier profile a part relabelling maps it to
            examined += space
            continue
        ex, wit, first = _run_profile(group, m, cells, profile, forced, space,
                                      early_exit, normalized)
        examined += ex
        witnesses += wit
        if first is not None and witness_blocks is None:
            witness_blocks = first
            if early_exit:
                break
    witness = (None if witness_blocks is None
               else ConnectionMatrix(group, m, witness_blocks))
    return SearchReport(
        group=group, m=m, mode=mode,
        exists=witness is not None, profiles=profiles, total_space=total,
        examined=examined, witnesses=witnesses, witness=witness,
        exhausted=not (early_exit and witness is not None),
        elapsed=time.perf_counter() - t0)


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
    profiles = total = 0
    for d in range(n * (m - 1) + 1):
        root = _counted_root(m, n, d)
        more_profiles, more = _cell_counts(m, n)[root]
        profiles += more_profiles
        total += more
        if total > budget:
            raise CapacityError(refusal)
    return profiles, total
