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

The trivial group gets its own scanner: its blocks are 0/1, so
candidates are plain d-regular graphs and a row-by-row backtracking
enumeration with degree-feasibility pruning is far smaller than the
generic profile space.

Every candidate graph has the right translations as automorphisms, so
it is a witness exactly when they are all of Aut; each candidate asks
the engine only that (`autos.only_translations`), which stops at the
first automorphism that is not a translation instead of computing |Aut|.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional, Sequence

from .autos import automorphism_group, only_translations  # noqa: F401
from .catalog import matrix_from_graph
from .cayley import ConnectionMatrix, build_graph
from .graphs import Graph, check_vertex_cap
from .groups import CapacityError, Group, cyclic

# automorphism_group is unused here, but the tracing test in
# perfbench/test_perfbench.py expects this module to bind it

DEFAULT_BUDGET = 10 ** 8

Profile = tuple[int, ...]  # block sizes along lex-ordered cells (i, j), i < j


def _cells(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def _profiles(m: int, n: int) -> Iterator[Profile]:
    """Equal-row-sum size assignments, ascending by valency then lex.

    The DFS fills cells row by row; a row closes when its later cells
    are all chosen, at which point its sum must hit the target valency.
    """
    cells = _cells(m)
    if not cells:
        yield ()
        return
    row_cells: dict[int, list[int]] = {i: [] for i in range(1, m + 1)}
    for idx, (i, j) in enumerate(cells):
        row_cells[i].append(idx)
        row_cells[j].append(idx)
    last_touch = {i: max(row_cells[i]) for i in row_cells}

    for d in range(0, n * (m - 1) + 1):
        out: list[int] = []

        def rec(idx: int, sums: list[int]) -> Iterator[Profile]:
            if idx == len(cells):
                yield tuple(out)
                return
            i, j = cells[idx]
            hi = min(n, d - sums[i], d - sums[j])
            for s in range(0, hi + 1):
                sums[i] += s
                sums[j] += s
                ok = True
                for r in (i, j):
                    if last_touch[r] == idx and sums[r] != d:
                        ok = False
                if ok:
                    out.append(s)
                    yield from rec(idx + 1, sums)
                    out.pop()
                sums[i] -= s
                sums[j] -= s

        yield from rec(0, [0] * (m + 1))


def _support_forest(m: int, cells: Sequence[tuple[int, int]],
                    profile: Profile) -> frozenset[int]:
    """Cell indices forming a spanning forest of the nonempty support."""
    parent = list(range(m + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    forest = set()
    for idx, (i, j) in enumerate(cells):
        if profile[idx] == 0:
            continue
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            forest.add(idx)
    return frozenset(forest)


def _profile_space(n: int, profile: Profile, forced: frozenset[int]) -> int:
    total = 1
    for idx, s in enumerate(profile):
        total *= comb(n - 1, s - 1) if idx in forced else comb(n, s)
    return total


def _profile_candidates(n: int, profile: Profile,
                        forced: frozenset[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    pools = []
    for idx, s in enumerate(profile):
        if idx in forced:
            pools.append([(0,) + rest
                          for rest in itertools.combinations(range(1, n), s - 1)])
        else:
            pools.append(list(itertools.combinations(range(n), s)))
    return itertools.product(*pools)


@dataclass
class SearchReport:
    group_name: str
    order: int
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
    workers: int = 1

    def __str__(self) -> str:
        head = (f"{self.group_name} m={self.m} [{self.mode}] "
                f"examined {self.examined}"
                + ("" if self.total_space is None else f"/{self.total_space}"))
        if self.exists:
            return head + f": witness found ({self.witnesses} seen)"
        return head + (": none exist" if self.exhausted else ": none seen")


# -- the trivial group: a scan over regular graphs -----------------------------


def _regular_graphs_seeded(m: int, d: int) -> Iterator[Graph]:
    """All d-regular graphs on m vertices with N(0) = {1..d}, streamed.

    Every d-regular graph is isomorphic to one of these, so the stream
    decides any isomorphism-invariant existence question.
    """
    fixed = [(0, v) for v in range(1, d + 1)]
    rem = [0] + [d - 1] * d + [d] * (m - d - 1)
    chosen: list[tuple[int, int]] = []

    def rec(u: int) -> Iterator[Graph]:
        if u == m:
            yield Graph.from_edges(m, fixed + chosen)
            return
        need = rem[u]
        if need == 0:
            yield from rec(u + 1)
            return
        pool = [v for v in range(u + 1, m) if rem[v] > 0]
        if len(pool) < need:
            return
        for combo in itertools.combinations(pool, need):
            for v in combo:
                rem[v] -= 1
            rem[u] = 0
            tail = sum(rem[u + 1:])
            # every unfinished vertex must find enough distinct partners
            if tail % 2 == 0 and tail >= 2 * max(rem[u + 1:], default=0):
                chosen.extend((u, v) for v in combo)
                yield from rec(u + 1)
                del chosen[-need:]
            rem[u] = need
            for v in combo:
                rem[v] += 1

    yield from rec(1)


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
        for graph in _regular_graphs_seeded(m, d):
            examined += 1
            if examined > budget:
                raise CapacityError(
                    f"degree scan exceeded budget {budget} at degree {d}")
            if only_translations(graph, 1):
                witnesses += 1
                if witness is None:
                    witness = matrix_from_graph(group, graph)
                if early_exit:
                    break
        if witness is not None and early_exit:
            break
    stopped_early = witness is not None and early_exit
    return SearchReport(
        group_name=group.label, order=1, m=m, mode="degree-scan",
        exists=witness is not None, profiles=0, total_space=None,
        examined=examined, witnesses=witnesses, witness=witness,
        exhausted=not stopped_early, elapsed=time.perf_counter() - t0)


def c1_regular_asymmetric_scan(m: int, budget: int = DEFAULT_BUDGET,
                               early_exit: bool = True) -> SearchReport:
    """Scan the regular graphs on m vertices for an asymmetric one.

    Over the trivial group a connection matrix is just a graph on the
    parts, so existence for (C1, m) reduces to this question.  Capped
    at m = 10: the first asymmetric regular graphs appear there, and
    the candidate space grows too fast beyond it.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if m > 10:
        raise ValueError(f"scan supports m <= 10, got {m}")
    return _trivial_group_scan(cyclic(1), m, budget, early_exit)


# -- worker plumbing -----------------------------------------------------------

_WORKER_GROUP: Optional[Group] = None


def _init_worker(table: list[list[int]], descriptor: Optional[str]) -> None:
    global _WORKER_GROUP
    _WORKER_GROUP = Group(table, descriptor=descriptor)


def _run_profile(group: Group, m: int, cells: Sequence[tuple[int, int]],
                 profile: Profile, forced: frozenset[int],
                 early_exit: bool) -> tuple[int, int, Optional[dict]]:
    """Scan one profile; returns (examined, witnesses, first blocks)."""
    target = group.order
    examined = witnesses = 0
    first = None
    for choice in _profile_candidates(target, profile, forced):
        examined += 1
        blocks = {cell: elems for cell, elems in zip(cells, choice) if elems}
        cm = ConnectionMatrix(group, m, blocks)
        if only_translations(build_graph(cm), target):
            witnesses += 1
            if first is None:
                first = blocks
            if early_exit:
                break
    return examined, witnesses, first


def _profile_task(args: tuple) -> tuple[int, int, Optional[dict]]:
    m, cells, profile, forced, early_exit = args
    assert _WORKER_GROUP is not None
    return _run_profile(_WORKER_GROUP, m, cells, profile, forced, early_exit)


def _check_mode(mode: str) -> None:
    if mode not in ("normalized", "exhaustive"):
        raise ValueError(f"mode must be 'normalized' or 'exhaustive', got {mode!r}")


def _plan(group: Group, m: int, cells: Sequence[tuple[int, int]], mode: str,
          budget: int) -> Iterator[tuple[Profile, frozenset[int], int]]:
    """Each profile with its forced cells and its candidate count."""
    n = group.order
    total = 0
    for profile in _profiles(m, n):
        forced = (_support_forest(m, cells, profile)
                  if mode == "normalized" else frozenset())
        space = _profile_space(n, profile, forced)
        total += space
        # checked per profile: enumerating the profile family itself can
        # blow up long before the candidate total is known exactly
        if total > budget:
            raise CapacityError(
                f"search space for {group.label}, m={m} in {mode} mode "
                f"exceeds the budget of {budget} candidates")
        yield profile, forced, space


# -- the public entry point ----------------------------------------------------


def decide_existence(group: Group, m: int, mode: str = "normalized",
                     budget: int = DEFAULT_BUDGET, workers: int = 1,
                     early_exit: bool = True) -> SearchReport:
    """Search every candidate matrix for (group, m); no theory involved.

    Returns a report whose `exists`/`witness` fields carry the answer.
    A nonexistence verdict requires `exhausted` to be true, which it
    always is when no witness was found (the space is finite and fully
    enumerated; a budget overflow raises CapacityError instead).
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    _check_mode(mode)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = group.order
    check_vertex_cap(m * n)  # before the cells, the plan or a graph is built
    if n == 1:
        return _trivial_group_scan(group, m, budget, early_exit)

    t0 = time.perf_counter()
    cells = _cells(m)
    plans = list(_plan(group, m, cells, mode, budget))
    total = sum(space for _, _, space in plans)

    examined = witnesses = 0
    witness_blocks = None
    tasks = [(m, cells, profile, forced, early_exit) for profile, forced, _ in plans]
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = (_run_profile(group, *task) for task in tasks)
        else:
            # imported here: only a pool needs it, and it is slow to load
            import multiprocessing
            # leaving the pool's context terminates its workers
            pool = stack.enter_context(multiprocessing.Pool(
                workers, initializer=_init_worker,
                initargs=(group.table, group.descriptor)))
            results = pool.imap(_profile_task, tasks)
        for ex, wit, first in results:
            examined += ex
            witnesses += wit
            if first is not None and witness_blocks is None:
                witness_blocks = first
                if early_exit:
                    break
    witness = (None if witness_blocks is None
               else ConnectionMatrix(group, m, witness_blocks))
    return SearchReport(
        group_name=group.label, order=n, m=m, mode=mode,
        exists=witness is not None, profiles=len(plans), total_space=total,
        examined=examined, witnesses=witnesses, witness=witness,
        exhausted=not (early_exit and witness is not None),
        elapsed=time.perf_counter() - t0,
        workers=workers)


def space_size(group: Group, m: int, mode: str = "normalized",
               budget: int = DEFAULT_BUDGET) -> tuple[int, int]:
    """(profile count, candidate count) for the given search mode."""
    _check_mode(mode)
    profiles = total = 0
    for _, _, space in _plan(group, m, _cells(m), mode, budget):
        profiles += 1
        total += space
    return profiles, total
