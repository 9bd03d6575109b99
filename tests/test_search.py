"""Exhaustive search: candidate counting, both modes, and the trivial group."""

import functools
import itertools
import random
from math import comb, prod

import pytest

import mhaar.search
from mhaar.autos import extra_automorphism, is_m_hgr
from mhaar.catalog import matrix_from_graph
from mhaar.cayley import ConnectionMatrix, build_graph
from mhaar.graphs import Graph
from mhaar.groups import (CapacityError, cyclic, dihedral, elem_abelian,
                          parse_group_spec, quaternion8)
from mhaar.search import (
    _assignment_count,
    _cells,
    _plan,
    _relabelling_check,
    _run_profile,
    _translation_check,
    c1_regular_asymmetric_scan,
    decide_existence,
    space_size,
)


# -- space accounting ----------------------------------------------------------


def test_space_sizes_exhaustive():
    # order-2 groups: blocks are subsets of {0, 1}, sizes checked by hand
    assert space_size(cyclic(2), 3, "exhaustive") == (3, 10)
    assert space_size(cyclic(2), 4, "exhaustive") == (27, 216)
    assert space_size(cyclic(2), 5, "exhaustive") == (119, 4366)
    # m=3 forces equal block sizes (d, d, d), so sum(C(n, d)^3)
    assert space_size(elem_abelian(2, 2), 3, "exhaustive") == (5, 346)
    assert space_size(cyclic(6), 3, "exhaustive") == (7, 15184)
    # same order, same profile geometry, group structure irrelevant
    assert space_size(dihedral(6), 3, "exhaustive") == (7, 15184)
    assert space_size(dihedral(6), 4, "exhaustive", budget=10 ** 9) == (
        343, 788_889_024)


def test_space_sizes_normalized():
    # identity forced into a spanning forest of each profile's support
    assert space_size(cyclic(2), 3, "normalized") == (3, 4)
    assert space_size(cyclic(2), 4, "normalized") == (27, 52)
    assert space_size(cyclic(2), 5, "normalized") == (119, 658)
    assert space_size(elem_abelian(2, 2), 3, "normalized") == (5, 96)
    assert space_size(cyclic(6), 3, "normalized") == (7, 4033)
    assert space_size(cyclic(2), 7, "normalized") == (302_889, 23_106_776)


def test_space_size_budget():
    with pytest.raises(CapacityError, match="exceeds the budget"):
        space_size(cyclic(6), 3, "exhaustive", budget=1000)
    with pytest.raises(ValueError, match="mode"):
        space_size(cyclic(2), 3, "fast")


@functools.cache
def reference_plan(m, n, mode):
    """`_plan` written out: every size tuple from itertools.product with
    equal row sums, by valency and then sizes, each with the forest that
    a greedy union-find finds in cell order (none in exhaustive mode) and
    its product of comb factors.

    The product is taken a row at a time, and the rows whose cells are
    all set are checked at once, which keeps the same tuples in the same
    order."""
    cells = _cells(m)
    kept = [((), (0,) * (m + 1))]  # sizes so far, with every row's sum
    for i in range(1, m):  # row i's cells (i, i+1), ..., (i, m)
        closed = slice(1, m + 1) if i == m - 1 else slice(1, i + 1)
        grown = []
        for head, sums in kept:
            for tail in itertools.product(range(n + 1), repeat=m - i):
                after = list(sums)
                after[i] += sum(tail)
                for j, s in enumerate(tail, i + 1):
                    after[j] += s
                if len(set(after[closed])) == 1:
                    grown.append((head + tail, tuple(after)))
        kept = grown
    plan = []
    for sizes, sums in sorted(kept, key=lambda pair: (pair[1][1], pair[0])):
        parent = list(range(m + 1))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        forest = set()
        for idx, ((i, j), s) in enumerate(zip(cells, sizes)):
            if s and mode == "normalized" and find(i) != find(j):
                parent[find(i)] = find(j)
                forest.add(idx)
        plan.append((sizes, frozenset(forest),
                     prod(comb(n - 1, s - 1) if idx in forest else comb(n, s)
                          for idx, s in enumerate(sizes))))
    return plan


# m <= 4 with |G| <= 4, m = 5 with |G| <= 3 and m = 6 with |G| <= 2
@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)]
                         + [(5, n) for n in range(1, 4)] + [(6, 1), (6, 2)])
def test_profiles_are_every_equal_row_sum_assignment(m, n):
    for mode in ("normalized", "exhaustive"):
        assert list(_plan(cyclic(n), m, mode)) == reference_plan(m, n, mode)
    # the profiles alone, from the whole product at once
    cells = _cells(m)
    if len(cells) <= 6:
        expected = sorted(
            (sizes for sizes in itertools.product(range(n + 1), repeat=len(cells))
             if len({sum(s for s, cell in zip(sizes, cells) if r in cell)
                     for r in range(1, m + 1)}) <= 1),
            key=lambda sizes: (sum(s for s, cell in zip(sizes, cells) if 1 in cell),
                               sizes))
        assert [sizes for sizes, _, _ in reference_plan(m, n, "normalized")] == expected


# the walked cases the count must reproduce; D6/4's exhaustive total is
# over the default budget
COUNTED = ([(cyclic(2), m) for m in range(3, 7)]
           + [(cyclic(3), 4), (cyclic(3), 5), (elem_abelian(2, 2), 4),
              (cyclic(4), 4), (cyclic(5), 4), (dihedral(6), 3), (dihedral(6), 4),
              (cyclic(10), 2)])


def test_plan_walks_a_thousand_cells_without_recursion():
    # C2/46 at valency 0: one all-zero profile of 1,035 cells, deeper than
    # the default recursion limit
    profile, forced, space = next(_plan(cyclic(2), 46, "normalized"))
    assert (profile, forced, space) == ((0,) * 1035, frozenset(), 1)


class Walked(Exception):
    pass


def no_walk(*args):
    raise Walked


@pytest.mark.parametrize("group,m", COUNTED,
                         ids=[f"{g.label}-{m}" for g, m in COUNTED])
def test_count_matches_the_walk(monkeypatch, group, m):
    # exact in both modes, refused one candidate lower, and no profile
    # is walked
    monkeypatch.setattr(mhaar.search, "_plan", no_walk)
    for mode in ("exhaustive", "normalized"):
        spaces = [space for _, _, space in reference_plan(m, group.order, mode)]
        assert space_size(group, m, mode, budget=sum(spaces)) == (
            len(spaces), sum(spaces))
        with pytest.raises(CapacityError, match="exceeds the budget"):
            space_size(group, m, mode, budget=sum(spaces) - 1)


def test_space_size_refuses_many_parts_at_once(monkeypatch):
    # the count passes the budget at a low valency, before any cell state
    # is counted: at m = 13 the 752,587,764 profiles of valency 2, at
    # m = 50 the 49!! perfect matchings of valency 1
    monkeypatch.setattr(mhaar.search, "_cell_moves", no_walk)
    for m in (13, 50):
        with pytest.raises(CapacityError, match="exceeds the budget"):
            space_size(cyclic(2), m)


def test_a_second_count_of_the_same_pair_moves_no_cell(monkeypatch):
    # the cell-state counts depend on (m, |G|) alone and are kept
    first = space_size(cyclic(2), 5)
    monkeypatch.setattr(mhaar.search, "_cell_moves", no_walk)
    assert space_size(cyclic(2), 5) == first


# -- negative verdicts ---------------------------------------------------------


def test_order_two_group_small_m():
    for m in (3, 4, 5):
        r = decide_existence(cyclic(2), m)
        assert not r.exists and r.exhausted
        assert r.witness is None and r.witnesses == 0
        assert "none exist" in str(r)


def test_exhaustive_and_normalized_agree():
    for g, m in [(cyclic(2), 3), (cyclic(2), 4), (cyclic(3), 3),
                 (elem_abelian(2, 2), 3), (cyclic(6), 3)]:
        a = decide_existence(g, m, mode="exhaustive")
        b = decide_existence(g, m, mode="normalized")
        assert a.exists == b.exists, (g.label, m)
        if not a.exists:
            # a full no is a full enumeration in both modes
            assert a.examined == a.total_space
            assert b.examined == b.total_space
            assert b.total_space <= a.total_space


def test_counts_pinned_for_klein_group():
    a = decide_existence(elem_abelian(2, 2), 3, mode="exhaustive")
    assert (a.exists, a.examined, a.profiles) == (False, 346, 5)
    b = decide_existence(elem_abelian(2, 2), 3, mode="normalized")
    assert (b.exists, b.examined, b.profiles) == (False, 96, 5)


def test_m2_small_groups_all_negative():
    # outside the classification; settled here by brute force
    for g in (cyclic(2), cyclic(3), cyclic(4), cyclic(5),
              elem_abelian(2, 2), dihedral(6), quaternion8()):
        r = decide_existence(g, 2, mode="exhaustive")
        assert not r.exists and r.exhausted, g.label
        assert r.examined == 2 ** g.order  # one subset block


def test_abelian_inversion_swaps_the_parts_of_every_two_part_graph():
    # (g, i) -> (g^-1, 3 - i) maps the edge {(x, 1), (t*x, 2)} onto
    # {((t*x)^-1, 1), (x^-1, 2)}, again an edge: t*(t*x)^-1 = x^-1 in an
    # abelian group
    rng = random.Random(2)
    for spec in ("C6", "C2xC4", "C3^2", "C12"):
        group = parse_group_spec(spec)
        n = group.order
        swap = [n + group.inv(x) for x in range(n)] + [group.inv(x) for x in range(n)]
        for _ in range(10):
            block = rng.sample(range(n), rng.randint(1, n))
            graph = build_graph(ConnectionMatrix(group, 2, {(1, 2): block}))
            assert all(graph.has_edge(swap[u], swap[v]) for u, v in graph.edges()), spec


def test_no_abelian_group_has_a_two_part_hgr():
    # the swap above is an automorphism that is not a right translation;
    # these are the abelian groups of order <= 12, one of each type
    for spec in [f"C{n}" for n in range(1, 13)] + ["C2^2", "C2^3", "C2xC4", "C3^2",
                                                   "C2xC6"]:
        r = decide_existence(parse_group_spec(spec), 2)
        assert not r.exists and r.exhausted, spec


# -- positive verdicts ---------------------------------------------------------


def test_witness_found_for_c6():
    r = decide_existence(cyclic(6), 3, mode="normalized")
    assert r.exists and r.witnesses == 1 and not r.exhausted
    assert r.examined == 25  # deterministic enumeration order
    v = is_m_hgr(r.witness)
    assert v.ok and v.aut_order == 6
    assert "witness found" in str(r)


def test_witness_found_exhaustive_too():
    r = decide_existence(cyclic(6), 3, mode="exhaustive")
    assert r.exists and r.examined == 235


def test_argument_validation():
    with pytest.raises(ValueError, match="m must be >= 2"):
        decide_existence(cyclic(2), 1)
    with pytest.raises(ValueError, match="mode"):
        decide_existence(cyclic(2), 3, mode="greedy")
    with pytest.raises(CapacityError, match="exceeds the budget"):
        decide_existence(elem_abelian(2, 2), 3, mode="exhaustive", budget=100)


def test_negative_budget_is_refused_before_any_scan():
    for group, m in ((cyclic(1), 3), (cyclic(1), 11), (cyclic(2), 3)):
        with pytest.raises(ValueError, match="budget must be >= 0, got -5"):
            decide_existence(group, m, budget=-5)
    # a budget of 0 is valid: C1/3 has no candidate, C2/3 has one too many
    assert not decide_existence(cyclic(1), 3, budget=0).exists
    with pytest.raises(CapacityError, match="budget of 0 candidates"):
        decide_existence(cyclic(2), 3, budget=0)


# -- trivial group degree scan --------------------------------------------------


def test_c1_scan_small_m_is_vacuous():
    # no degree in 3..(m-1)/2 exists below m=8 (parity kills m=7)
    for m in (3, 4, 5, 6, 7):
        r = c1_regular_asymmetric_scan(m)
        assert (r.exists, r.examined, r.exhausted) == (False, 0, True)
        assert (r.mode, r.profiles, r.total_space) == ("degree-scan", 0, None)


def test_c1_scan_m8():
    r = c1_regular_asymmetric_scan(8)
    assert (r.exists, r.examined) == (False, 553)


def test_c1_scan_m9():
    r = c1_regular_asymmetric_scan(9)
    assert (r.exists, r.examined) == (False, 14634)


def test_c1_scan_contract():
    with pytest.raises(ValueError, match="m <= 10"):
        c1_regular_asymmetric_scan(11)
    with pytest.raises(ValueError, match="m must be >= 2"):
        c1_regular_asymmetric_scan(1)
    with pytest.raises(CapacityError, match="degree scan exceeded budget"):
        decide_existence(cyclic(1), 9, budget=100)


def test_report_str_shapes():
    r = decide_existence(cyclic(2), 3)
    assert str(r) == "C2 m=3 [normalized] examined 4/4: none exist"


# -- the degree scan before it cut row prefixes -----------------------------------
#
# The full stream and the swap check on whole graphs.  The orderly scan in
# mhaar.search must examine, decide and find exactly what they do.


def _regular_graphs_seeded(m, d):
    """All d-regular graphs on m vertices with N(0) = {1..d}, streamed.

    Every d-regular graph is isomorphic to one of these, so the stream
    decides any isomorphism-invariant existence question.  The graphs
    come in strictly increasing order of (N+(1), ..., N+(m-1)), each
    N+(u) = {v > u : uv an edge} compared as a sorted tuple.
    """
    bits = [0] * m
    bits[0] = (2 << d) - 2
    for v in range(1, d + 1):
        bits[v] = 1
    rem = [0] + [d - 1] * d + [d] * (m - d - 1)

    def rec(u):
        if u == m:
            yield Graph(m, list(bits))
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
                row = bits[u]
                for v in combo:
                    bits[u] |= 1 << v
                    bits[v] |= 1 << u
                yield from rec(u + 1)
                bits[u] = row
                for v in combo:
                    bits[v] ^= 1 << u
            rem[u] = need
            for v in combo:
                rem[v] += 1

    yield from rec(1)


def _swap_gives_earlier(bits, m, d):
    """Whether swapping vertices k, k+1, both in {1..d} or both in
    {d+1..m-1}, maps the graph to an earlier one of the seeded stream.

    The swap fixes 0 and N(0), so the image is in the stream.  Rows
    N+(u) with u < k change only where u sees exactly one of k, k+1;
    then rows k and k+1 trade their parts above k+1; later rows keep.
    Rows compare as bitmasks: of two equal-size sets, the smaller holds
    the lowest bit of their XOR.
    """
    for k in itertools.chain(range(1, d), range(d + 1, m - 1)):
        pair = 3 << k
        for u in range(1, k):
            seen = bits[u] & pair
            if seen and seen != pair:
                if seen >> k == 2:  # u sees k+1 only: its image row gets k
                    return True
                break
        else:
            diff = (bits[k] ^ bits[k + 1]) >> (k + 2)
            if diff and bits[k + 1] >> (k + 2) & diff & -diff:
                return True
    return False


@functools.cache
def seeded_stream(m, d):
    return tuple(_regular_graphs_seeded(m, d))


def reference_scan(m, engine):
    """The degree scan on the full stream: every graph is examined, and
    the engine decides each one that no swap maps to an earlier graph,
    until the first witness."""
    examined = calls = 0
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        for graph in seeded_stream(m, d):
            examined += 1
            if _swap_gives_earlier(graph.bits, m, d):
                continue
            calls += 1
            if engine(graph, 1):
                return (examined, 1, calls,
                        matrix_from_graph(cyclic(1), graph).upper_items())
    return examined, 0, calls, None


# -- skipping candidates that map to earlier ones ---------------------------------
#
# The references below are the search without the skip: the same streams,
# one engine call per candidate.


def profile_pools(n, profile, forced):
    """Each cell's blocks: the sorted s-subsets of the group, those of a
    forced cell holding the identity."""
    return [[block for block in itertools.combinations(range(n), s)
             if c not in forced or 0 in block]
            for c, s in enumerate(profile)]


def profile_candidates(n, profile, forced):
    return itertools.product(*profile_pools(n, profile, forced))


def by_engine(graph, n):
    """The engine's answer alone, with no kept refutations."""
    return extra_automorphism(graph, n) is None


def literal_search(group, m, engine=by_engine):
    cells = _cells(m)
    examined = 0
    for profile, forced, _ in _plan(group, m, "normalized"):
        for choice in profile_candidates(group.order, profile, forced):
            examined += 1
            blocks = {cell: elems for cell, elems in zip(cells, choice) if elems}
            cm = ConnectionMatrix(group, m, blocks)
            if engine(build_graph(cm), group.order):
                return True, examined, 1, False, cm.upper_items()
    return False, examined, 0, True, None


def literal_scan(m):
    group = cyclic(1)
    examined = witnesses = 0
    first = None
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        for graph in _regular_graphs_seeded(m, d):
            examined += 1
            if by_engine(graph, 1):
                witnesses += 1
                first = matrix_from_graph(group, graph)
                break
        if first is not None:
            break
    return (first is not None, examined, witnesses, first is None,
            None if first is None else first.upper_items())


def outcome(r):
    return (r.exists, r.examined, r.witnesses, r.exhausted,
            None if r.witness is None else r.witness.upper_items())


# every group the parser names up to order 8, as written in specs
ORDER_AT_MOST_8 = ["C1", "C2", "C3", "C4", "C2^2", "C5", "C6", "C2xC3", "D6",
                   "C7", "C8", "C2xC4", "C4xC2", "C2^3", "C2xC2xC2", "D8", "Q8"]


@pytest.mark.parametrize("spec,m", [(spec, 2) for spec in ORDER_AT_MOST_8] + [
    ("C2", 3), ("C2", 4), ("C2", 5), ("C2", 6), ("C3", 3), ("C3", 4),
    ("C5", 3), ("C2^2", 3), ("C4", 3), ("D6", 3), ("C4", 4), ("C2^2", 4),
    ("C3", 5), ("D6", 4)])
def test_skip_agrees_with_the_literal_loop(spec, m):
    group = parse_group_spec(spec)
    expected = (literal_scan(m) if group.order == 1
                else literal_search(group, m))
    assert outcome(decide_existence(group, m)) == expected


@pytest.mark.parametrize("m", range(3, 11))
def test_c1_scan_is_the_trivial_group_search(m):
    assert (outcome(c1_regular_asymmetric_scan(m))
            == outcome(decide_existence(cyclic(1), m)))


def test_search_returns_the_matrix_the_engine_accepted(monkeypatch):
    built = []

    def recording(cm):
        built.append(cm)
        return build_graph(cm)

    monkeypatch.setattr(mhaar.search, "build_graph", recording)
    r = decide_existence(cyclic(6), 3)
    assert r.witness is built[-1]  # the search stops at its first witness
    assert r.witness.upper_items() == literal_search(cyclic(6), 3)[4]


def sparse_triangle_free(graph, n):
    return all(graph.degree(v) >= 3 and not graph.triangle_count(v)
               for v in range(graph.n))


def test_skip_reaches_the_first_witness(monkeypatch):
    # across profiles: a stand-in engine that answers an isomorphism
    # invariant, with witnesses in profiles that relabelling maps to
    # earlier ones; the first is candidate 44, after skipped profiles
    monkeypatch.setattr(mhaar.search, "_decider", lambda: sparse_triangle_free)
    first = literal_search(cyclic(4), 4, engine=sparse_triangle_free)
    assert first[1:3] == (44, 1)
    assert outcome(decide_existence(cyclic(4), 4)) == first


@pytest.mark.parametrize("m", range(3, 10))
def test_degree_scan_skip_agrees_with_the_literal_loop(m):
    assert outcome(c1_regular_asymmetric_scan(m)) == literal_scan(m)


def test_degree_scan_skip_reaches_the_first_witness(monkeypatch):
    # a stand-in engine that answers an isomorphism invariant: the
    # triangle-free cubic graphs on 8 vertices, the first at position 249
    expected_first = next(graph for graph in _regular_graphs_seeded(8, 3)
                          if triangle_free(graph, 1))
    monkeypatch.setattr(mhaar.search, "_decider", lambda: triangle_free)
    r = c1_regular_asymmetric_scan(8)
    assert (r.examined, r.witnesses, r.witness) == (
        249, 1, matrix_from_graph(cyclic(1), expected_first))


def translation_gives_earlier(group, m, cells, forced, choice, k=None):
    """Try every part translation on the blocks of the first k cells (all
    of them by default), without pruning or the centre."""
    k = len(cells) if k is None else k
    table = group.table
    for a in itertools.product(range(group.order), repeat=m):
        image = tuple(
            tuple(sorted(table[table[a[j - 1]][t]][group.inv(a[i - 1])]
                         for t in block))
            for (i, j), block in zip(cells[:k], choice[:k]))
        if image < tuple(choice[:k]) and all(0 in image[c] for c in forced if c < k):
            return True
    return False


@pytest.mark.parametrize("group,m,largest", [
    (cyclic(2), 5, 100), (quaternion8(), 2, 100),
    (dihedral(6), 3, 375)])
def test_translation_check_matches_every_translation(group, m, largest):
    # on every block prefix, the whole candidate included
    cells = _cells(m)
    for profile, forced, space in _plan(group, m, "normalized"):
        if space > largest:
            continue
        earlier, _ = _translation_check(group, m, cells, profile, forced)
        for number, choice in enumerate(profile_candidates(group.order, profile, forced)):
            for k in range(len(cells) + 1):
                assert earlier(choice, k) == translation_gives_earlier(
                    group, m, cells, forced, choice, k), (profile, choice, k)
                # the least blocks: the walk leaves this prefix untested
                assert number or not earlier(choice, k)


def walk_cuts(monkeypatch, group, m):
    """Search normalized mode, and return (profile, forced, prefix) for
    each block prefix that the walk cut."""
    cuts = []

    def recording(group, m, cells, profile, forced):
        earlier, ends = _translation_check(group, m, cells, profile, forced)

        def check(choice, k):
            below = earlier(choice, k)
            if below and k < len(cells):
                cuts.append((profile, forced, tuple(choice[:k])))
            return below

        return check, ends

    monkeypatch.setattr(mhaar.search, "_translation_check", recording)
    decide_existence(group, m)
    return cuts


@pytest.mark.parametrize("spec,m,count", [
    ("C2", 5, 7), ("C3", 4, 23), ("D6", 3, 62), ("D6", 4, 79)])
def test_every_completion_of_a_cut_prefix_maps_lower(monkeypatch, spec, m, count):
    # the cut is sound: each completion of a cut prefix is a candidate
    # that a part translation maps to an earlier one.  Under 2 s for the
    # four cases on one x86-64 core with CPython 3.11, D6/4 most of it
    group = parse_group_spec(spec)
    cells = _cells(m)
    cuts = walk_cuts(monkeypatch, group, m)
    assert len(cuts) == count
    for profile, forced, prefix in cuts:
        later = profile_pools(group.order, profile, forced)[len(prefix):]
        for rest in itertools.product(*later):
            assert translation_gives_earlier(group, m, cells, forced, prefix + rest)


def reference_prefix_ends(cells, profile):
    """The tested prefix lengths from a union-find on the parts: cell k-1
    is live, a later cell is live, and the live cells among the first k
    join their parts into one component; then the number of cells."""
    parent = list(range(cells[-1][1] + 1))

    def root(p):
        while parent[p] != p:
            p = parent[p]
        return p

    seen = set()
    components = 0
    ends = []
    for k, ((i, j), s) in enumerate(zip(cells, profile), 1):
        if not s:
            continue
        components += len({i, j} - seen)
        seen |= {i, j}
        if root(i) != root(j):
            parent[root(i)] = root(j)
            components -= 1
        if components == 1 and any(profile[k:]):
            ends.append(k)
    return ends + [len(cells)]


def test_a_prefix_of_two_components_is_not_cut():
    # m = 5: the live cells are (1,4), (1,5), (2,3), (2,5) and (3,4).  The
    # first five cells hold (1,4), (1,5) and (2,3), parts {1, 4, 5} and
    # {2, 3}; a later forced block joining the two would tie a_2 to a_1,
    # so a translation of that prefix need not extend to its completions.
    # No live cell follows the last one
    profile = (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)
    assert reference_prefix_ends(_cells(5), profile) == [3, 4, 7, 10]
    # on every profile, the translation test names the lengths of the
    # union-find on the parts
    for group, m in ((cyclic(2), 5), (cyclic(3), 4), (dihedral(6), 4)):
        cells = _cells(m)
        for profile, forced, _ in _plan(group, m, "normalized"):
            _, ends = _translation_check(group, m, cells, profile, forced)
            assert ends == reference_prefix_ends(cells, profile), (group.label, profile)


def relabelling_gives_earlier(m, cells, profile):
    """Try every relabelling of the parts, without pruning."""
    size = {}
    for (i, j), s in zip(cells, profile):
        size[i, j] = size[j, i] = s
    return any(tuple(size[t[i - 1], t[j - 1]] for i, j in cells) < profile
               for t in itertools.permutations(range(1, m + 1)))


@pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_relabelling_check_matches_every_relabelling(m, n):
    cells = _cells(m)
    earlier = _relabelling_check(m, cells)
    for profile, _, _ in _plan(cyclic(n), m, "normalized"):
        assert earlier(profile) == relabelling_gives_earlier(m, cells, profile), profile


def swap_gives_earlier(graph, d):
    """Swap each adjacent pair of {1..d} and of {d+1..m-1}, then compare."""
    n = graph.n
    for k in itertools.chain(range(1, d), range(d + 1, n - 1)):
        swap = {k: k + 1, k + 1: k}
        image = Graph.from_edges(n, [(swap.get(u, u), swap.get(v, v))
                                     for u, v in graph.edges()])
        if rows_above(image) < rows_above(graph):
            return True
    return False


@pytest.mark.parametrize("m,d", [(8, 3), (9, 4), (10, 3)])
def test_swap_check_matches_every_swap(m, d):
    for graph in itertools.islice(_regular_graphs_seeded(m, d), 2000):
        assert _swap_gives_earlier(graph.bits, m, d) == swap_gives_earlier(graph, d)


def watch(mp):
    """Patch the search to record each decision, as (candidate, answer),
    and each engine call, as (candidate, map or None), a candidate given
    by its adjacency rows."""
    decided, engine = [], []
    decider = mhaar.search._decider

    def watching_decider():
        decide = decider()

        def watching(graph, n):
            answer = decide(graph, n)
            decided.append((tuple(graph.bits), answer))
            return answer

        return watching

    def watching_engine(graph, n):
        sigma = extra_automorphism(graph, n)
        engine.append((tuple(graph.bits), sigma))
        return sigma

    mp.setattr(mhaar.search, "_decider", watching_decider)
    mp.setattr(mhaar.search, "extra_automorphism", watching_engine)
    return decided, engine


@pytest.fixture
def decisions(monkeypatch):
    return watch(monkeypatch)


def test_skip_cuts_engine_calls(decisions):
    # (examined, decisions, engine calls) up to the first witness in
    # normalized mode.  D6/3 decides 114 of 4033 candidates; part
    # relabellings cut C2/5 and C2/6 from 346 and 2,600 decisions under
    # translations alone; the degree scan decides 81 of C1/9's 14,634
    # graphs.  The kept refutations decide the rest of each search's
    # candidates without the engine
    decided, engine = decisions
    for spec, m, examined, calls, engine_calls in [
            ("D6", 3, 4033, 114, 44), ("C3", 4, 1199, 136, 48),
            ("C5", 3, 607, 92, 16), ("C2", 5, 658, 81, 23),
            ("C2^2", 3, 96, 40, 17), ("C4", 3, 96, 28, 11),
            ("C10", 2, 513, 108, 9), ("D8", 2, 129, 28, 15),
            ("C2", 6, 3892, 76, 31), ("C1", 9, 14634, 81, 42)]:
        decided.clear()
        engine.clear()
        r = decide_existence(parse_group_spec(spec), m)
        assert (r.examined, len(decided), len(engine)) == (
            examined, calls, engine_calls), spec


def test_exhaustive_mode_decides_every_candidate(decisions):
    decided, engine = decisions
    r = decide_existence(elem_abelian(2, 2), 3, mode="exhaustive")
    assert r.examined == len(decided) == 346
    assert len(engine) == 29
    decided.clear()
    engine.clear()
    # 27 profiles, many of them relabellings of each other
    r = decide_existence(cyclic(2), 4, mode="exhaustive")
    assert r.examined == len(decided) == 216
    assert len(engine) == 27


def recorded_search(spec, m, mode, miss):
    """Search, and return its decisions, its engine calls and (exists,
    examined, witness); with `miss`, no kept refutation ever passes, so
    the engine decides every candidate."""
    with pytest.MonkeyPatch.context() as mp:
        decided, engine = watch(mp)
        if miss:
            mp.setattr(mhaar.search, "_is_automorphism", lambda bits, p: False)
        r = decide_existence(parse_group_spec(spec), m, mode)
    witness = None if r.witness is None else r.witness.upper_items()
    return decided, len(engine), (r.exists, r.examined, witness)


@pytest.mark.parametrize("spec,m,mode,exists", [
    ("D6", 3, "normalized", False), ("C2^2", 3, "exhaustive", False),
    ("C10", 2, "normalized", False), ("C1", 9, "normalized", False),
    ("Q8", 3, "normalized", True), ("C2", 6, "normalized", True)])
def test_refutation_list_changes_no_decision(spec, m, mode, exists):
    kept, calls, report = recorded_search(spec, m, mode, miss=False)
    alone, every, alone_report = recorded_search(spec, m, mode, miss=True)
    assert kept == alone
    assert report == alone_report
    assert report[0] == exists
    assert every == len(alone)  # forced to miss, the engine decides each one
    assert calls < every


def right_translations(group, m):
    """Each x -> x*h on every part, as the image of each vertex."""
    n = group.order
    return {tuple(i * n + group.table[x][h] for i in range(m) for x in range(n))
            for h in range(n)}


# the search workload's cases in perfbench/workloads.py
SEARCH_WORKLOAD = [("D6", 3, "normalized"), ("C3", 4, "normalized"),
                   ("C5", 3, "normalized"), ("C2", 5, "normalized"),
                   ("C2^2", 3, "normalized"), ("C4", 3, "normalized"),
                   ("C10", 2, "normalized"), ("D8", 2, "normalized"),
                   ("C2^2", 3, "exhaustive"), ("C1", 9, "normalized")]


@pytest.mark.parametrize("spec,m,mode", SEARCH_WORKLOAD)
def test_every_refutation_is_checked_independently(monkeypatch, spec, m, mode):
    # each "no" comes with a map, a kept one that passed or the engine's.
    # Each is a permutation that maps every edge of its candidate to an
    # edge and is no right translation
    group = parse_group_spec(spec)
    decided, engine = watch(monkeypatch)
    hits = []
    passes = mhaar.search._is_automorphism

    def kept(bits, sigma):
        hit = passes(bits, sigma)
        if hit:
            hits.append((tuple(bits), sigma))
        return hit

    monkeypatch.setattr(mhaar.search, "_is_automorphism", kept)
    decide_existence(group, m, mode)
    refutations = hits + [(bits, sigma) for bits, sigma in engine if sigma is not None]
    noes = [bits for bits, answer in decided if not answer]
    assert sorted(bits for bits, _ in refutations) == sorted(noes)
    assert noes
    translations = right_translations(group, m)
    size = m * group.order
    for bits, sigma in refutations:
        assert sorted(sigma) == list(range(size))
        for u in range(size):
            for v in range(u + 1, size):
                if bits[u] >> v & 1:
                    assert bits[sigma[u]] >> sigma[v] & 1
        assert tuple(sigma) not in translations


@pytest.mark.parametrize("group,m,mode", [
    (dihedral(6), 3, "normalized"), (cyclic(2), 5, "normalized"),
    (elem_abelian(2, 2), 3, "exhaustive"), (quaternion8(), 2, "normalized")])
def test_profile_candidates_come_in_increasing_order(monkeypatch, group, m, mode):
    # the skip's "earlier" is tuple order within a profile: the walk
    # builds candidates of the literal product in increasing order, all of
    # them without the skip, and counts every candidate either way
    built = []

    def recording(cm):
        built.append(cm)
        return build_graph(cm)

    monkeypatch.setattr(mhaar.search, "build_graph", recording)
    cells = _cells(m)
    skip = mode == "normalized"
    for profile, forced, space in _plan(group, m, mode):
        built.clear()
        assert _run_profile(group, m, cells, profile, forced, space,
                            lambda graph, n: False) == (space, None)
        stream = [tuple(tuple(sorted(cm.block(i, j))) for i, j in cells) for cm in built]
        assert set(stream) <= set(profile_candidates(group.order, profile, forced))
        assert skip or len(stream) == space
        assert all(a < b for a, b in zip(stream, stream[1:]))


def rows_above(graph):
    return tuple(tuple(v for v in range(u + 1, graph.n) if graph.has_edge(u, v))
                 for u in range(1, graph.n))


@pytest.mark.parametrize("m,d,count", [(8, 3, 553), (9, 4, 14634)])
def test_seeded_regular_graphs_come_in_increasing_order(m, d, count):
    graphs = list(_regular_graphs_seeded(m, d))
    assert len(graphs) == len(set(graphs)) == count
    for graph in graphs:
        assert all(graph.degree(v) == d for v in range(m))
        assert graph.bits[0] == (2 << d) - 2  # N(0) = {1..d}
    keys = [rows_above(graph) for graph in graphs]
    assert all(a < b for a, b in zip(keys, keys[1:]))


# -- the orderly degree scan ------------------------------------------------------


def triangle_free(graph, n):
    return not any(graph.triangle_count(v) for v in range(graph.n))


def all_on_a_triangle(graph, n):
    return all(graph.triangle_count(v) for v in range(graph.n))


@pytest.mark.parametrize("engine", [by_engine, triangle_free,
                                    all_on_a_triangle],
                         ids=["engine", "triangle-free", "all-on-a-triangle"])
@pytest.mark.parametrize("m", range(3, 10))
def test_orderly_scan_matches_the_full_stream(monkeypatch, m, engine):
    # the stand-ins answer isomorphism invariants, so the cut prefixes are
    # sound for them too; they give the scan earlier witnesses to stop at
    calls = []

    def counting(graph, n):
        calls.append(n)
        return engine(graph, n)

    monkeypatch.setattr(mhaar.search, "_decider", lambda: counting)
    r = c1_regular_asymmetric_scan(m)
    got = (r.examined, r.witnesses, len(calls),
           None if r.witness is None else r.witness.upper_items())
    assert got == reference_scan(m, engine)


@pytest.mark.parametrize("m,d", [(m, d) for m in range(2, 10) for d in range(m)]
                         + [(10, 3)])
def test_graph_count_counts_the_full_stream(m, d):
    # a cut prefix is counted, not walked; from the root the count is the
    # whole stream, 0 when m*d is odd
    assert _assignment_count([d - 1] * d + [d] * (m - d - 1), 1, {})[0] == sum(
        1 for _ in _regular_graphs_seeded(m, d))


def test_c1_scan_m10_is_pinned(decisions):
    decided, engine = decisions
    r = c1_regular_asymmetric_scan(10)
    assert (r.exists, r.examined, r.witnesses) == (True, 137182, 1)
    assert (r.mode, r.profiles, r.total_space) == ("degree-scan", 0, None)
    assert len(decided) == 207
    assert len(engine) == 72
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4),
             (2, 6), (3, 5), (3, 7), (4, 7), (4, 8), (5, 8), (5, 9), (6, 7),
             (6, 8), (6, 9), (7, 9), (8, 9)]
    assert r.witness == matrix_from_graph(cyclic(1), Graph.from_edges(10, edges))


def test_c1_scan_budget_covers_the_counted_graphs():
    # 14,634 graphs at C1/9, nearly all counted in cut prefixes
    assert decide_existence(cyclic(1), 9, budget=14634).examined == 14634
    with pytest.raises(CapacityError, match="degree scan exceeded budget"):
        decide_existence(cyclic(1), 9, budget=14633)


def test_search_package_keeps_no_full_stream():
    assert not hasattr(mhaar.search, "_profile_candidates")
    assert not hasattr(mhaar.search, "_regular_graphs_seeded")
    assert not hasattr(mhaar.search, "_swap_gives_earlier")
