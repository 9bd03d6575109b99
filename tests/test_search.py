"""Exhaustive search: candidate counting, both modes, and the trivial group."""

import functools
import itertools
from math import comb, prod

import pytest

import mhaar.search
from mhaar.autos import is_m_hgr, only_translations
from mhaar.catalog import matrix_from_graph
from mhaar.cayley import ConnectionMatrix, build_graph
from mhaar.graphs import Graph
from mhaar.groups import (CapacityError, cyclic, dihedral, elem_abelian,
                          parse_group_spec, quaternion8)
from mhaar.search import (
    SearchReport,
    _assignment_count,
    _cells,
    _plan,
    _profile_candidates,
    _relabelling_check,
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


def test_count_all_keeps_going():
    r = decide_existence(cyclic(6), 3, mode="normalized", early_exit=False)
    assert r.exists and r.exhausted
    assert r.examined == 4033  # the whole normalized space
    assert r.witnesses == 672
    assert is_m_hgr(r.witness).ok  # first witness is still returned


def test_argument_validation():
    with pytest.raises(ValueError, match="m must be >= 2"):
        decide_existence(cyclic(2), 1)
    with pytest.raises(ValueError, match="mode"):
        decide_existence(cyclic(2), 3, mode="greedy")
    with pytest.raises(CapacityError, match="exceeds the budget"):
        decide_existence(elem_abelian(2, 2), 3, mode="exhaustive", budget=100)


# -- trivial group degree scan --------------------------------------------------


def test_c1_scan_small_m_is_vacuous():
    # no degree in 3..(m-1)/2 exists below m=8 (parity kills m=7)
    for m in (3, 4, 5, 6, 7):
        r = c1_regular_asymmetric_scan(m)
        assert (r.exists, r.examined, r.exhausted) == (False, 0, True)
        assert r.mode == "degree-scan"
        assert r.total_space is None


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
        c1_regular_asymmetric_scan(9, budget=100)


def test_report_str_shapes():
    r = decide_existence(cyclic(2), 3)
    assert str(r) == "C2 m=3 [normalized] examined 4/4: none exist"
    s = SearchReport(cyclic(2), 3, "normalized", False, 3, 4, 2, 0, None,
                     False, 0.0)
    assert str(s).endswith("none seen")


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


def reference_scan(m, early_exit, engine):
    """The degree scan on the full stream: every graph is examined, and
    the engine decides each one that no swap maps to an earlier graph,
    until the degree's first witness."""
    group = cyclic(1)
    examined = witnesses = calls = 0
    first = None
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        seen_witness = False
        for graph in seeded_stream(m, d):
            examined += 1
            if not seen_witness and _swap_gives_earlier(graph.bits, m, d):
                continue
            calls += 1
            if engine(graph, 1):
                witnesses += 1
                seen_witness = True
                if first is None:
                    first = matrix_from_graph(group, graph)
                if early_exit:
                    break
        if first is not None and early_exit:
            break
    return (examined, witnesses, calls,
            None if first is None else first.upper_items())


# -- skipping candidates that map to earlier ones ---------------------------------
#
# The references below are the search without the skip: the same streams,
# one engine call per candidate.


def literal_search(group, m, early_exit=True, engine=only_translations):
    cells = _cells(m)
    examined = witnesses = 0
    first = None
    for profile, forced, _ in _plan(group, m, "normalized"):
        for choice in _profile_candidates(group.order, profile, forced):
            examined += 1
            blocks = {cell: elems for cell, elems in zip(cells, choice) if elems}
            cm = ConnectionMatrix(group, m, blocks)
            if engine(build_graph(cm), group.order):
                witnesses += 1
                if first is None:
                    first = cm
                if early_exit:
                    break
        if first is not None and early_exit:
            break
    return (first is not None, examined, witnesses,
            not (early_exit and first is not None),
            None if first is None else first.upper_items())


def literal_scan(m):
    group = cyclic(1)
    examined = witnesses = 0
    first = None
    for d in range(3, (m - 1) // 2 + 1):
        if m * d % 2:
            continue
        for graph in _regular_graphs_seeded(m, d):
            examined += 1
            if only_translations(graph, 1):
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


def sparse_triangle_free(graph, n):
    return all(graph.degree(v) >= 3 and not graph.on_triangle(v)
               for v in range(graph.n))


def test_skip_keeps_every_witness_counted(monkeypatch):
    expected = literal_search(cyclic(6), 3, early_exit=False)
    assert expected[:3] == (True, 4033, 672)
    assert outcome(decide_existence(cyclic(6), 3, early_exit=False)) == expected
    # across profiles: a stand-in engine that answers an isomorphism
    # invariant, with witnesses in profiles that relabelling maps to
    # earlier ones; the first is candidate 44, after skipped profiles
    monkeypatch.setattr(mhaar.search, "only_translations", sparse_triangle_free)
    first = literal_search(cyclic(4), 4, engine=sparse_triangle_free)
    assert first[1:3] == (44, 1)
    assert outcome(decide_existence(cyclic(4), 4)) == first
    expected = literal_search(cyclic(4), 4, early_exit=False,
                              engine=sparse_triangle_free)
    assert expected[:3] == (True, 45036, 2239)
    assert outcome(decide_existence(cyclic(4), 4, early_exit=False)) == expected


@pytest.mark.parametrize("m", range(3, 10))
def test_degree_scan_skip_agrees_with_the_literal_loop(m):
    assert outcome(c1_regular_asymmetric_scan(m)) == literal_scan(m)


def test_degree_scan_skip_keeps_every_witness_counted(monkeypatch):
    # a stand-in engine that answers an isomorphism invariant: the 96
    # triangle-free cubic graphs on 8 vertices, the first at position 249
    def triangle_free(graph, n):
        return not any(graph.on_triangle(v) for v in range(graph.n))

    expected_first = next(graph for graph in _regular_graphs_seeded(8, 3)
                          if triangle_free(graph, 1))
    monkeypatch.setattr(mhaar.search, "only_translations", triangle_free)
    r = c1_regular_asymmetric_scan(8, early_exit=False)
    assert (r.exists, r.examined, r.witnesses, r.exhausted) == (True, 553, 96, True)
    first = r.witness
    assert first == matrix_from_graph(cyclic(1), expected_first)
    r = c1_regular_asymmetric_scan(8)
    assert (r.examined, r.witnesses, r.witness) == (249, 1, first)


def translation_gives_earlier(group, m, cells, forced, choice):
    """Try every part translation, without pruning or the centre."""
    table = group.table
    for a in itertools.product(range(group.order), repeat=m):
        image = tuple(
            tuple(sorted(table[table[a[j - 1]][t]][group.inv(a[i - 1])]
                         for t in block))
            for (i, j), block in zip(cells, choice))
        if image < choice and all(0 in image[c] for c in forced):
            return True
    return False


@pytest.mark.parametrize("group,m,largest", [
    (cyclic(2), 5, 100), (quaternion8(), 2, 100),
    (dihedral(6), 3, 375)])
def test_translation_check_matches_every_translation(group, m, largest):
    cells = _cells(m)
    for profile, forced, space in _plan(group, m, "normalized"):
        if space > largest:
            continue
        earlier = _translation_check(group, m, cells, profile, forced)
        for choice in _profile_candidates(group.order, profile, forced):
            assert earlier(choice) == translation_gives_earlier(
                group, m, cells, forced, choice), (profile, choice)


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


@pytest.fixture
def engine_calls(monkeypatch):
    calls = []

    def counting(graph, n):
        calls.append(n)
        return only_translations(graph, n)

    monkeypatch.setattr(mhaar.search, "only_translations", counting)
    return calls


def test_skip_cuts_engine_calls(engine_calls):
    # (examined, engine calls) up to the first witness in normalized mode.
    # D6/3 makes 114 calls of 4033 candidates; part relabellings cut
    # C2/5 and C2/6 from 346 and 2,600 calls under translations alone;
    # the degree scan makes 81 calls of C1/9's 14,634 graphs
    for spec, m, examined, calls in [
            ("D6", 3, 4033, 114), ("C3", 4, 1199, 136), ("C5", 3, 607, 92),
            ("C2", 5, 658, 81), ("C2^2", 3, 96, 40), ("C4", 3, 96, 28),
            ("C10", 2, 513, 108), ("D8", 2, 129, 28), ("C2", 6, 3892, 76),
            ("C1", 9, 14634, 81)]:
        group = parse_group_spec(spec)
        for early_exit in (True, False):
            engine_calls.clear()
            r = decide_existence(group, m, early_exit=early_exit)
            assert (r.examined, len(engine_calls)) == (examined, calls), spec
            if r.exists:  # --count-all decides every candidate past it
                break


def test_exhaustive_mode_decides_every_candidate(engine_calls):
    r = decide_existence(elem_abelian(2, 2), 3, mode="exhaustive")
    assert r.examined == len(engine_calls) == 346
    engine_calls.clear()
    # 27 profiles, many of them relabellings of each other
    r = decide_existence(cyclic(2), 4, mode="exhaustive")
    assert r.examined == len(engine_calls) == 216


@pytest.mark.parametrize("group,m,mode", [
    (dihedral(6), 3, "normalized"), (cyclic(2), 5, "normalized"),
    (elem_abelian(2, 2), 3, "exhaustive"), (quaternion8(), 2, "normalized")])
def test_profile_candidates_come_in_increasing_order(group, m, mode):
    # the skip's "earlier" is tuple order within a profile
    for profile, forced, space in _plan(group, m, mode):
        stream = list(_profile_candidates(group.order, profile, forced))
        assert len(stream) == space
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
    return not any(graph.on_triangle(v) for v in range(graph.n))


def all_on_a_triangle(graph, n):
    return all(graph.on_triangle(v) for v in range(graph.n))


@pytest.mark.parametrize("early_exit", [True, False])
@pytest.mark.parametrize("engine", [only_translations, triangle_free,
                                    all_on_a_triangle],
                         ids=["engine", "triangle-free", "all-on-a-triangle"])
@pytest.mark.parametrize("m", range(3, 10))
def test_orderly_scan_matches_the_full_stream(monkeypatch, m, engine, early_exit):
    # the stand-ins answer isomorphism invariants, so the cut prefixes are
    # sound for them too; they give the scan witnesses to count past
    calls = []

    def counting(graph, n):
        calls.append(n)
        return engine(graph, n)

    monkeypatch.setattr(mhaar.search, "only_translations", counting)
    r = c1_regular_asymmetric_scan(m, early_exit=early_exit)
    got = (r.examined, r.witnesses, len(calls),
           None if r.witness is None else r.witness.upper_items())
    assert got == reference_scan(m, early_exit, engine)


@pytest.mark.parametrize("m,d", [(m, d) for m in range(2, 10) for d in range(m)]
                         + [(10, 3)])
def test_graph_count_counts_the_full_stream(m, d):
    # a cut prefix is counted, not walked; from the root the count is the
    # whole stream, 0 when m*d is odd
    assert _assignment_count([d - 1] * d + [d] * (m - d - 1), 1, {})[0] == sum(
        1 for _ in _regular_graphs_seeded(m, d))


def test_c1_scan_m10_is_pinned(engine_calls):
    r = c1_regular_asymmetric_scan(10)
    assert (r.exists, r.examined, r.witnesses) == (True, 137182, 1)
    assert len(engine_calls) == 207
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4),
             (2, 6), (3, 5), (3, 7), (4, 7), (4, 8), (5, 8), (5, 9), (6, 7),
             (6, 8), (6, 9), (7, 9), (8, 9)]
    assert r.witness == matrix_from_graph(cyclic(1), Graph.from_edges(10, edges))


def test_c1_scan_budget_covers_the_counted_graphs():
    # 14,634 graphs at C1/9, nearly all counted in cut prefixes
    assert c1_regular_asymmetric_scan(9, budget=14634).examined == 14634
    with pytest.raises(CapacityError, match="degree scan exceeded budget"):
        c1_regular_asymmetric_scan(9, budget=14633)


def test_search_package_keeps_no_full_stream():
    assert not hasattr(mhaar.search, "_regular_graphs_seeded")
    assert not hasattr(mhaar.search, "_swap_gives_earlier")
