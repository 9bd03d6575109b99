"""Automorphism-group computation against graphs with known symmetry."""

import hashlib
import itertools
import random
import sys
from math import factorial

import pytest

import mhaar.search
from mhaar.autos import (
    BRUTE_FORCE_LIMIT,
    _hmix,
    _is_automorphism,
    _Partition,
    _refine,
    _root_partition,
    _translations,
    automorphism_group,
    brute_force_aut_order,
    extra_automorphism,
    is_m_hgr,
    is_m_pgsr,
)
from mhaar.catalog import build_entry, entries
from mhaar.cayley import ConnectionMatrix, build_graph
from mhaar.constructions import synthesize
from mhaar.graphs import Graph
from mhaar.groups import CapacityError, cyclic, elem_abelian, parse_group_spec

from conftest import battery_groups, random_matrix
from test_search import _regular_graphs_seeded


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(v, v ^ (1 << i)) for v in range(n)
                                for i in range(d) if v < v ^ (1 << i)])


def disjoint_copies(graph, k):
    n = graph.n
    return Graph.from_edges(k * n, [(c * n + u, c * n + v) for c in range(k)
                                    for u, v in graph.edges()])


# -- known orders --------------------------------------------------------------


KNOWN = [
    ("C5", cycle(5), 10),            # dihedral on 5 points
    ("K4", complete(4), 24),         # full symmetric group
    ("K33", complete_bipartite(3, 3), 72),   # S3 wr S2
    ("petersen", petersen(), 120),
    ("P4", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 2),  # path: flip only
    ("K1", Graph(1), 1),
    ("E3", Graph(3), 6),         # empty graph, all permutations
]


@pytest.mark.parametrize("name,graph,order", KNOWN, ids=[k[0] for k in KNOWN])
def test_known_aut_orders(name, graph, order):
    res = automorphism_group(graph)
    assert res.order == order
    # generators actually are automorphisms and generate at least the claim
    adj = {frozenset(e) for e in graph.edges()}
    for p in res.generators:
        mapped = {frozenset((p[u], p[v])) for u, v in graph.edges()}
        assert mapped == adj


def test_aut_order_shortcut():
    assert automorphism_group(petersen()).order == 120


def test_the_empty_graph():
    g = Graph(0)
    assert automorphism_group(g).order == 1
    assert brute_force_aut_order(g) == 1
    assert g.is_connected()


def test_path_orbits():
    res = automorphism_group(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    assert sorted(res.orbits) == [(0, 3), (1, 2)]
    # orbit-stabilizer: every vertex stabilizer is trivial
    assert all(len(o) == res.order for o in res.orbits)


def test_petersen_vertex_transitive():
    res = automorphism_group(petersen())
    assert len(res.orbits) == 1
    assert len(res.orbits[0]) == 10
    assert res.order // len(res.orbits[0]) == 12  # the stabilizer of a vertex


def test_brute_force_agrees_small():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.45]
        g = Graph.from_edges(n, edges)
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_brute_force_limit():
    assert BRUTE_FORCE_LIMIT == 9
    with pytest.raises(CapacityError):
        brute_force_aut_order(petersen())
    assert brute_force_aut_order(petersen(), limit=10) == 120


def test_capacity_env(monkeypatch):
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "8")
    with pytest.raises(CapacityError):
        automorphism_group(petersen())
    with pytest.raises(CapacityError):
        extra_automorphism(petersen(), 1)
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "10")
    assert automorphism_group(petersen()).order == 120
    for bad in ("abc", "0", "-5", "2049"):
        monkeypatch.setenv("MHAAR_MAX_VERTICES", bad)
        with pytest.raises(ValueError, match="MHAAR_MAX_VERTICES"):
            automorphism_group(petersen())


def test_recursion_limit_restored(monkeypatch):
    # the search is a loop: it runs under a limit just above the caller's
    # stack depth, and never sets the limit itself
    before = sys.getrecursionlimit()
    set_limit = sys.setrecursionlimit
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    set_limit(depth + 40)

    def refuse(limit):
        raise AssertionError(f"the engine set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        assert automorphism_group(Graph(200)).order == factorial(200)
        assert automorphism_group(hypercube(8)).order == 2 ** 8 * factorial(8)
        assert sys.getrecursionlimit() == depth + 40
    finally:
        set_limit(before)


# every AutResult field over a seeded battery: a change to the order in
# which the tree is visited changes the generators, and so this digest
ENGINE_DIGEST = "269ddac5373b53519dd45d985fbbbef2eb1b10760760926b247a8a7a4fbe7de2"


def _digest_graphs():
    rng = random.Random(31337)
    graphs = []
    for _ in range(300):
        n = rng.randint(1, 30)
        p = rng.random()
        graphs.append(Graph.from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    groups = battery_groups()
    for name in sorted(groups):
        graphs.append(build_graph(random_matrix(
            groups[name], rng.randint(2, 4), rng, diagonal=rng.random() < 0.5,
            density=rng.random())))
    return graphs


def _engine_digest():
    sha = hashlib.sha256()
    for graph in _digest_graphs():
        res = automorphism_group(graph)
        sha.update(repr((res.order, res.generators, res.orbits, res.nodes)).encode())
    return sha.hexdigest()


def test_engine_results_are_pinned():
    assert _engine_digest() == ENGINE_DIGEST


# -- refinement against the full-scan reference -------------------------------


def _refine_full_scan(bits, cells, worklist, h):
    """The refinement before splitters were limited to the cells they
    touch: every splitter counts every vertex of every non-singleton cell."""
    wl = list(worklist)
    qi = 0
    while qi < len(wl):
        splitter = wl[qi]
        qi += 1
        ci = 0
        while ci < len(cells):
            cell = cells[ci]
            if cell.bit_count() > 1:
                buckets = {}
                b = cell
                while b:
                    low = b & -b
                    cnt = (bits[low.bit_length() - 1] & splitter).bit_count()
                    buckets[cnt] = buckets.get(cnt, 0) | low
                    b ^= low
                if len(buckets) > 1:
                    counts = sorted(buckets)
                    parts = [buckets[c] for c in counts]
                    cells[ci : ci + 1] = parts
                    h = _hmix(h, ci)
                    for c in counts:
                        h = _hmix(h, c)
                        h = _hmix(h, buckets[c].bit_count())
                    wl.extend(parts)
                    ci += len(parts) - 1
            ci += 1
    return h


def _refinement_cases(seed, count):
    """(graph, cells, worklist, hash) on random graphs and partitions."""
    rng = random.Random(seed)
    groups = battery_groups()
    names = sorted(groups)
    for trial in range(count):
        if trial % 2:
            cm = random_matrix(groups[rng.choice(names)], rng.randint(2, 4), rng,
                               diagonal=rng.random() < 0.5, density=rng.random())
            graph = build_graph(cm)
        else:
            n = rng.randint(1, 40)
            p = rng.random()
            graph = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < p])
        n = graph.n
        k = rng.randint(1, min(n, 4))
        label = [rng.randrange(k) for _ in range(n)]
        cells = [sum(1 << v for v in range(n) if label[v] == c) for c in range(k)]
        cells = [c for c in cells if c]
        rng.shuffle(cells)
        # every worklist meets _refine's precondition: a cell left off it
        # is one the partition is already equitable against
        kind = trial % 3
        if kind == 0:
            worklist = list(cells)
        elif kind == 1:
            # the engine's child step: an equitable partition with one vertex
            # of a non-singleton cell individualized, and that vertex queued
            _refine_full_scan(graph.bits, cells, list(cells), 0)
            wide = [i for i, c in enumerate(cells) if c & (c - 1)]
            worklist = []
            if wide:
                i = rng.choice(wide)
                low = 1 << rng.choice([v for v in range(n) if cells[i] >> v & 1])
                cells[i : i + 1] = [low, cells[i] ^ low]
                worklist = [low]
        else:
            worklist = [rng.getrandbits(n) or 1 for _ in range(rng.randint(1, 3))]
            worklist += cells
        yield graph, cells, worklist, rng.getrandbits(64)


def _state(ptn):
    return list(ptn.cells), list(ptn.starts), list(ptn.wide), list(ptn.wstarts)


def test_refine_matches_full_scan():
    for graph, cells, worklist, h in _refinement_cases(4242, 200):
        ptn, ref = _Partition(cells), list(cells)
        assert _refine(graph.bits, ptn, worklist, h) == \
            _refine_full_scan(graph.bits, ref, worklist, h)
        assert ptn.cells == ref
        # the starts and the non-singleton cells follow the cells
        assert _state(ptn) == _state(_Partition(ref))


def test_undo_restores_the_partition():
    rng = random.Random(99)
    for graph, cells, worklist, h in _refinement_cases(2024, 200):
        ptn = _Partition(cells)
        before = _state(ptn)
        _refine(graph.bits, ptn, worklist, h)
        # a second refinement below the first, as a child of the search does
        mark, middle = len(ptn.trail), _state(ptn)
        if ptn.wide:
            cell = ptn.wide[rng.randrange(len(ptn.wide))]
            _refine(graph.bits, ptn, [cell & -cell], h)
        ptn.undo(mark)
        assert _state(ptn) == middle
        ptn.undo(0)
        assert _state(ptn) == before
        assert ptn.trail == []


def _assert_equitable(bits, cells):
    """Every vertex of a cell has the same number of neighbours in each cell."""
    wide = [[v for v in range(len(bits)) if c >> v & 1] for c in cells if c & (c - 1)]
    for d in cells:
        for vs in wide:
            assert len({(bits[v] & d).bit_count() for v in vs}) == 1


def _witness_graphs():
    """The largest witness graphs of the `synthesize` benchmark (seed 3)."""
    for spec, m in [("C2^4xC3", 8), ("C7xC7", 9), ("X27", 12), ("C2", 400)]:
        res = synthesize(parse_group_spec(spec), m, verify=False, seed=3)
        yield build_graph(res.matrix)


def test_refinement_is_equitable_at_the_root_and_below():
    """Checked directly, not against a reference: the root's partition, and
    each child's along random paths, is equitable.  The root leaves its
    last initial cell off the worklist, which is exact only because the
    initial key includes the degree."""
    rng = random.Random(7)
    for graph in itertools.chain(_digest_graphs(), _witness_graphs()):
        ptn, _ = _root_partition(graph)
        _assert_equitable(graph.bits, ptn.cells)
        mark = len(ptn.trail)
        for _ in range(2):
            for _ in range(3):
                if not ptn.wide:
                    break
                cell = ptn.wide[0]
                low = 1 << rng.choice([v for v in range(graph.n) if cell >> v & 1])
                ptn.individualize(low)
                _refine(graph.bits, ptn, [low], 0)
                _assert_equitable(graph.bits, ptn.cells)
            ptn.undo(mark)


# -- exact orders against closed forms and independent oracles ----------------


LARGE = [
    ("Q7", lambda: hypercube(7), 2 ** 7 * factorial(7)),
    ("K40,60", lambda: complete_bipartite(40, 60), factorial(40) * factorial(60)),
    ("K50,50", lambda: complete_bipartite(50, 50), 2 * factorial(50) ** 2),
    ("10petersen", lambda: disjoint_copies(petersen(), 10),
     120 ** 10 * factorial(10)),
    ("E100", lambda: Graph(100), factorial(100)),
    ("K100", lambda: complete(100), factorial(100)),
    ("E200", lambda: Graph(200), factorial(200)),
]


@pytest.mark.parametrize("name,make,order", LARGE, ids=[k[0] for k in LARGE])
def test_large_closed_form_orders(name, make, order):
    graph = make()
    assert graph.n >= 100
    res = automorphism_group(graph)
    assert res.order == order
    for p in res.generators:
        assert all(graph.has_edge(p[u], p[v]) for u, v in graph.edges())


def cfi(base, twisted=False):
    """The Cai-Furer-Immerman graph over a base graph.

    Each base vertex v gets a middle vertex per even-size subset S of its
    edges and two end vertices (0 and 1) per incident edge e; a middle
    vertex meets end 1 of each e in S and end 0 of each e not in S.
    Across each base edge, end i meets end i on the other side; the
    twisted graph crosses its first edge (end i meets end 1-i).
    """
    edges = list(base.edges())
    ends, pairs, n = {}, [], 0
    for v in range(base.n):
        mine = [e for e, uw in enumerate(edges) if v in uw]
        for e in mine:
            ends[v, e] = (n, n + 1)
            n += 2
        for r in range(0, len(mine) + 1, 2):
            for subset in itertools.combinations(mine, r):
                pairs += [(n, ends[v, e][e in subset]) for e in mine]
                n += 1
    for e, (u, w) in enumerate(edges):
        flip = twisted and e == 0
        pairs += [(ends[u, e][i], ends[w, e][i ^ flip]) for i in (0, 1)]
    return Graph.from_edges(n, pairs)


def prism():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                (0, 3), (1, 4), (2, 5)])


# |Aut(CFI(X))| = 2^(|E|-|V|+1) |Aut(X)| for a connected base X, twisted or not
CFI = [
    ("K4", lambda: complete(4), 2 ** 3 * 24),
    ("K3,3", lambda: complete_bipartite(3, 3), 2 ** 4 * 72),
    ("prism", prism, 2 ** 4 * 12),
    ("Q3", lambda: hypercube(3), 2 ** 5 * 48),
    ("petersen", petersen, 2 ** 6 * 120),
]


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("name,make,order", CFI, ids=[k[0] for k in CFI])
def test_cfi_closed_form_orders(name, make, order, twisted):
    base = make()
    graph = cfi(base, twisted)
    assert graph.n == sum(base.degree(v) * 2 + 2 ** (base.degree(v) - 1)
                          for v in range(base.n))
    res = automorphism_group(graph)
    assert res.order == order
    for p in res.generators:
        assert all(graph.has_edge(p[u], p[v]) for u, v in graph.edges())


def test_generators_generate_the_order_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    graphs = [hypercube(6), disjoint_copies(petersen(), 4),
              complete_bipartite(5, 6)]
    graphs += [build_graph(build_entry(entries(tag=tag, kind="hgr")[0]))
               for tag in ("C6", "C2^3", "D6", "A4", "X27")]
    for graph in graphs:
        res = automorphism_group(graph)
        perms = [combinatorics.Permutation(list(p)) for p in res.generators]
        group = combinatorics.PermutationGroup(
            perms or [combinatorics.Permutation(graph.n - 1)])
        assert group.order() == res.order


def test_order_matches_networkx_count():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    rng = random.Random(2409)
    checked = 0
    while checked < 20:
        n = rng.randint(10, 20)
        p = rng.choice([0.1, 0.2, 0.5, 0.8, 0.9])
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        order = automorphism_group(Graph.from_edges(n, edges)).order
        if order > 5000:
            continue
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        assert sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter()) == order
        checked += 1


# -- structural verdicts -------------------------------------------------------


def test_is_m_hgr_rejects_diagonal():
    g = cyclic(3)
    cm = ConnectionMatrix(g, 2, {(1, 2): [0], (1, 1): [1, 2]})
    v = is_m_hgr(cm)
    assert not v
    assert v.reason == "diagonal block (1, 1) is nonempty"
    assert v.aut_order is None


def test_is_m_hgr_rejects_irregular():
    g = cyclic(3)
    cm = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [0], (2, 3): [2]})
    v = is_m_hgr(cm)
    assert not v
    assert v.reason == "part 3 has valency 2, part 1 has 3"
    assert v.field == "evidence.regular" and v.aut_order is None


def test_is_m_hgr_reports_excess_symmetry():
    # C2 with m=2 and the full block: the 4-cycle has 8 automorphisms
    g = cyclic(2)
    cm = ConnectionMatrix(g, 2, {(1, 2): [0, 1]})
    v = is_m_hgr(cm)
    assert not v
    assert v.aut_order == 8
    assert v.reason == "automorphism group has order 8, group has order 2"


def test_is_m_pgsr_ignores_valencies():
    # irregular but asymmetric-enough matrices are fine for the loose verdict
    g = elem_abelian(2, 3)
    cm = ConnectionMatrix(
        g, 3,
        {(1, 2): [0, 1, 2, 4], (1, 3): [0, 3], (2, 3): [0, 1, 5]})
    v = is_m_pgsr(cm)
    if v.ok:
        assert v.aut_order == 8
        assert len(set(cm.valencies())) > 1  # genuinely not regular
    else:
        assert "automorphism group" in v.reason


def test_verdict_truthiness():
    g = cyclic(6)
    cm = ConnectionMatrix(
        g, 3, {(1, 2): [0, 1], (1, 3): [0, 2], (2, 3): [0, 4]})
    v = is_m_hgr(cm)
    assert isinstance(bool(v), bool)
    assert bool(v) == v.ok


def test_translations_within_random_matrices():
    # |Aut| is always a multiple of |G|; equality is the interesting case
    rng = random.Random(91)
    for _ in range(20):
        g = cyclic(rng.choice([2, 3, 4, 6]))
        cm = random_matrix(g, rng.choice([2, 3]), rng)
        order = automorphism_group(build_graph(cm)).order
        assert order % g.order == 0


# -- the root's known translations --------------------------------------------


def _translation_cases():
    """Connection matrices over the battery and a few groups of order 32-49,
    at m = 2..6 and at most 300 vertices: random ones (many with excess
    symmetry) and synthesized witnesses."""
    rng = random.Random(4711)
    groups = battery_groups()
    for spec in ("C2^5", "Q8xC4", "D18xC2", "D8xC5", "C2^4xC3", "C7xC7"):
        groups[spec] = parse_group_spec(spec)
    cms = []
    for name in sorted(groups):
        g = groups[name]
        for m in range(2, min(6, 300 // g.order) + 1):
            cms.append(random_matrix(g, m, rng, diagonal=rng.random() < 0.3,
                                     density=rng.random()))
    for spec, m in [("Q8", 3), ("A4", 5), ("D8xC3", 6), ("C2^5", 4), ("X27", 6),
                    ("C7xC7", 6), ("C6", 4), ("D10", 3)]:
        cms.append(synthesize(parse_group_spec(spec), m, verify=False).matrix)
    return cms


def test_known_translations_change_no_result():
    calls = []
    for cm in _translation_cases():
        graph, known = build_graph(cm), _translations(cm)

        def counting(v, w):
            calls.append(w)
            return known(v, w)
        assert automorphism_group(graph, counting) == automorphism_group(graph)
    # the shortcut is tried (222 times, on 97 of the 158 graphs)
    assert len(calls) >= 200


def test_wrong_known_changes_no_result():
    def swap(v, w):
        # sends v to w, but is no automorphism of a graph with |Aut| = |G|
        p = list(range(graph.n))
        p[v], p[w] = w, v
        return p

    def elsewhere(v, w):
        # a genuine automorphism, but it sends v to a vertex other than w
        n = cm.group.order
        for k in (1, 2):
            other = v - v % n + (v + k) % n
            if other != w:
                return known(v, other)

    for cm in _translation_cases()[::3]:
        graph, known = build_graph(cm), _translations(cm)
        plain = automorphism_group(graph)
        for wrong in (swap, elsewhere, lambda v, w: range(graph.n)):
            assert automorphism_group(graph, wrong) == plain


# -- the quotient root ---------------------------------------------------------


def _quotient_cases():
    """The translation cases, and the C2/400 template witness at four seeds."""
    cms = _translation_cases()
    c2 = cyclic(2)
    cms += [synthesize(c2, 400, verify=False, seed=s).matrix for s in (0, 1, 3, 305)]
    return [(build_graph(cm), cm.group.order) for cm in cms]


def test_quotient_root_is_the_vertex_root():
    split = 0
    for graph, n in _quotient_cases():
        ptn, h = _root_partition(graph, n, quotient=True)
        ref, ref_h = _root_partition(graph)
        # the trail is left empty: the search never undoes the root's splits
        assert (h, ptn.cells, ptn.starts, ptn.wide, ptn.wstarts, ptn.trail) == \
            (ref_h, ref.cells, ref.starts, ref.wide, ref.wstarts, [])
        split += len(ref.cells) > 1
    # the refinement has work to do on most of them
    assert split > 100


def test_part_size_changes_no_result():
    for graph, n in _quotient_cases():
        assert automorphism_group(graph, part=n) == automorphism_group(graph)
    with pytest.raises(ValueError, match="parts of size"):
        automorphism_group(petersen(), part=3)


# -- the early abort -----------------------------------------------------------


def _cubic_triangle_free(n, seed):
    """A seeded random connected cubic graph without triangles, by pairing
    three stubs per vertex until the pairing is simple."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if any(u == w for u, w in pairs) or len(set(map(frozenset, pairs))) < len(pairs):
            continue
        graph = Graph.from_edges(n, pairs)
        if graph.is_connected() and not any(map(graph.triangle_count, range(n))):
            return graph


@pytest.mark.parametrize("n,bound,digest", [
    (100, 1000, "c8471ad21bf1b49fbea6960e2a6e8cb5ba7ec5555de49023aa375ebb0490daa0"),
    (200, 1500, "9f092d2f9639e2b7d752a3154c7ee8e3d79eca55c7057495e9f7f37bbcf99fa8"),
])
def test_pruned_children_stop_at_their_first_split_off_the_trace(monkeypatch, n, bound, digest):
    # one cell at the root: every root child but the first is refined and
    # pruned; refined to the end, they made 8,961 and 36,491 splits
    graph = _cubic_triangle_free(n, n)
    splits = []
    split = _Partition.split

    def counting(self, ci, k, parts):
        splits.append(ci)
        return split(self, ci, k, parts)

    monkeypatch.setattr(_Partition, "split", counting)
    res = automorphism_group(graph)
    assert len(splits) <= bound
    assert hashlib.sha256(repr(res).encode()).hexdigest() == digest


# -- the decision mode ---------------------------------------------------------


def test_only_translations_matches_the_order():
    rng = random.Random(2718)
    graphs = []
    for g in battery_groups().values():
        for m in range(2, 6):
            for _ in range(5):
                cm = random_matrix(g, m, rng, diagonal=rng.random() < 0.3,
                                   density=rng.random())
                graphs.append((build_graph(cm), g.order))
    # over the trivial group the parts are single vertices
    graphs += [(graph, 1) for graph in _regular_graphs_seeded(8, 3)]
    assert len(graphs) == 24 * 4 * 5 + 553
    maps = [extra_automorphism(graph, n) for graph, n in graphs]
    answers = [sigma is None for sigma in maps]
    assert answers == [automorphism_group(graph).order == n for graph, n in graphs]
    assert 0 < sum(answers) < len(answers)
    # each map returned is an automorphism, and it fixes a vertex without
    # being the identity or moves a vertex into another part
    for (graph, n), sigma in zip(graphs, maps):
        if sigma is not None:
            assert _is_automorphism(graph.bits, sigma)
            moved = [v for v in range(graph.n) if sigma[v] != v]
            assert moved and (len(moved) < graph.n
                              or any(sigma[v] // n != v // n for v in moved))


def test_decision_mode_root_key_per_part(monkeypatch):
    # the key read once per part gives the cells and hash of the key read
    # at every vertex, on every graph the searches decide
    calls = []
    decider = mhaar.search._decider

    def checking_decider():
        decide = decider()

        def checking(graph, n):
            ptn, h = _root_partition(graph, n)
            ref, ref_h = _root_partition(graph)
            assert (ptn.cells, h) == (ref.cells, ref_h)
            calls.append(n)
            return decide(graph, n)

        return checking

    monkeypatch.setattr(mhaar.search, "_decider", checking_decider)
    for spec, m in [("D6", 3), ("C2^2", 3)]:
        mhaar.search.decide_existence(parse_group_spec(spec), m)
    assert len(calls) > 100


@pytest.mark.parametrize("group,m,blocks,order", [
    (cyclic(5), 4, {(1, 2): (0, 2, 3), (1, 4): (4,), (2, 3): (1,), (3, 4): (3, 4)}, 10),
    (cyclic(12), 2, {(1, 2): (2, 3, 5)}, 24),
], ids=["C5-m4", "C12-m2"])
def test_only_translations_sees_automorphisms_that_only_move_parts(group, m, blocks, order):
    # every vertex stabilizer is trivial, so only a root child in another
    # part can reveal the extra automorphisms
    graph = build_graph(ConnectionMatrix(group, m, blocks))
    res = automorphism_group(graph)
    assert res.order == order
    assert all(len(o) == res.order for o in res.orbits)
    sigma = extra_automorphism(graph, group.order)
    assert any(sigma[v] // group.order != v // group.order for v in range(graph.n))


def test_only_translations_needs_whole_parts():
    for n in (0, 3):
        with pytest.raises(ValueError, match="parts of size"):
            extra_automorphism(petersen(), n)
