"""Acceptance suite: nine binding criteria, one test (one pass/fail line) each.

Each criterion pins exact integer equalities (no tolerances anywhere) and
a wall-clock budget.  Budgets are generous on purpose: they guard against
algorithmic regressions, not machine noise.  Shared fixtures prewarm the
per-group generating-set cache so the timed sections measure verification
work rather than one-off setup.
"""

import random
import time

import pytest

from mhaar.autos import (
    automorphism_group,
    brute_force_aut_order,
    is_m_hgr,
    is_m_pgsr,
)
from mhaar.catalog import build_entry, entries
from mhaar.cayley import build_graph, right_translation
from mhaar.constructions import NONEXISTENT, generic_base, generic_hgr, synthesize
from mhaar.graphs import Graph
from mhaar.groups import (
    cyclic,
    elem_abelian,
    identify_catalog_group,
    minimal_generating_set,
    product,
)
from mhaar.lift import lift3, lift4, lift5, min_target_parts, plan_lift
from mhaar.search import c1_regular_asymmetric_scan, decide_existence

from conftest import battery_groups, random_matrix


@pytest.fixture(scope="module")
def big_four():
    """The four large-rank groups, generating sets already resolved."""
    groups = {
        "C2^4": (elem_abelian(2, 4), 16),
        "C2^5": (elem_abelian(2, 5), 32),
        "C3^4": (elem_abelian(3, 4), 81),
        "C2^4xC3": (product([elem_abelian(2, 4), cyclic(3)]), 48),
    }
    for g, order in groups.values():
        assert g.order == order
        minimal_generating_set(g)  # cached on the instance
    return groups


def test_01_catalog_hgr_entries_verify():
    """Every recorded direct witness is an m-HGR with |Aut| = |G|; <= 1 s each."""
    checked = 0
    for entry in entries(kind="hgr"):
        cm = build_entry(entry)
        t0 = time.perf_counter()
        verdict = is_m_hgr(cm)
        elapsed = time.perf_counter() - t0
        assert verdict.ok, f"{entry}: {verdict.reason}"
        assert verdict.aut_order == cm.group.order
        assert elapsed <= 1.0, f"{entry}: {elapsed:.2f}s"
        checked += 1
    assert checked == 20


def test_02_pgsr_entries_and_generated_bases(big_four):
    """Catalog PGSRs and generated 3/4-part bases pass the semiregular check
    and the lift preconditions (valency pattern, triangles); <= 5 s each."""
    items = [(str(e), build_entry(e)) for e in entries(kind="pgsr")]
    for name, (g, _) in big_four.items():
        for parts in (3, 4):
            cm, label = generic_base(g, parts)
            items.append((f"{name} generated {label} {parts}-part", cm))
    assert len(items) == 23 + 8
    for name, cm in items:
        t0 = time.perf_counter()
        verdict = is_m_pgsr(cm)
        # relax_fillers waives only the k <= |G| clamp, never the shape
        # or triangle hypotheses, which is exactly the precondition set
        plan = plan_lift(cm, min_target_parts(cm.m), relax_fillers=True)
        elapsed = time.perf_counter() - t0
        assert verdict.ok, f"{name}: {verdict.reason}"
        assert verdict.aut_order == cm.group.order
        assert plan.k >= 2
        assert elapsed <= 5.0, f"{name}: {elapsed:.2f}s"


def test_03_nonexistence_by_search():
    """Exhaustive search reproduces all sixteen exceptional pairs that have
    |G| >= 2, and the degree scan settles the trivial group; <= 10 min."""
    t0 = time.perf_counter()
    pairs = [(cyclic(2), 3), (cyclic(2), 4), (cyclic(2), 5),
             (cyclic(3), 3), (cyclic(3), 4),
             (cyclic(4), 3), (cyclic(5), 3),
             (elem_abelian(2, 2), 3), (battery_groups()["D6"], 3)]
    for g, m in pairs:
        report = decide_existence(g, m, mode="normalized")
        assert not report.exists and report.exhausted, (g.label, m)
        assert report.witnesses == 0
    for m in range(3, 10):
        report = c1_regular_asymmetric_scan(m)
        assert not report.exists and report.exhausted, m
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"{elapsed:.1f}s"


def test_04_generic_witnesses_for_large_rank_groups(big_four):
    """The rank->=4 recipes give 3- and 4-part witnesses with exact |Aut|
    for C2^4, C2^5, C3^4, C2^4xC3; <= 60 s per group."""
    for name, (g, order) in big_four.items():
        t0 = time.perf_counter()
        for m in (3, 4):
            cm, _ = generic_hgr(g, m)
            verdict = is_m_hgr(cm)
            assert verdict.ok, f"{name} m={m}: {verdict.reason}"
            assert verdict.aut_order == order
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0, f"{name}: {elapsed:.1f}s"


def test_05_lift_end_to_end():
    """Chain extensions of the three shipped base shapes keep |Aut| = |G|
    at every target size; <= 30 s total."""
    t0 = time.perf_counter()
    base3 = build_entry(entries(tag="C6", m=3, kind="pgsr")[0])
    for m in (5, 7, 9):
        verdict = is_m_hgr(lift3(base3, m))
        assert verdict.ok and verdict.aut_order == 6, (m, verdict.reason)
    base4 = build_entry(entries(tag="C2^3", m=4, kind="pgsr")[0])
    for m in (6, 8):
        verdict = is_m_hgr(lift4(base4, m))
        assert verdict.ok and verdict.aut_order == 8, (m, verdict.reason)
    base5 = build_entry(entries(tag="C3", m=5, kind="pgsr", source="derived")[0])
    verdict = is_m_hgr(lift5(base5, 7))
    assert verdict.ok and verdict.aut_order == 3, verdict.reason
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0, f"{elapsed:.1f}s"


def test_06_classification_sweep_order_le_12():
    """synthesize agrees with the classification on every isomorphism type
    of order <= 12 and every 3 <= m <= 9 (all satisfy m|G| <= 120), and
    every witness re-verifies; <= 15 min."""
    t0 = time.perf_counter()
    pairs = witnesses = 0
    for name, g in battery_groups().items():
        tag = identify_catalog_group(g)
        for m in range(3, 10):
            assert m * g.order <= 120
            result = synthesize(g, m)
            expected = tag is None or (tag, m) not in NONEXISTENT
            assert result.exists == expected, (name, m)
            pairs += 1
            if result.exists:
                assert result.verdict.ok and result.verdict.aut_order == g.order
                witnesses += 1
            else:
                assert result.clause == NONEXISTENT[(tag, m)]
    assert pairs == 24 * 7
    assert witnesses == pairs - len(NONEXISTENT)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0, f"{elapsed:.1f}s"


def test_07_aut_engine_matches_brute_force():
    """The refinement engine and plain permutation enumeration agree on 500
    random graphs with <= 8 vertices (plus every catalog graph that small,
    of which there are none: the smallest has 12 vertices)."""
    small_catalog = []
    for entry in entries():
        graph = build_graph(build_entry(entry))
        if graph.n <= 8:
            small_catalog.append(graph)
        assert graph.n >= 12
    assert small_catalog == []
    rng = random.Random(2026)
    for _ in range(500):
        n = rng.randint(1, 8)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
        assert automorphism_group(g).order == brute_force_aut_order(g)


def test_08_right_translations_always_embed():
    """On 200 arbitrary connection matrices (|G| <= 12, m <= 4), every right
    translation is an automorphism and |G| divides |Aut|."""
    rng = random.Random(77)
    pool = list(battery_groups().values())
    for trial in range(200):
        g = rng.choice(pool)
        m = rng.randint(2, 4)
        cm = random_matrix(g, m, rng, diagonal=bool(trial % 3 == 0),
                           density=rng.uniform(0.2, 0.8))
        graph = build_graph(cm)
        for elem in range(g.order):
            perm = right_translation(cm, elem)
            assert sorted(perm) == list(range(graph.n))
            for u, v in graph.edges():
                assert graph.has_edge(perm[u], perm[v])
        assert automorphism_group(graph).order % g.order == 0


def test_09_large_m_template_routes():
    """(C2, m=10) and (C1, m=12) synthesize under the default seed with
    |Aut| exactly 2 and 1; <= 60 s."""
    t0 = time.perf_counter()
    r2 = synthesize(cyclic(2), 10)
    assert r2.exists and r2.verdict.aut_order == 2
    assert "template" in r2.route
    r1 = synthesize(cyclic(1), 12)
    assert r1.exists and r1.verdict.aut_order == 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"{elapsed:.1f}s"
