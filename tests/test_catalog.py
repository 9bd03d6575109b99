"""Recorded witness catalog: every entry must verify as what it claims to be."""

import random

import pytest

from mhaar.autos import automorphism_group, is_m_hgr, is_m_pgsr
from mhaar.catalog import (
    ASYM_REGULAR_MIN_VERTICES,
    ENTRIES,
    asymmetric_regular_graph,
    build_entry,
    entries,
    g0_generators,
    lift_base_entry,
    matrix_from_graph,
)
from mhaar.cayley import build_graph
from mhaar.groups import GroupError, catalog_group, cyclic, dihedral

from conftest import relabeled_copy


def test_catalog_counts():
    assert len(ENTRIES) == 43
    assert len(entries(kind="hgr")) == 20
    assert len(entries(kind="pgsr")) == 23
    assert len(entries(kind="pgsr", source="derived")) == 3
    assert len(entries(tag="C2")) == 4
    assert entries(tag="C2", m=6)[0].valencies == (5,) * 6


@pytest.mark.parametrize("entry", ENTRIES, ids=str)
def test_entry_verifies(entry):
    cm = build_entry(entry)
    assert cm.valencies() == entry.valencies
    check = is_m_hgr if entry.kind == "hgr" else is_m_pgsr
    v = check(cm)
    assert v.ok, f"{entry}: {v.reason}"
    assert v.aut_order == cm.group.order


def test_entries_unique():
    keys = [(e.tag, e.m, e.kind, e.source) for e in ENTRIES]
    assert len(keys) == len(set(keys))


def test_build_entry_on_relabeled_copies():
    rng = random.Random(5)
    for entry in (entries(tag="C2^2", m=4, kind="hgr")[0],
                  entries(tag="C6", m=3, kind="hgr")[0],
                  entries(tag="C3", m=4, kind="pgsr", source="derived")[0],
                  entries(tag="D6", m=3, kind="pgsr")[0]):
        shuffled = relabeled_copy(catalog_group(entry.tag), rng)
        cm = build_entry(entry, shuffled)
        assert cm.group is shuffled
        check = is_m_hgr if entry.kind == "hgr" else is_m_pgsr
        assert check(cm).ok, str(entry)


def test_build_entry_rejects_wrong_group():
    entry = entries(tag="C4", m=4, kind="hgr")[0]
    with pytest.raises(GroupError, match="identifies as"):
        build_entry(entry, cyclic(5))
    # C2^2 is a different order-4 group than C4
    with pytest.raises(GroupError, match="identifies as"):
        build_entry(entry, catalog_group("C2^2"))


def test_g0_generators_equivalence():
    # chosen generators must have the right orders in any isomorphic copy
    rng = random.Random(11)
    for tag, orders in [("C6", {"x": 6}), ("C2^3", {"x": 2, "y": 2, "z": 2}),
                        ("D6", {"x": 3, "y": 2}), ("X27", {"x": 3, "y": 3}),
                        ("A4", {"x": 3, "y": 2}), ("C3^2", {"x": 3, "y": 3})]:
        g = relabeled_copy(catalog_group(tag), rng)
        gens = g0_generators(g, tag)
        assert {k: g.element_order(v) for k, v in gens.items()} == orders
        assert len(set(gens.values())) == len(gens)


def test_g0_generators_x27_noncommuting():
    g = catalog_group("X27")
    d = g0_generators(g, "X27")
    assert g.mul(d["x"], d["y"]) != g.mul(d["y"], d["x"])


def test_g0_generators_unknown_tag():
    with pytest.raises(GroupError, match="catalog tag"):
        g0_generators(cyclic(7), "C7")


# -- chain-extension base selection --------------------------------------------


def test_lift_base_entry_odd_targets():
    # C3 only fits k=3, so the derived 5-part base wins for odd m
    e = lift_base_entry("C3", 7)
    assert (e.m, e.k, e.source) == (5, 3, "derived")
    # C6 fits k=3 via its recorded 3-part base
    e = lift_base_entry("C6", 5)
    assert (e.m, e.k, e.source) == (3, 3, "recorded")
    # D6 carries a recorded 3-part base with k=5
    e = lift_base_entry("D6", 9)
    assert (e.m, e.k, e.source) == (3, 5, "recorded")


def test_lift_base_entry_even_targets():
    e = lift_base_entry("C2^3", 6)
    assert (e.m, e.k) == (4, 4)
    # the recorded C3 4-part base has k=5 > |C3|; only the derived one fits
    e = lift_base_entry("C3", 6)
    assert (e.m, e.k, e.source) == (4, 3, "derived")


def test_lift_base_entry_requires_headroom():
    # target must exceed the base by at least the two chain parts
    with pytest.raises(GroupError, match="no usable chain-extension base"):
        lift_base_entry("C6", 4)
    with pytest.raises(GroupError, match="no usable chain-extension base"):
        lift_base_entry("C2", 5)


# -- asymmetric regular templates ----------------------------------------------


def test_asymmetric_regular_graph_basic():
    g = asymmetric_regular_graph(10)
    assert g.n == 10
    assert {g.degree(v) for v in range(g.n)} == {4}
    assert g.is_connected()
    assert automorphism_group(g).order == 1


def test_asymmetric_regular_graph_deterministic():
    a = asymmetric_regular_graph(12, seed=3)
    b = asymmetric_regular_graph(12, seed=3)
    assert a.bits == b.bits
    c = asymmetric_regular_graph(12, seed=4)
    assert a.bits != c.bits  # different seed, different pairing


def test_asymmetric_regular_graph_bounds():
    assert ASYM_REGULAR_MIN_VERTICES == 10
    with pytest.raises(ValueError, match="no asymmetric regular graph"):
        asymmetric_regular_graph(9)


# -- identity-block templates --------------------------------------------------


def test_matrix_from_graph_disjoint_copies():
    tpl = asymmetric_regular_graph(10)
    cm = matrix_from_graph(cyclic(2), tpl)
    assert cm.m == 10
    assert all(set(cm.block(i, j)) <= {0}
               for i in range(1, 11) for j in range(i + 1, 11))
    graph = build_graph(cm)
    assert graph.n == 20
    assert not graph.is_connected()
    # one copy of the template per group element: reach from vertex 0 is half
    seen, stack = {0}, [0]
    while stack:
        for w in graph.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    assert len(seen) == 10
    assert is_m_hgr(cm).ok


def test_matrix_from_graph_trivial_group():
    tpl = asymmetric_regular_graph(12, seed=1)
    cm = matrix_from_graph(cyclic(1), tpl)
    assert build_graph(cm).edge_count() == tpl.edge_count()
    assert is_m_hgr(cm).ok


def test_matrix_from_graph_order_guard():
    tpl = asymmetric_regular_graph(10)
    with pytest.raises(GroupError, match="order <= 2"):
        matrix_from_graph(cyclic(3), tpl)
    with pytest.raises(GroupError, match="order <= 2"):
        matrix_from_graph(dihedral(6), tpl)
