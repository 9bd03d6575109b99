"""Existence decision and witness synthesis across all the routes."""

import random

import pytest

from mhaar.autos import is_m_hgr
from mhaar.catalog import entries
from mhaar.constructions import (
    HGR_MIN_PARTS,
    NONEXISTENT,
    SynthesisError,
    generic_base,
    generic_hgr,
    nonexistence_clause,
    synthesize,
)
from mhaar.groups import (
    GroupError,
    catalog_group,
    cyclic,
    dihedral,
    elem_abelian,
    parse_group_spec,
    product,
)

from conftest import dicyclic12, relabeled_copy


# the classification's full exception table, stated independently here
EXCEPTIONS = {
    ("C1", 3): "a", ("C2", 3): "a", ("C3", 3): "a", ("C4", 3): "a",
    ("C5", 3): "a", ("C2^2", 3): "a", ("D6", 3): "a",
    ("C1", 4): "b", ("C2", 4): "b", ("C3", 4): "b",
    ("C1", 5): "c", ("C2", 5): "c",
    ("C1", 6): "d", ("C1", 7): "d", ("C1", 8): "d", ("C1", 9): "d",
}


def test_exception_table():
    assert NONEXISTENT == EXCEPTIONS
    assert len(NONEXISTENT) == 16


def test_nonexistence_clause_lookup():
    assert nonexistence_clause(cyclic(4), 3) == "a"
    assert nonexistence_clause(cyclic(3), 4) == "b"
    assert nonexistence_clause(cyclic(2), 5) == "c"
    assert nonexistence_clause(cyclic(1), 8) == "d"
    assert nonexistence_clause(cyclic(4), 4) is None
    assert nonexistence_clause(cyclic(2), 6) is None
    assert nonexistence_clause(dihedral(6), 3) == "a"
    assert nonexistence_clause(dihedral(6), 4) is None
    # groups outside the finite table always admit witnesses
    assert nonexistence_clause(cyclic(7), 3) is None
    assert nonexistence_clause(dicyclic12(), 3) is None
    assert nonexistence_clause(cyclic(5), 4) is None
    assert nonexistence_clause(cyclic(5), 3) is not None


def test_part_count_guards():
    assert HGR_MIN_PARTS == 3
    with pytest.raises(ValueError, match="m=2 is outside"):
        synthesize(cyclic(6), 2)
    with pytest.raises(ValueError, match="m=2 is outside"):
        nonexistence_clause(cyclic(6), 2)
    with pytest.raises(ValueError, match="m must be >= 3"):
        synthesize(cyclic(6), 1)
    with pytest.raises(ValueError, match="m must be >= 3"):
        synthesize(cyclic(6), 0)


def test_negative_results_carry_the_clause():
    r = synthesize(dihedral(6), 3)
    assert not r.exists
    assert r.clause == "a"
    assert r.matrix is None and r.verdict is None
    assert "clause (a)" in r.route
    assert str(r) == "D6 m=3: no witness exists (classification clause a)"


# -- routes --------------------------------------------------------------------


def test_catalog_route():
    r = synthesize(cyclic(6), 3)
    assert r.exists and r.route.startswith("catalog entry [C6 m=3")
    assert r.verdict.ok and r.verdict.aut_order == 6
    assert str(r).endswith("|Aut|=6")


def test_catalog_route_relabeled_group():
    g = relabeled_copy(catalog_group("D6"), random.Random(3))
    r = synthesize(g, 4)
    assert r.exists and r.matrix.group is g
    assert r.verdict.aut_order == 6


# the base of each catalog tag's chain extension, as (parts, source, k)
# for even m, then for odd m: the recorded C3 and C2^2 bases with k = 5
# exceed |G|, so those tags start from derived ones
_CHAIN_BASES = {
    "C3": ((4, "derived", 3), (5, "derived", 3)),
    "C2^2": ((4, "recorded", 4), (5, "derived", 3)),
    **{tag: ((4, "recorded", 4), (3, "recorded", 3)) for tag in ("C4", "C5", "C6")},
    **{tag: ((4, "recorded", 4), (3, "recorded", 5))
       for tag in ("C2^3", "C3^2", "D6", "A4", "X27")},
}


def test_catalog_lift_route():
    r = synthesize(cyclic(6), 5)
    assert r.exists and "chain extension of catalog base" in r.route
    assert r.matrix.m == 5 and r.verdict.ok
    for tag, bases in _CHAIN_BASES.items():
        # C3 and C2^2 have a recorded witness at m = 5
        for m in range(6 if tag in ("C3", "C2^2") else 5, 17):
            parts, source, k = bases[m % 2]
            base, = entries(tag=tag, m=parts, kind="pgsr", source=source)
            assert base.k == k
            r = synthesize(catalog_group(tag), m, verify=False)
            assert r.route == f"chain extension of catalog base [{base}]", (tag, m)


def test_template_route():
    r = synthesize(cyclic(2), 10)
    assert r.exists
    assert r.route == "asymmetric 4-regular template (seed=0)"
    assert r.verdict.aut_order == 2
    again = synthesize(cyclic(2), 10)
    assert [s for _, _, s in again.matrix.upper_items()] == \
        [s for _, _, s in r.matrix.upper_items()]
    r1 = synthesize(cyclic(1), 10)
    assert r1.verdict.aut_order == 1


def test_generic_direct_route():
    r = synthesize(cyclic(7), 3)
    assert r.exists and r.route == "generic 2-generated recipe"
    assert r.verdict.aut_order == 7
    r = synthesize(dicyclic12(), 4)
    assert r.route == "generic 2-generated recipe"
    assert r.verdict.aut_order == 12


def test_generic_three_generated_route():
    g = product([elem_abelian(2, 2), cyclic(4)])  # rank 3, order 16
    for m in (3, 4):
        r = synthesize(g, m)
        assert r.route == "generic 3-generated recipe"
        assert r.verdict.ok and r.verdict.aut_order == 16, r.verdict.reason


def test_generic_rank_six_route():
    # C2^6 was out of reach of the rank search before the Frattini lower bound
    for rank in (6, 7):
        r = synthesize(parse_group_spec(f"C2^{rank}"), 3)
        assert r.route == f"generic rank-{rank} recipe"
        assert r.verdict.ok and r.verdict.aut_order == 2 ** rank, r.verdict.reason


def test_generic_lift_route():
    r = synthesize(cyclic(7), 5)
    assert "chain extension of generic 2-generated 3-part base" == r.route
    assert r.verdict.aut_order == 7
    r = synthesize(cyclic(7), 6)
    assert "chain extension of generic 2-generated 4-part base" == r.route
    assert r.verdict.aut_order == 7


def test_verify_flag():
    r = synthesize(dihedral(8), 4, verify=False)
    assert r.exists and r.verdict is None
    assert is_m_hgr(r.matrix).ok  # it was a real witness all along


def test_decision_matches_table_across_battery(battery):
    for g in battery.values():
        from mhaar.groups import identify_catalog_group
        tag = identify_catalog_group(g)
        for m in (3, 4, 5):
            r = synthesize(g, m, verify=False)
            assert r.exists == ((tag, m) not in EXCEPTIONS), (g.label, m)
            if r.exists:
                assert r.matrix.m == m
                assert r.matrix.diagonal_empty()


# -- generic recipe internals ---------------------------------------------------


def test_generic_hgr_bounds():
    with pytest.raises(ValueError, match="m in \\(3, 4\\)"):
        generic_hgr(cyclic(7), 5)
    with pytest.raises(ValueError, match="3 or 4 parts"):
        generic_base(cyclic(7), 5)


def test_generic_recipes_are_regularish():
    # direct recipes must be regular (they claim to be finished witnesses);
    # bases must show the lift pattern (k+1 head, two k tails)
    for g in (cyclic(7), dicyclic12(), product([elem_abelian(2, 2), cyclic(4)])):
        for m in (3, 4):
            cm, _ = generic_hgr(g, m)
            assert cm.is_regular(), (g.label, m)
        for parts in (3, 4):
            cm, _ = generic_base(g, parts)
            vals = cm.valencies()
            k = vals[-1]
            assert vals == (k + 1,) * (parts - 2) + (k, k), (g.label, parts)


def test_high_rank_recipe_needs_rank_four():
    g = elem_abelian(2, 4)
    cm, label = generic_hgr(g, 3)
    assert label == "rank-4"
    assert cm.is_regular()
    from mhaar.constructions import _spanning_sets
    with pytest.raises(GroupError, match="rank-2"):
        _spanning_sets(elem_abelian(2, 2))
