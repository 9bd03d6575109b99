"""Chain extension of small PGSR bases to arbitrary part counts."""

import pytest

from mhaar.autos import automorphism_group, is_m_hgr
from mhaar.catalog import build_entry, entries
from mhaar.cayley import ConnectionMatrix, build_graph
from mhaar.groups import cyclic
from mhaar.lift import (
    LiftError,
    VALID_BASE_PARTS,
    chain_filler_layout,
    lift_base,
    min_target_parts,
    plan_lift,
    triangle_profile,
)


def base_c6():
    """Recorded 3-part C6 base with k=3, valencies (4, 3, 3)."""
    return build_entry(entries(tag="C6", m=3, kind="pgsr")[0])


def base_c2cubed():
    """Recorded 4-part C2^3 base with k=4, valencies (5, 5, 4, 4)."""
    return build_entry(entries(tag="C2^3", m=4, kind="pgsr")[0])


def base_c3_five():
    """Derived 5-part C3 base with k=3, valencies (4, 4, 4, 3, 3)."""
    return build_entry(entries(tag="C3", m=5, kind="pgsr", source="derived")[0])


# -- layout geometry -----------------------------------------------------------


def test_layout_shape_4_to_10():
    lay = chain_filler_layout(4, 10)
    assert lay["one_links"] == [(3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10)]
    assert lay["small_fillers"] == [(5, 6), (7, 8)]
    assert lay["large_filler"] == (9, 10)


def test_layout_shape_minimal_targets():
    assert min_target_parts(3) == 5
    assert min_target_parts(4) == 6
    assert min_target_parts(5) == 7
    assert chain_filler_layout(3, 5) == {
        "one_links": [(2, 4), (3, 5)], "small_fillers": [], "large_filler": (4, 5)}
    assert chain_filler_layout(5, 7) == {
        "one_links": [(4, 6), (5, 7)], "small_fillers": [], "large_filler": (6, 7)}
    assert chain_filler_layout(3, 9)["small_fillers"] == [(4, 5), (6, 7)]


@pytest.mark.parametrize("b", VALID_BASE_PARTS)
@pytest.mark.parametrize("extra", [0, 2, 4, 6])
def test_layout_blocks_disjoint(b, extra):
    m = min_target_parts(b) + extra
    lay = chain_filler_layout(b, m)
    positions = lay["one_links"] + lay["small_fillers"] + [lay["large_filler"]]
    assert len(positions) == len(set(positions))
    for i, j in positions:
        assert 1 <= i < j <= m
        assert j > b  # the base stays untouched


def test_layout_parity_and_floor():
    with pytest.raises(LiftError, match="odd m only"):
        chain_filler_layout(3, 6)
    with pytest.raises(LiftError, match="even m only"):
        chain_filler_layout(4, 7)
    with pytest.raises(LiftError, match="odd m only"):
        chain_filler_layout(5, 8)
    with pytest.raises(LiftError, match="m >= 5"):
        chain_filler_layout(3, 3)
    with pytest.raises(LiftError, match="m >= 7"):
        chain_filler_layout(5, 5)
    with pytest.raises(LiftError, match="3, 4, or 5 parts"):
        chain_filler_layout(6, 10)


# -- plan validation -----------------------------------------------------------


def test_plan_resolves_defaults():
    plan = plan_lift(base_c6(), 7)
    assert (plan.base_parts, plan.m, plan.k) == (3, 7, 3)
    assert plan.filler_small == frozenset([0, 1])
    assert plan.filler_large == frozenset([0, 1, 2])
    assert not plan.relaxed


def test_plan_explicit_fillers():
    plan = plan_lift(base_c6(), 5, filler_small=[2, 4], filler_large=[1, 3, 5])
    assert plan.filler_small == frozenset([2, 4])
    assert plan.filler_large == frozenset([1, 3, 5])
    with pytest.raises(LiftError, match="filler_small must have 2"):
        plan_lift(base_c6(), 5, filler_small=[0])
    with pytest.raises(LiftError, match="filler_large must have 3"):
        plan_lift(base_c6(), 5, filler_large=[0, 1])


def test_plan_rejects_bad_shapes():
    g = cyclic(6)
    with pytest.raises(LiftError, match="empty-diagonal hypothesis at part 1"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [0],
                                          (2, 3): [0]}, diagonal={1: [1, 5]}), 5)
    with pytest.raises(LiftError, match="required pattern"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0, 1, 2], (1, 3): [0],
                                          (2, 3): [0]}), 5)
    with pytest.raises(LiftError, match="k >= 2"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0], (1, 3): [0],
                                          (2, 3): []}), 5)


def test_plan_rejects_oversized_k():
    base = build_entry(entries(tag="C3", m=4, kind="pgsr", source="recorded")[0])
    with pytest.raises(LiftError, match=r"k <= \|G\|"):
        plan_lift(base, 6)
    plan = plan_lift(base, 6, relax_fillers=True)
    assert plan.relaxed
    assert len(plan.filler_small) == 3  # clamped from k-1=4 to |G|=3
    assert len(plan.filler_large) == 3  # clamped from k=5


def test_plan_rejects_triangle_free_base():
    # right pattern, empty diagonal, k fine, but no vertex is on a 3-cycle
    g = cyclic(6)
    base = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [2, 3], (2, 3): [5]})
    assert triangle_profile(base) == ("none", "none", "none")
    with pytest.raises(LiftError, match="triangle hypothesis"):
        plan_lift(base, 5)


def test_lift_base_rejects_excess_symmetry():
    # triangles everywhere, but |Aut| = 768 over a group of order 6
    g = cyclic(6)
    base = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [0, 5], (2, 3): [5]})
    assert triangle_profile(base) == ("all", "all", "all")
    with pytest.raises(LiftError, match="not a PGSR"):
        lift_base(base, 5)
    # skipping the base check still yields a well-formed regular matrix
    out = lift_base(base, 5, check_base=False)
    assert out.is_regular() and out.valencies()[0] == 4


# -- full extensions -----------------------------------------------------------


def test_lift3_produces_hgrs():
    base = base_c6()
    for m in (5, 7, 9):
        out = lift_base(base, m)
        assert out.m == m
        assert out.valencies() == (4,) * m
        v = is_m_hgr(out)
        assert v.ok and v.aut_order == 6, f"m={m}: {v.reason}"


def test_lift4_produces_hgrs():
    base = base_c2cubed()
    for m in (6, 8):
        out = lift_base(base, m)
        assert out.valencies() == (5,) * m
        v = is_m_hgr(out)
        assert v.ok and v.aut_order == 8, f"m={m}: {v.reason}"


def test_lift5_produces_hgrs():
    out = lift_base(base_c3_five(), 7)
    assert out.valencies() == (4,) * 7
    v = is_m_hgr(out)
    assert v.ok and v.aut_order == 3, v.reason


def test_lift_builds_the_base_graph_once(monkeypatch):
    # the triangle check and the PGSR check share one graph
    import mhaar.lift
    built = []

    def counting(cm):
        built.append(cm.m)
        return build_graph(cm)

    monkeypatch.setattr(mhaar.lift, "build_graph", counting)
    assert lift_base(base_c6(), 7).m == 7
    assert built == [3]


def test_triangles_stay_in_the_base():
    out = lift_base(base_c6(), 9)
    assert triangle_profile(out) == ("all",) * 3 + ("none",) * 6
    out = lift_base(base_c2cubed(), 6)
    assert triangle_profile(out) == ("all",) * 4 + ("none",) * 2


def test_relaxed_lift_keeps_aut_order():
    base = build_entry(entries(tag="C3", m=4, kind="pgsr", source="recorded")[0])
    out = lift_base(base, 8, relax_fillers=True)
    assert not out.is_regular()  # clamping broke the valency bookkeeping
    assert automorphism_group(build_graph(out)).order == 3


def test_regularity_along_the_chain():
    # every extension length keeps (k+1)-regularity, not only the small ones
    base = base_c6()
    for m in (5, 7, 9, 11, 13):
        out = lift_base(base, m, check_base=False)
        assert out.valencies() == (4,) * m
        assert all(not out.block(i, i) for i in range(1, m + 1))


def test_wrapper_part_counts():
    with pytest.raises(LiftError, match="odd m only"):
        lift_base(base_c6(), 6)
    with pytest.raises(LiftError, match="even m only"):
        lift_base(base_c2cubed(), 7)
