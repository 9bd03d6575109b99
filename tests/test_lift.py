"""Chain extension of small PGSR bases to arbitrary part counts."""

import pytest

from mhaar.autos import automorphism_group, extra_automorphism, is_m_hgr
from mhaar.catalog import build_entry, entries
from mhaar.cayley import ConnectionMatrix, build_graph
from mhaar.constructions import generic_base
from mhaar.groups import cyclic, parse_group_spec
from mhaar.lift import (
    LiftError,
    LiftPlan,
    lift_base,
    min_target_parts,
    plan_lift,
    triangle_profile,
)

ONE = frozenset([0])


def base_c6():
    """Recorded 3-part C6 base with k=3, valencies (4, 3, 3)."""
    return build_entry(entries(tag="C6", m=3, kind="pgsr")[0])


def base_c2cubed():
    """Recorded 4-part C2^3 base with k=4, valencies (5, 5, 4, 4)."""
    return build_entry(entries(tag="C2^3", m=4, kind="pgsr")[0])


def base_c3_five():
    """Derived 5-part C3 base with k=3, valencies (4, 4, 4, 3, 3)."""
    return build_entry(entries(tag="C3", m=5, kind="pgsr", source="derived")[0])


def base_c3_four():
    """Recorded 4-part C3 base with k=5 > |G| = 3."""
    return build_entry(entries(tag="C3", m=4, kind="pgsr", source="recorded")[0])


def base_excess_symmetry():
    """3-part C6 base of the right shape, triangles everywhere, |Aut| = 768."""
    return ConnectionMatrix(cyclic(6), 3, {(1, 2): [0, 1], (1, 3): [0, 5], (2, 3): [5]})


# -- layout geometry -----------------------------------------------------------


def test_layout_shape_4_to_10():
    chain = plan_lift(base_c2cubed(), 10).chain
    assert [p for p, s in chain.items() if s == ONE] == [
        (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10)]
    assert {p: s for p, s in chain.items() if s != ONE} == {
        (5, 6): frozenset([0, 1, 2]), (7, 8): frozenset([0, 1, 2]),
        (9, 10): frozenset([0, 1, 2, 3])}


def test_layout_shape_minimal_targets():
    assert [min_target_parts(b) for b in (3, 4, 5)] == [5, 6, 7]
    assert plan_lift(base_c6(), 5).chain == {
        (2, 4): ONE, (3, 5): ONE, (4, 5): frozenset([0, 1, 2])}
    assert plan_lift(base_c3_five(), 7).chain == {
        (4, 6): ONE, (5, 7): ONE, (6, 7): frozenset([0, 1, 2])}
    assert plan_lift(base_c6(), 7).chain == {
        (2, 4): ONE, (3, 5): ONE, (4, 6): ONE, (5, 7): ONE,
        (4, 5): frozenset([0, 1]), (6, 7): frozenset([0, 1, 2])}
    small = [p for p, s in plan_lift(base_c6(), 9).chain.items()
             if s == frozenset([0, 1])]
    assert small == [(4, 5), (6, 7)]


@pytest.mark.parametrize("b", [3, 4, 5])
@pytest.mark.parametrize("extra", [0, 2, 4, 6])
def test_layout_blocks_disjoint(b, extra):
    base = {3: base_c6, 4: base_c2cubed, 5: base_c3_five}[b]()
    m = min_target_parts(b) + extra
    chain = plan_lift(base, m).chain
    # m-b links, a small filler per two parts past b+2, one large filler
    assert len(chain) == (m - b) + (m - b - 2) // 2 + 1
    for i, j in chain:
        assert 1 <= i < j <= m
        assert j > b  # the base stays untouched


def test_layout_parity_and_floor():
    with pytest.raises(LiftError, match="odd m only"):
        plan_lift(base_c6(), 6)
    with pytest.raises(LiftError, match="even m only"):
        plan_lift(base_c2cubed(), 7)
    with pytest.raises(LiftError, match="odd m only"):
        plan_lift(base_c3_five(), 8)
    with pytest.raises(LiftError, match="m >= 5"):
        plan_lift(base_c6(), 3)
    with pytest.raises(LiftError, match="m >= 7"):
        plan_lift(base_c3_five(), 5)
    with pytest.raises(LiftError, match="3, 4, or 5 parts"):
        plan_lift(ConnectionMatrix(cyclic(3), 6, {}), 10)


# -- plan validation -----------------------------------------------------------


def test_plan_resolves_defaults():
    plan = plan_lift(base_c6(), 7)
    assert LiftPlan._fields == ("k", "chain", "graph")
    assert plan.k == 3
    assert plan.graph.n == 18  # the base graph, three parts of six


def test_plan_rejects_bad_shapes():
    g = cyclic(6)
    with pytest.raises(LiftError, match="empty-diagonal hypothesis at part 1"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [0],
                                          (2, 3): [0], (1, 1): [1, 5]}), 5)
    with pytest.raises(LiftError, match="required pattern"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0, 1, 2], (1, 3): [0],
                                          (2, 3): [0]}), 5)
    with pytest.raises(LiftError, match="k >= 2"):
        plan_lift(ConnectionMatrix(g, 3, {(1, 2): [0], (1, 3): [0],
                                          (2, 3): []}), 5)


def test_plan_rejects_oversized_k():
    base = base_c3_four()
    with pytest.raises(LiftError, match=r"k <= \|G\|"):
        plan_lift(base, 6)
    chain = plan_lift(base, 8, relax_fillers=True).chain
    assert chain[(5, 6)] == frozenset([0, 1, 2])  # clamped from k-1=4 to |G|=3
    assert chain[(7, 8)] == frozenset([0, 1, 2])  # clamped from k=5


def test_plan_rejects_triangle_free_base():
    # right pattern, empty diagonal, k fine, but no vertex is on a 3-cycle
    g = cyclic(6)
    base = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [2, 3], (2, 3): [5]})
    assert triangle_profile(build_graph(base), 6) == ("none", "none", "none")
    with pytest.raises(LiftError, match="triangle hypothesis"):
        plan_lift(base, 5)


def test_lift_base_rejects_excess_symmetry():
    # triangles everywhere, but |Aut| = 768 over a group of order 6
    base = base_excess_symmetry()
    assert triangle_profile(build_graph(base), 6) == ("all", "all", "all")
    with pytest.raises(LiftError, match=r"not a PGSR: \|Aut\| > \|G\| = 6"):
        lift_base(base, 5)


def test_decision_mode_answers_the_pgsr_question():
    # lift_base asks extra_automorphism what automorphism_group would count
    bases = [build_entry(e) for e in entries(kind="pgsr")]
    for spec in ("C2^4", "C2^5", "C3^4", "C2^4xC3", "C7xC7", "D8xC3"):
        bases += [generic_base(parse_group_spec(spec), parts)[0] for parts in (3, 4)]
    bases.append(base_excess_symmetry())
    assert len(bases) == 36
    answers = []
    for cm in bases:
        graph, n = build_graph(cm), cm.group.order
        answers.append(extra_automorphism(graph, n) is None)
        assert answers[-1] == (automorphism_group(graph).order == n), cm
    assert answers == [True] * 35 + [False]


# -- full extensions -----------------------------------------------------------


def test_lift3_produces_hgrs():
    base = base_c6()
    for m in (5, 7, 9):
        out = lift_base(base, m)
        assert out.m == m
        blocks = {(i, j): s for i, j, s in out.upper_items()}
        assert blocks == {**{(i, j): s for i, j, s in base.upper_items()},
                          **plan_lift(base, m).chain}
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
    assert triangle_profile(build_graph(out), 6) == ("all",) * 3 + ("none",) * 6
    out = lift_base(base_c2cubed(), 6)
    assert triangle_profile(build_graph(out), 8) == ("all",) * 4 + ("none",) * 2


def test_relaxed_lift_keeps_aut_order():
    base = base_c3_four()
    chain = plan_lift(base, 8, relax_fillers=True).chain
    out = ConnectionMatrix(base.group, 8, {
        **{(i, j): s for i, j, s in base.upper_items()}, **chain})
    assert not out.is_regular()  # clamping broke the valency bookkeeping
    assert automorphism_group(build_graph(out)).order == 3


def test_regularity_along_the_chain():
    # every extension length keeps (k+1)-regularity, not only the small ones
    base = base_c6()
    for m in (5, 7, 9, 11, 13):
        out = lift_base(base, m)
        assert out.valencies() == (4,) * m
        assert all(not out.block(i, i) for i in range(1, m + 1))


def test_wrapper_part_counts():
    with pytest.raises(LiftError, match="odd m only"):
        lift_base(base_c6(), 6)
    with pytest.raises(LiftError, match="even m only"):
        lift_base(base_c2cubed(), 7)
