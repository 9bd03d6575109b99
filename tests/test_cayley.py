import json
import random

import pytest

from mhaar.autos import automorphism_group
from mhaar.cayley import (CayleyError, ConnectionMatrix, build_graph,
                          is_m_haar, load_matrix, right_translation)
from mhaar.graphs import CapacityError
from mhaar.groups import cyclic, dihedral, elem_abelian

from conftest import battery_groups, random_matrix


def test_construction_validation():
    g = cyclic(3)
    with pytest.raises(CayleyError):
        ConnectionMatrix(g, 1)
    with pytest.raises(CayleyError):
        ConnectionMatrix(g, 3, {(2, 1): [0]})  # lower triangle
    with pytest.raises(CayleyError):
        ConnectionMatrix(g, 3, {(1, 2): [3]})  # element out of range
    with pytest.raises(CayleyError):
        ConnectionMatrix(g, 2, {(1, 1): [0]})  # identity would be a loop
    with pytest.raises(CayleyError):
        ConnectionMatrix(g, 2, {(1, 1): [1]})  # 1^-1 = 2 missing
    ok = ConnectionMatrix(g, 2, {(1, 2): [0, 1], (1, 1): [1, 2]})
    assert ok.block(1, 1) == frozenset({1, 2})


def test_lower_triangle_is_inverted():
    g = cyclic(4)
    cm = ConnectionMatrix(g, 2, {(1, 2): [1]})
    assert cm.block(2, 1) == frozenset({3})
    assert cm.block(1, 2) == frozenset({1})


def test_left_multiplication_convention():
    # neighbor of (g, 1) in part 2 is (t*g, 2): for C3 and T12 = {x} the
    # edges are exactly g -> x+g, worked out by hand
    g = cyclic(3)
    cm = ConnectionMatrix(g, 2, {(1, 2): [1]})
    graph = build_graph(cm)
    assert sorted(graph.edges()) == [(0, 4), (1, 5), (2, 3)]


def test_two_part_matching():
    g = cyclic(2)
    cm = ConnectionMatrix(g, 2, {(1, 2): [0]})
    graph = build_graph(cm)
    assert sorted(graph.edges()) == [(0, 2), (1, 3)]


def test_valencies_count_all_blocks():
    g = cyclic(4)
    cm = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (2, 3): [2], (2, 2): [1, 3]})
    assert cm.valencies() == (2, 5, 1)
    graph = build_graph(cm)
    n = g.order
    for i in range(3):
        for x in range(n):
            assert graph.degree(i * n + x) == cm.valencies()[i]



def test_valencies_match_block_sums():
    # the stored-block shortcut against the definition: row sums of |T[i][j]|
    rng = random.Random(31)
    groups = battery_groups()
    for name in sorted(groups):
        for m in (2, 3, 5):
            cm = random_matrix(groups[name], m, rng, diagonal=True,
                               density=rng.choice([0.2, 0.5, 0.8]))
            assert cm.valencies() == tuple(
                sum(len(cm.block(i, j)) for j in range(1, m + 1))
                for i in range(1, m + 1))

def test_right_translation_is_automorphism():
    rng = random.Random(17)
    for g in (cyclic(6), dihedral(6), elem_abelian(3, 2)):
        cm = random_matrix(g, 3, rng, diagonal=True)
        graph = build_graph(cm)
        for e in range(g.order):
            p = right_translation(cm, e)
            assert sorted(p) == list(range(graph.n))
            for u, v in graph.edges():
                assert graph.has_edge(p[u], p[v])


def test_right_translations_form_the_group():
    g = dihedral(6)
    cm = ConnectionMatrix(g, 2, {(1, 2): [0, 1]})
    perms = {tuple(right_translation(cm, e)) for e in range(g.order)}
    assert len(perms) == g.order
    # closed under composition: p_a then p_b sends h to (h*a)*b = h*(a*b)
    pa = right_translation(cm, 1)
    pb = right_translation(cm, 3)
    composed = [pb[x] for x in pa]
    assert composed == right_translation(cm, g.mul(1, 3))


def test_semiregularity_on_parts():
    # translations never mix parts and only the identity fixes a vertex
    g = cyclic(5)
    cm = ConnectionMatrix(g, 3, {(1, 2): [0], (2, 3): [1]})
    for e in range(1, g.order):
        p = right_translation(cm, e)
        assert all(p[v] != v for v in range(len(p)))
        assert all(p[v] // g.order == v // g.order for v in range(len(p)))


def test_is_m_haar_verdicts():
    g = cyclic(4)
    good = ConnectionMatrix(g, 2, {(1, 2): [0, 1]})
    assert is_m_haar(good)
    diag = ConnectionMatrix(g, 2, {(1, 2): [0], (1, 1): [2]})
    v = is_m_haar(diag)
    assert not v and "diagonal" in v.reason
    lopsided = ConnectionMatrix(g, 3, {(1, 2): [0, 1], (1, 3): [2]})
    v = is_m_haar(lopsided)
    assert not v and "valency" in v.reason


def test_json_round_trip(tmp_path):
    rng = random.Random(23)
    cm = random_matrix(dihedral(8), 3, rng, diagonal=True)
    data = cm.to_json()
    back = ConnectionMatrix.from_json(data)
    assert back == cm
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    assert load_matrix(str(path)) == cm


def test_entries_round_trip_through_the_reader():
    # `entries` writes exactly what `from_entries` reads, diagonal sets too
    rng = random.Random(41)
    groups = battery_groups()
    diagonal_entries = 0
    for name in ("C2", "C5", "C6", "D8", "Q8", "A4"):
        for m in range(2, 6):
            for diagonal in (False, True):
                cm = random_matrix(groups[name], m, rng, diagonal=diagonal)
                entries = cm.entries()
                assert ConnectionMatrix.from_entries(cm.group, m, entries) == cm
                diagonal_entries += sum(e["i"] == e["j"] for e in entries)
                assert diagonal or cm.diagonal_empty()
    assert diagonal_entries > 0


@pytest.mark.parametrize("blocks, message", [
    ({(1, 1): [0, 1, 5]}, r"identity in diagonal block \(1, 1\)"),
    ({(2, 2): [1]}, r"diagonal block \(2, 2\) is not inverse-closed"),
    ({(3, 3): [1, 5]}, r"diagonal index 3 out of range for m=2"),
])
def test_diagonal_keys_are_checked(blocks, message):
    g = cyclic(6)
    with pytest.raises(CayleyError, match=message):
        ConnectionMatrix(g, 2, blocks)
    entries = [{"i": i, "j": j, "elems": elems} for (i, j), elems in blocks.items()]
    with pytest.raises(CayleyError, match=message):
        ConnectionMatrix.from_entries(g, 2, entries)


def test_json_rejects_lower_triangle():
    with pytest.raises(CayleyError):
        ConnectionMatrix.from_json(
            {"group": "C3", "m": 2, "entries": [{"i": 2, "j": 1, "elems": [0]}]})


@pytest.mark.parametrize("data, field", [
    ({"group": "C3", "m": "3"}, "'m'"),
    ({"group": "C3", "m": 3.5}, "'m'"),
    ({"group": "C3", "m": True}, "'m'"),
    ({"group": 3, "m": 2}, "'group'"),
    ({"group": "C3", "m": 2, "entries": {}}, "'entries'"),
    ({"group": "C3", "m": 2, "entries": [7]}, "entry 0"),
    ({"group": "C3", "m": 2, "entries": [{"i": 1, "j": 2}]}, "'elems'"),
    ({"group": "C3", "m": 2, "entries": [{"i": "1", "j": 2, "elems": []}]}, "'i'"),
    ({"group": "C3", "m": 2, "entries": [{"i": 1, "j": 2, "elems": [[1]]}]}, "'elems'"),
    ({"group": "C6", "m": 3, "entries": [{"i": 1, "j": 2, "elems": [0]},
                                         {"i": 1, "j": 2, "elems": [1]}]},
     r"block \(1, 2\) given twice"),
    ({"group": "C6", "m": 3, "entries": [{"i": 2, "j": 2, "elems": [1, 5]},
                                         {"i": 2, "j": 2, "elems": [3]}]},
     r"block \(2, 2\) given twice"),
])
def test_json_names_the_malformed_field(data, field):
    with pytest.raises(CayleyError, match=field):
        ConnectionMatrix.from_json(data)


def test_block_index_and_json_keys_are_named():
    with pytest.raises(CayleyError, match=r"block index \(0, 1\) out of range for m=2"):
        ConnectionMatrix(cyclic(3), 2).block(0, 1)
    with pytest.raises(CayleyError, match="needs 'group' and 'm' keys"):
        ConnectionMatrix.from_json([1, 2])


def test_json_checks_the_vertex_cap_before_any_part():
    with pytest.raises(CapacityError, match="6000000000 vertices"):
        ConnectionMatrix.from_json({"group": "C3", "m": 2_000_000_000})


def test_descriptor_groups_serialize_compactly():
    cm = ConnectionMatrix(cyclic(6), 2, {(1, 2): [0]})
    assert cm.to_json()["group"] == "C6"


def test_unparseable_descriptor_falls_back_to_table():
    # "Dic3" is not grammar; serialization must inline the table so the
    # matrix still round trips
    dic3 = battery_groups()["Dic3"]
    cm = ConnectionMatrix(dic3, 2, {(1, 2): [0, 7]})
    data = cm.to_json()
    assert isinstance(data["group"], dict)
    assert ConnectionMatrix.from_json(data) == cm


def test_relabeled_copy_never_serializes_by_descriptor():
    # a shuffled C6 table carrying the canonical descriptor must not be
    # flattened to "C6", or entries would point at the wrong elements
    rng = random.Random(2)
    from conftest import relabeled_copy
    from mhaar.groups import Group
    shuffled = relabeled_copy(cyclic(6), rng)
    claimed = Group(shuffled.table, descriptor="C6")
    if claimed.table != cyclic(6).table:
        cm = ConnectionMatrix(claimed, 2, {(1, 2): [3]})
        data = cm.to_json()
        assert isinstance(data["group"], dict)
        assert ConnectionMatrix.from_json(data) == cm


def test_aut_contains_translations():
    # |Aut| is a multiple of |G| for every matrix, witnessed by the injection
    rng = random.Random(31)
    for g in (cyclic(3), elem_abelian(2, 2)):
        cm = random_matrix(g, 3, rng)
        assert automorphism_group(build_graph(cm)).order % g.order == 0
