import hashlib
import itertools
import json
import random
import time

import pytest

from mhaar import groups as groups_module
from mhaar.groups import (CapacityError, Group, GroupError, _first_generating_tuple,
                          _frattini_quotients, _rank_lower_bound,
                          catalog_group, cyclic, dihedral, elem_abelian, extraspecial27,
                          identify_catalog_group, load_group,
                          minimal_generating_set, minimal_generating_size,
                          pair_with_order_ge4, parse_group_spec, product,
                          quaternion8, subgroup_generated,
                          triple_with_order_ge3)

from conftest import battery_groups, groups_isomorphic, relabeled_copy


def test_battery_is_pairwise_nonisomorphic(battery):
    names = list(battery)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not groups_isomorphic(battery[a], battery[b]), (a, b)


def test_battery_axioms(battery):
    # construction already runs the axiom checks; spot the cached arithmetic
    for g in battery.values():
        assert g.table[0] == tuple(range(g.order))
        for a in range(g.order):
            assert g.mul(a, g.inv(a)) == 0
            assert g.order % g.element_order(a) == 0


def test_element_orders_q8():
    q8 = quaternion8()
    assert sorted(q8.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_power_and_inverse():
    g = cyclic(6)
    assert g.power(1, 3) == 3
    assert g.power(1, -1) == 5
    assert g.power(1, 0) == 0


def test_bad_tables_rejected():
    with pytest.raises(GroupError):
        Group([[0, 1], [1, 1]])  # row 1 not a permutation
    with pytest.raises(GroupError):
        Group([[1, 0], [0, 1]])  # no identity at index 0
    # smallest non-associative latin square with identity
    with pytest.raises(GroupError):
        Group([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])


@pytest.mark.parametrize("table, message", [
    ([], "empty table"),
    ([[0, 1], [1]], "row 1 has length 1, expected 2"),
    ([[0, 1], [1, 2]], r"entry table\[1\]\[1\] = 2 out of range"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
])
def test_bad_tables_are_named(table, message):
    with pytest.raises(GroupError, match=message):
        Group(table)


def test_associativity_is_checked_exactly():
    # Z_128 with the intercalate at rows and columns 1 and 65 swapped: still
    # a latin square with identity 0, but (1*1)*2 = 68 while 1*(1*2) = 4
    table = [[(a + b) % 128 for b in range(128)] for a in range(128)]
    for a in (1, 65):
        table[a][1], table[a][65] = table[a][65], table[a][1]
    with pytest.raises(GroupError, match=r"associativity fails on triple \(1, 1, 2\)"):
        Group(table)


def _span(g, elems):
    """Subgroup closure by squaring the set until it stops growing; shares
    no code with subgroup_generated."""
    span = {0} | set(elems)
    while True:
        bigger = span | {g.mul(a, b) for a in span for b in span}
        if bigger == span:
            return span
        span = bigger


def test_rank_search_matches_brute_force(battery):
    # the battery has no rank-3 group with an element of order >= 3
    rank3 = {spec: parse_group_spec(spec)
             for spec in ("C2^2xC4", "C2^3xC3", "D8xC2", "Q8xC2", "C2^2xC6")}
    for name, g in {**battery, **rank3}.items():
        n = g.order
        rank = next(t for t in range(n + 1)
                    if any(len(_span(g, c)) == n
                           for c in itertools.combinations(range(n), t)))
        assert minimal_generating_size(g) == rank, name
        pair = next(((x, y) for x in range(n) if g.element_order(x) >= 4
                     for y in range(n) if len(_span(g, (x, y))) == n), None)
        if pair is None:
            with pytest.raises(GroupError):
                pair_with_order_ge4(g)
        else:
            assert pair_with_order_ge4(g) == pair, name
        triple = next(((x, y, z) for x in range(n) if g.element_order(x) >= 3
                       for y, z in itertools.combinations(range(1, n), 2)
                       if len(_span(g, (x, y, z))) == n), None)
        if rank != 3 or triple is None:
            with pytest.raises(GroupError):
                triple_with_order_ge3(g)
        else:
            assert triple_with_order_ge3(g) == triple, name


def test_minimal_generating_sets_are_pinned():
    # every generic witness matrix is built from these tuples
    for spec, gens in [("C2^5", (1, 2, 4, 8, 16)), ("C2^4xC3", (25, 3, 6, 12)),
                       ("C3^4", (1, 3, 9, 27)), ("C7xC7", (1, 7)),
                       ("D8xC3", (3, 13)), ("Q8", (2, 4))]:
        assert minimal_generating_set(parse_group_spec(spec)) == gens, spec


_TOKENS = [f"C{n}" for n in range(1, 11)] + [
    "C12", "C2^2", "C2^3", "C2^4", "C3^2", "C3^3", "D6", "D8", "D10", "D12", "D16", "D18",
    "Q8", "A4", "X27"]
_PINNED_SPECS = _TOKENS + [f"{a}x{b}" for a in _TOKENS for b in _TOKENS] + [
    "C510", "D510", "C2xC255", "C512", "C2^6", "C3^6", "Q8xQ8xC8", "D6xD6xC2"]


def test_group_tables_are_pinned():
    # every witness matrix and certificate is written in these element orders
    digest = hashlib.sha256()
    for spec in _PINNED_SPECS:
        g = parse_group_spec(spec)
        digest.update(json.dumps([spec, g.descriptor, g.table]).encode())
    assert len(_PINNED_SPECS) == 658
    assert digest.hexdigest() == (
        "bb963710c95bd56a6ccfa3bc83162bedf927092c2f03721493f67c6c9ea09131")


def test_rank_search_budget():
    # the seven from Q8xQ8xC8 took over 30 s each before the quotient cut;
    # A4xA4xC3 and the five of order 512 were the slowest of the grammar
    # with it; D6xC83 and D6xC17xC5 took over 1 s before the sibling memo
    for spec, rank in [("C3^4", 4), ("C2^6", 6), ("C2^3xC2^4", 7), ("D8xD8", 4),
                       ("Q8xQ8xC8", 5), ("C2^3xD18", 4), ("C2^4xA4", 4),
                       ("C2^4xC3^2", 4), ("C2^4xD10", 5), ("C2^4xD6", 5),
                       ("C2^4xQ8", 6), ("A4xA4xC3", 3), ("C2^9", 9),
                       ("Q8xQ8xQ8", 6), ("D8xD8xD8", 6), ("C2^3xD8xD8", 7),
                       ("C2^6xQ8", 8), ("D6xC83", 2), ("D6xC17xC5", 2)]:
        g = parse_group_spec(spec)
        t0 = time.perf_counter()
        assert len(minimal_generating_set(g)) == rank, spec
        assert time.perf_counter() - t0 <= 3.0, spec


def test_quotient_cut_keeps_the_first_tuple(monkeypatch):
    specs = ("C2^4xC3", "D8xC2", "Q8xC4", "A4xC2^2", "C3^3", "D6xD6", "X27xC3")
    groups = [parse_group_spec(spec) for spec in specs]
    for g in groups:
        for p, r, labels, reps in _frattini_quotients(g):
            # the labels are a homomorphism onto a group of order p^r
            assert len(reps) == p ** r and labels[0] == 0
            assert all(labels[g.mul(x, y)] == labels[g.mul(reps[labels[x]], reps[labels[y]])]
                       for x in range(g.order) for y in range(g.order))
    cut = {(spec, t, f): _first_generating_tuple(g, t, f)
           for spec, g in zip(specs, groups) for t in range(1, 5) for f in (1, 3, 4)}
    monkeypatch.setattr(groups_module, "_frattini_quotients", lambda g: [])
    for (spec, t, f), tup in cut.items():
        assert _first_generating_tuple(parse_group_spec(spec), t, f) == tup, (spec, t, f)


def test_sibling_memo_keeps_the_first_tuple():
    # the tuples as computed before siblings with a closure already tried
    # were skipped; the D6 products are where the memo cuts most
    specs = ("C2^4xC3", "D8xC2", "Q8xC4", "A4xC2^2", "C3^3", "D6xD6", "X27xC3",
             "D6xC83", "C83xD6", "D6xC85", "C85xD6", "D6xC17xC5", "C5xC17xD6")
    found = {}
    for spec in specs:
        g = parse_group_spec(spec)
        found[spec] = [_first_generating_tuple(g, t, f)
                       for t in range(1, 5) for f in (1, 3, 4)]
    assert found["D6xC83"][3:6] == [(83, 250), (83, 250), (84, 249)]
    assert found["D6xC17xC5"][3:6] == [(85, 261), (85, 261), (86, 260)]
    assert found["C5xC17xD6"][3:6] == [(1, 111), (1, 111), (7, 105)]
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == (
        "44f330b696bf0a3c32764c2f65f7e45bbf59954355074e6d1273f3ae6398c4e2")


def test_rank_lower_bound():
    # d(G) for the nilpotent groups; D6 and A4 have rank 2 but an abelian
    # quotient G/G' of rank 1
    for spec, bound in [("C2^6", 6), ("Q8", 2), ("D6", 1), ("A4", 1),
                        ("C2^4xC3", 4), ("C1", 0)]:
        assert _rank_lower_bound(parse_group_spec(spec)) == bound, spec


def test_minimal_generating_sizes(battery):
    expected = {"C1": 0, "C2": 1, "C12": 1, "C2^2": 2, "C2^3": 3,
                "C3^2": 2, "C4xC2": 2, "C6xC2": 2, "D6": 2, "D12": 2,
                "Q8": 2, "A4": 2, "Dic3": 2}
    for name, d in expected.items():
        assert minimal_generating_size(battery[name]) == d, name


def test_minimal_generating_set_generates(battery):
    for name, g in battery.items():
        gens = minimal_generating_set(g)
        assert len(gens) == minimal_generating_size(g)
        assert len(subgroup_generated(g, gens)) == g.order, name
        if name not in ("C1", "C2", "C2^2", "C2^3"):
            # reordering rule: lead generator avoids order 2 outside exponent-2 groups
            assert g.element_order(gens[0]) >= 3, name


def test_rank_capacity(monkeypatch):
    import mhaar.groups

    g = cyclic(513)  # Group() runs subgroup_generated in its axiom check

    def refuse(*args):
        raise AssertionError("closure computed above the order cap")

    monkeypatch.setattr(mhaar.groups, "subgroup_generated", refuse)
    for search in (minimal_generating_size, pair_with_order_ge4, triple_with_order_ge3):
        with pytest.raises(CapacityError, match="capped at order 512"):
            search(g)


def test_rank_cap_is_half_the_vertex_cap(monkeypatch):
    # the largest group whose m >= 2 parts fit within the vertex cap
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "2048")
    assert minimal_generating_size(cyclic(513)) == 1
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "100")
    assert minimal_generating_size(cyclic(50)) == 1
    with pytest.raises(CapacityError, match="capped at order 50, got 51"):
        minimal_generating_size(cyclic(51))


def test_pair_with_order_ge4(battery):
    for name in ("C4", "C8", "C12", "D8", "Q8", "Dic3", "C4xC2"):
        x, y = pair_with_order_ge4(battery[name])
        g = battery[name]
        assert g.element_order(x) >= 4
        assert len(subgroup_generated(g, [x, y])) == g.order
    for bad in ("C2^2", "C3^2", "D6", "A4"):
        with pytest.raises(GroupError):
            pair_with_order_ge4(battery[bad])
    with pytest.raises(GroupError):
        pair_with_order_ge4(extraspecial27())


def test_triple_with_order_ge3():
    g = product([elem_abelian(2, 2), cyclic(4)])
    x, y, z = triple_with_order_ge3(g)
    assert g.element_order(x) >= 3
    assert len(subgroup_generated(g, [x, y, z])) == g.order
    with pytest.raises(GroupError):
        triple_with_order_ge3(elem_abelian(2, 3))
    with pytest.raises(GroupError):
        triple_with_order_ge3(dihedral(6))


def test_identify_catalog_group(battery):
    expected = {"C1": "C1", "C2": "C2", "C3": "C3", "C4": "C4", "C5": "C5",
                "C6": "C6", "C2^2": "C2^2", "C2^3": "C2^3", "C3^2": "C3^2",
                "D6": "D6", "A4": "A4"}
    for name, g in battery.items():
        assert identify_catalog_group(g) == expected.get(name), name
    assert identify_catalog_group(extraspecial27()) == "X27"
    # relabeled copies identify the same
    rng = random.Random(7)
    for tag in ("C6", "D6", "C2^3", "A4"):
        copy = relabeled_copy(battery[tag], rng)
        assert identify_catalog_group(copy) == tag


def test_identify_separates_c27_twins():
    # same order and element-order multiset; only the abelian flag differs
    assert identify_catalog_group(elem_abelian(3, 3)) is None
    assert identify_catalog_group(extraspecial27()) == "X27"


def test_catalog_group_round_trip():
    for tag in ("C1", "C4", "C2^2", "D6", "X27"):
        assert identify_catalog_group(catalog_group(tag)) == tag


def test_relabeled_copies_isomorphic(battery):
    rng = random.Random(3)
    for name in ("C6", "D8", "Q8", "A4", "Dic3"):
        g = battery[name]
        assert groups_isomorphic(g, relabeled_copy(g, rng)), name


def test_parse_group_spec_families(battery):
    for spec, name in [("C7", "C7"), ("C2^3", "C2^3"), ("D10", "D10"),
                       ("Q8", "Q8"), ("A4", "A4")]:
        assert groups_isomorphic(parse_group_spec(spec), battery[name])
    g = parse_group_spec("C2^2xC3")
    assert groups_isomorphic(g, battery["C6xC2"])
    assert parse_group_spec("X27").order == 27


def test_parse_group_spec_errors():
    with pytest.raises(GroupError, match="position 5"):
        parse_group_spec("C2^2xx27")
    with pytest.raises(GroupError, match="expected"):
        parse_group_spec("F20")
    with pytest.raises(GroupError):
        parse_group_spec("")
    with pytest.raises(GroupError):
        parse_group_spec("D7")  # odd dihedral order
    with pytest.raises(GroupError):
        parse_group_spec("D4")  # below the order >= 6 convention
    # ASCII digits only, and a bounded run of them: a non-ASCII digit and a
    # number past int()'s digit limit are both bad tokens, named as such
    for token in ("C\u0663", "C" + "9" * 5000, "D" + "9" * 5000, "C2^" + "9" * 5000):
        with pytest.raises(GroupError, match="bad group token"):
            parse_group_spec(f"C2x{token}")
    with pytest.raises(GroupError, match="bad group token '@"):
        parse_group_spec("@table.json")  # a table file is a command-line form


def test_group_json_round_trip(tmp_path, battery):
    g = battery["Dic3"]
    path = tmp_path / "dic3.json"
    path.write_text(json.dumps(g.to_json()))
    h = load_group(str(path))
    assert h.table == g.table
    # table files written while groups still carried element names load too
    path.write_text(json.dumps({**g.to_json(), "names": ["1"] + ["g"] * 11}))
    assert load_group(str(path)).table == g.table


def test_product_order_and_commutativity():
    g = product([cyclic(3), cyclic(4)])
    assert g.order == 12
    assert g.is_abelian()
    assert groups_isomorphic(g, cyclic(12))
    h = product([dihedral(6), cyclic(2)])
    assert h.order == 12
    assert not h.is_abelian()


@pytest.mark.parametrize("spec,tokens", [
    ("D8xC3", "D8 C3"), ("Q8xC2", "Q8 C2"), ("A4xC2xC3", "A4 C2 C3"),
    ("X27xC2", "X27 C2"), ("C2^4xC3", "C2 C2 C2 C2 C3")])
def test_product_tables_are_those_of_the_element_tuples(spec, tokens):
    # the product written out: element i is the i-th tuple of factor
    # elements in lexicographic order, multiplied factor by factor
    factors = [parse_group_spec(token) for token in tokens.split()]
    elements = list(itertools.product(*(range(f.order) for f in factors)))
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[tuple(f.table[x][y] for f, x, y in zip(factors, a, b))]
              for b in elements] for a in elements]
    assert parse_group_spec(spec).table == tuple(map(tuple, table))


def test_product_checks_only_the_whole_product(monkeypatch):
    # one Group for the factor C2 and one for C2^9: no intermediate power
    # is built as a group and checked again
    orders = []
    init = Group.__init__

    def counting(self, table, descriptor=None):
        orders.append(len(table))
        init(self, table, descriptor)
    monkeypatch.setattr(Group, "__init__", counting)
    g = parse_group_spec("C2^9")
    assert orders == [2, 512]
    assert g.descriptor == "C2^9"


def test_parse_group_spec_checks_the_order_before_any_table(monkeypatch):
    import mhaar.groups

    def refuse(n):
        raise AssertionError(f"built a table of order {n}")

    monkeypatch.setattr(mhaar.groups, "cyclic", refuse)
    for spec in ("C99999999", "C2000", "C5^99999999999", "C40xC40", "C2^11"):
        with pytest.raises(CapacityError, match="over the vertex cap of 1024"):
            parse_group_spec(spec)
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "8")
    with pytest.raises(CapacityError, match="vertex cap of 8"):
        parse_group_spec("D10")
    assert parse_group_spec("Q8").order == 8  # exactly the cap
    monkeypatch.undo()
    with pytest.raises(GroupError):
        parse_group_spec("C0xC99999999")  # the empty factor is still an error


def test_group_json_names_the_malformed_field():
    for table in (5, [5], [[0, "1"], [1, 0]]):
        with pytest.raises(GroupError, match="'table'"):
            Group.from_json({"order": 2, "table": table})
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    with pytest.raises(GroupError, match="'descriptor'"):
        Group.from_json({**c2, "descriptor": 7})
