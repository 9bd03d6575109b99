"""Exhaustive search: candidate counting, both modes, and the trivial group."""

import pytest

from mhaar.autos import is_m_hgr
from mhaar.groups import CapacityError, cyclic, dihedral, elem_abelian, quaternion8
from mhaar.search import (
    SearchReport,
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


def test_space_sizes_normalized():
    # identity forced into a spanning forest of each profile's support
    assert space_size(cyclic(2), 3, "normalized") == (3, 4)
    assert space_size(cyclic(2), 4, "normalized") == (27, 52)
    assert space_size(cyclic(2), 5, "normalized") == (119, 658)
    assert space_size(elem_abelian(2, 2), 3, "normalized") == (5, 96)
    assert space_size(cyclic(6), 3, "normalized") == (7, 4033)


def test_space_size_budget():
    with pytest.raises(CapacityError, match="exceeds the budget"):
        space_size(cyclic(6), 3, "exhaustive", budget=1000)
    with pytest.raises(ValueError, match="mode"):
        space_size(cyclic(2), 3, "fast")


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


def test_workers_change_nothing():
    solo = decide_existence(cyclic(6), 3, mode="normalized")
    duo = decide_existence(cyclic(6), 3, mode="normalized", workers=2)
    assert (duo.exists, duo.examined) == (solo.exists, solo.examined)
    assert duo.witness.upper_items() == solo.witness.upper_items()


def test_argument_validation():
    with pytest.raises(ValueError, match="m must be >= 2"):
        decide_existence(cyclic(2), 1)
    with pytest.raises(ValueError, match="mode"):
        decide_existence(cyclic(2), 3, mode="greedy")
    with pytest.raises(ValueError, match="workers"):
        decide_existence(cyclic(2), 3, workers=0)
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
    s = SearchReport("C2", 2, 3, "normalized", False, 3, 4, 2, 0, None,
                     False, 0.0)
    assert str(s).endswith("none seen")
