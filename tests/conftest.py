"""Shared fixtures: the order <= 12 group battery and a brute-force
isomorphism oracle used to prove the battery covers distinct types."""

from __future__ import annotations

import itertools
import random

import pytest

from mhaar.groups import (Group, cyclic, dihedral, elem_abelian,
                          alternating4, quaternion8, product,
                          minimal_generating_set)


def dicyclic12() -> Group:
    """Dic3 = <a, b | a^6 = 1, b^2 = a^3, b a b^-1 = a^-1>.

    Element i + 6j encodes a^i b^j; the j = 1 rows multiply with the
    inversion twist, which is what separates this type from D12 and C12.
    """
    def mul(e, f):
        i, j = e % 6, e // 6
        i2, j2 = f % 6, f // 6
        if j == 0:
            return (i + i2) % 6 + 6 * j2
        if j2 == 0:
            return (i - i2) % 6 + 6
        return (i - i2 + 3) % 6
    table = [[mul(e, f) for f in range(12)] for e in range(12)]
    return Group(table, descriptor="Dic3")


def battery_groups() -> dict[str, Group]:
    """All 24 isomorphism types of order <= 12, keyed by a display name."""
    groups = {}
    for n in range(1, 13):
        groups[f"C{n}"] = cyclic(n)
    groups["C2^2"] = elem_abelian(2, 2)
    groups["C2^3"] = elem_abelian(2, 3)
    groups["C3^2"] = elem_abelian(3, 2)
    groups["C4xC2"] = product([cyclic(4), cyclic(2)])
    groups["C6xC2"] = product([cyclic(6), cyclic(2)])
    for n in (6, 8, 10, 12):
        groups[f"D{n}"] = dihedral(n)
    groups["Q8"] = quaternion8()
    groups["A4"] = alternating4()
    groups["Dic3"] = dicyclic12()
    assert len(groups) == 24
    return groups


@pytest.fixture(scope="session")
def battery() -> dict[str, Group]:
    return battery_groups()


def relabeled_copy(g: Group, rng: random.Random) -> Group:
    """Isomorphic copy under a random permutation that fixes the identity."""
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.table[a][b]]
    return Group(table)


def random_matrix(group: Group, m: int, rng: random.Random,
                  diagonal: bool = False, density: float = 0.5):
    """Arbitrary connection matrix: random subsets, no structure implied.

    Diagonal blocks, when requested, are inverse-closed and identity-free
    so the graph stays simple.
    """
    from mhaar.cayley import ConnectionMatrix
    n = group.order
    blocks = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            blocks[(i, j)] = [e for e in range(n) if rng.random() < density]
    if diagonal:
        for i in range(1, m + 1):
            s = set()
            for e in range(1, n):
                if rng.random() < density / 2:
                    s.add(e)
                    s.add(group.inv(e))
            blocks[(i, i)] = sorted(s)
    return ConnectionMatrix(group, m, blocks)


def groups_isomorphic(a: Group, b: Group) -> bool:
    """Exact isomorphism test by generator-image backtracking.

    Fine for the battery sizes; the element-order multiset filter kills
    almost every non-isomorphic pair before any search happens.
    """
    if a.order != b.order:
        return False
    if sorted(a.element_orders()) != sorted(b.element_orders()):
        return False
    gens = minimal_generating_set(a)
    if not gens:
        return True
    candidates = [
        [h for h in range(b.order) if b.element_order(h) == a.element_order(x)]
        for x in gens
    ]
    for images in itertools.product(*candidates):
        # grow the induced map from the generators; any clash kills it
        mapping = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            e = frontier.pop()
            for x, h in zip(gens, images):
                src, dst = a.table[e][x], b.table[mapping[e]][h]
                if src in mapping:
                    if mapping[src] != dst:
                        ok = False
                        break
                else:
                    mapping[src] = dst
                    frontier.append(src)
        if ok and len(mapping) == a.order and len(set(mapping.values())) == a.order:
            return True
    return False
