"""Curated connection matrices for the twelve special small groups.

Every entry is stored as a recipe over named generators, so it applies
to any isomorphic copy of its group (including groups ingested from
multiplication-table files): g0_generators locates suitable generators
by element orders, and all valid choices are equivalent under some
automorphism of the group, so the resulting graphs are isomorphic.

Entries with source "recorded" are hand-checked matrices; the three
"derived" entries are replacement chain-extension bases found by
exhaustive search, needed because the recorded 4/5-part bases for C3
and C2^2 have k = 5 exceeding |G|, which no filler set can satisfy.
Exhaustive search also showed no 3-part replacement exists for either
group (27 and 144 candidates), hence the 4- and 5-part shapes.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .cayley import ConnectionMatrix
from .graphs import Graph
from .groups import (CapacityError, Group, GroupError, catalog_group,
                     identify_catalog_group, subgroup_generated)


def _least_of_order(g: Group, order: int, exclude: frozenset[int] = frozenset()) -> int:
    for e in range(g.order):
        if e not in exclude and g.element_order(e) == order:
            return e
    raise GroupError(f"no element of order {order} found")


def g0_generators(g: Group, tag: str) -> dict[str, int]:
    """Named generators for a catalog group given as any isomorphic copy.

    All returned choices for a given tag are automorphism-equivalent,
    so catalog recipes built on them yield isomorphic graphs.
    """
    n = g.order
    if tag == "C1":
        return {}
    if tag in ("C2", "C3", "C4", "C5", "C6"):
        return {"x": _least_of_order(g, n)}
    if tag == "C2^2":
        x = _least_of_order(g, 2)
        y = _least_of_order(g, 2, frozenset([x]))
        return {"x": x, "y": y}
    if tag == "C2^3":
        x = _least_of_order(g, 2)
        y = _least_of_order(g, 2, frozenset([x]))
        span = subgroup_generated(g, (x, y))
        z = next(e for e in range(n) if e not in span and g.element_order(e) == 2)
        return {"x": x, "y": y, "z": z}
    if tag == "C3^2":
        x = _least_of_order(g, 3)
        span = subgroup_generated(g, (x,))
        y = next(e for e in range(n) if e not in span and g.element_order(e) == 3)
        return {"x": x, "y": y}
    if tag in ("D6", "A4"):
        return {"x": _least_of_order(g, 3), "y": _least_of_order(g, 2)}
    if tag == "X27":
        for x in range(n):
            if g.element_order(x) != 3:
                continue
            for y in range(n):
                if g.element_order(y) == 3 and g.mul(x, y) != g.mul(y, x):
                    return {"x": x, "y": y}
        raise GroupError("no noncommuting order-3 pair found")
    raise GroupError(f"unknown catalog tag {tag!r}")


class CatalogEntry(NamedTuple):
    tag: str
    m: int
    kind: str     # "hgr" or "pgsr"
    source: str   # "recorded" or "derived"
    valencies: tuple[int, ...]
    k: Optional[int] = None  # pgsr pattern parameter

    def __str__(self) -> str:
        extra = f" k={self.k}" if self.k is not None else ""
        return f"{self.tag} m={self.m} {self.kind}/{self.source}{extra} v={self.valencies}"


def _blocks_for(tag: str, g: Group, d: dict[str, int],
                m: int, kind: str, source: str) -> Optional[dict]:
    mul, inv = g.mul, g.inv
    key = (m, kind, source)
    if tag == "C2":
        x = d["x"]
        if key == (6, "hgr", "recorded"):
            return {(1, 2): [0, x], (1, 6): [0, x], (3, 5): [0, x], (4, 6): [0, x],
                    (1, 5): [0], (2, 3): [0], (2, 5): [0], (3, 6): [0], (4, 5): [0],
                    (2, 4): [x], (3, 4): [x]}
        if key == (7, "hgr", "recorded"):
            return {(1, 2): [0, x],
                    (1, 3): [x], (1, 7): [x], (2, 3): [x], (4, 7): [x],
                    (5, 6): [x], (5, 7): [x], (6, 7): [x],
                    (2, 6): [0], (3, 4): [0], (3, 5): [0], (4, 5): [0], (4, 6): [0]}
        if key == (8, "hgr", "recorded"):
            return {(1, 2): [0, x],
                    (1, 7): [0], (1, 8): [0], (3, 4): [0], (3, 8): [0],
                    (4, 5): [0], (4, 6): [0], (5, 8): [0],
                    (2, 3): [x], (2, 6): [x], (3, 5): [x], (4, 7): [x],
                    (5, 6): [x], (6, 7): [x], (7, 8): [x]}
        if key == (9, "hgr", "recorded"):
            return {(1, 2): [0, x], (8, 9): [0, x],
                    (1, 7): [0], (1, 9): [0], (3, 4): [0], (3, 8): [0],
                    (4, 5): [0], (4, 6): [0], (5, 9): [0],
                    (2, 3): [x], (2, 6): [x], (3, 5): [x], (4, 7): [x],
                    (5, 6): [x], (6, 7): [x], (7, 8): [x]}
    if tag == "C3":
        x = d["x"]
        xi = inv(x)
        if key == (5, "hgr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [0, xi], (4, 5): [0, xi],
                    (2, 4): [0], (2, 5): [x], (3, 4): [x], (3, 5): [x]}
        if key == (4, "pgsr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [0, x], (1, 4): [0, x], (2, 3): [0, x],
                    (2, 4): [x, xi], (3, 4): [x]}
        if key == (5, "pgsr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [0, x], (2, 3): [0, x], (4, 5): [0, x],
                    (1, 4): [0], (1, 5): [0],
                    (2, 4): [xi], (3, 4): [xi], (2, 5): [x], (3, 5): [x]}
        if key == (4, "pgsr", "derived"):
            return {(1, 2): [0, x], (1, 3): [0], (1, 4): [0], (2, 3): [0],
                    (2, 4): [x], (3, 4): [0]}
        if key == (5, "pgsr", "derived"):
            return {(1, 2): [0], (1, 3): [0], (1, 5): [0, x], (2, 3): [x],
                    (2, 4): [0], (2, 5): [0], (3, 4): [0, mul(x, x)]}
    if tag in ("C4", "C5", "C6"):
        x = d["x"]
        xi = inv(x)
        if key == (4, "hgr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [0, x], (1, 4): [0], (2, 3): [x],
                    (2, 4): [x, xi], (3, 4): [x, xi]}
        if key == (3, "pgsr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [x, xi], (2, 3): [0]}
        if key == (4, "pgsr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [0, x], (1, 4): [0], (2, 3): [x],
                    (2, 4): [x, mul(x, x)], (3, 4): [xi]}
        if tag == "C6" and key == (3, "hgr", "recorded"):
            return {(1, 2): [0, g.power(x, 3)], (1, 3): [0, xi], (2, 3): [x, xi]}
    if tag == "C2^2":
        x, y = d["x"], d["y"]
        xy = mul(x, y)
        if key == (4, "hgr", "recorded"):
            return {(1, 2): [0, x], (2, 3): [0, x], (3, 4): [0, x],
                    (1, 3): [x], (1, 4): [x, y], (2, 4): [y]}
        if key == (5, "hgr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [x, y], (2, 3): [0], (3, 5): [0],
                    (2, 4): [y], (4, 5): [0, x, y]}
        if key == (4, "pgsr", "recorded"):
            return {(1, 2): [0, x], (2, 3): [0, x], (1, 3): [x], (3, 4): [x],
                    (1, 4): [x, y], (2, 4): [y]}
        if key == (5, "pgsr", "recorded"):
            return {(1, 2): [0, x, y], (1, 3): [0, x, y], (4, 5): [0, x, y],
                    (2, 3): [x], (2, 4): [x], (2, 5): [xy], (3, 4): [y], (3, 5): [y]}
        if key == (5, "pgsr", "derived"):
            return {(1, 2): [0], (1, 3): [0], (1, 5): [0, y], (2, 3): [y],
                    (2, 4): [0], (2, 5): [0], (3, 4): [y, x]}
    if tag == "C2^3":
        x, y, z = d["x"], d["y"], d["z"]
        xy, xz, yz = mul(x, y), mul(x, z), mul(y, z)
        xyz = mul(xy, z)
        if key == (3, "hgr", "recorded"):
            return {(1, 2): [0, x, z, xy], (1, 3): [z, xy, xz, xyz],
                    (2, 3): [y, z, xy, xz]}
        if key == (4, "hgr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [x, z], (1, 4): [x], (2, 3): [x],
                    (2, 4): [x, y], (3, 4): [x, z]}
        if key == (3, "pgsr", "recorded"):
            return {(1, 2): [0, x, y], (1, 3): [0, xz, xyz], (2, 3): [xz, yz]}
        if key == (4, "pgsr", "recorded"):
            return {(1, 2): [0, x], (1, 3): [x, z], (1, 4): [x], (2, 3): [x],
                    (2, 4): [x, y], (3, 4): [y]}
    if tag in ("C3^2", "D6", "A4", "X27"):
        x, y = d["x"], d["y"]
        xi = inv(x)
        xy, yx = mul(x, y), mul(y, x)
        if key == (3, "hgr", "recorded") and tag != "D6":
            return {(1, 2): [0, x, y], (1, 3): [0, x, xy], (2, 3): [0, xi, yx]}
        if key == (4, "hgr", "recorded"):
            return {(1, 2): [0, y], (1, 3): [0, x], (2, 4): [0, x], (1, 4): [0],
                    (2, 3): [0], (3, 4): [x, y]}
        if key == (3, "pgsr", "recorded"):
            return {(1, 2): [0, x, y], (1, 3): [0, x, xy], (2, 3): [0, yx]}
        if key == (4, "pgsr", "recorded"):
            return {(1, 2): [0, y], (1, 3): [0, x], (2, 4): [0, x], (1, 4): [0],
                    (2, 3): [0], (3, 4): [x]}
    return None


def _entry_list() -> list[CatalogEntry]:
    out = []

    def add(tag, m, kind, source, vals, k=None):
        out.append(CatalogEntry(tag, m, kind, source, tuple(vals), k))

    add("C2", 6, "hgr", "recorded", (5,) * 6)
    for m in (7, 8, 9):
        add("C2", m, "hgr", "recorded", (4,) * m)
    add("C3", 5, "hgr", "recorded", (4,) * 5)
    add("C3", 4, "pgsr", "recorded", (6, 6, 5, 5), 5)
    add("C3", 5, "pgsr", "recorded", (6, 6, 6, 5, 5), 5)
    add("C3", 4, "pgsr", "derived", (4, 4, 3, 3), 3)
    add("C3", 5, "pgsr", "derived", (4, 4, 4, 3, 3), 3)
    for tag in ("C4", "C5", "C6"):
        add(tag, 4, "hgr", "recorded", (5,) * 4)
        add(tag, 3, "pgsr", "recorded", (4, 3, 3), 3)
        add(tag, 4, "pgsr", "recorded", (5, 5, 4, 4), 4)
    add("C6", 3, "hgr", "recorded", (4,) * 3)
    add("C2^2", 4, "hgr", "recorded", (5,) * 4)
    add("C2^2", 5, "hgr", "recorded", (4,) * 5)
    add("C2^2", 4, "pgsr", "recorded", (5, 5, 4, 4), 4)
    add("C2^2", 5, "pgsr", "recorded", (6, 6, 6, 5, 5), 5)
    add("C2^2", 5, "pgsr", "derived", (4, 4, 4, 3, 3), 3)
    add("C2^3", 3, "hgr", "recorded", (8,) * 3)
    add("C2^3", 4, "hgr", "recorded", (5,) * 4)
    add("C2^3", 3, "pgsr", "recorded", (6, 5, 5), 5)
    add("C2^3", 4, "pgsr", "recorded", (5, 5, 4, 4), 4)
    for tag in ("C3^2", "A4", "X27"):
        add(tag, 3, "hgr", "recorded", (6,) * 3)
    for tag in ("C3^2", "D6", "A4", "X27"):
        add(tag, 4, "hgr", "recorded", (5,) * 4)
        add(tag, 3, "pgsr", "recorded", (6, 5, 5), 5)
        add(tag, 4, "pgsr", "recorded", (5, 5, 4, 4), 4)
    return out


ENTRIES: tuple[CatalogEntry, ...] = tuple(_entry_list())


def entries(tag: Optional[str] = None, m: Optional[int] = None,
            kind: Optional[str] = None, source: Optional[str] = None) -> list[CatalogEntry]:
    return [e for e in ENTRIES
            if (tag is None or e.tag == tag)
            and (m is None or e.m == m)
            and (kind is None or e.kind == kind)
            and (source is None or e.source == source)]


def build_entry(entry: CatalogEntry, group: Optional[Group] = None) -> ConnectionMatrix:
    """Connection matrix for a catalog entry, over the given group copy.

    group defaults to the canonical construction for the entry's tag;
    a supplied group must be isomorphic to it.
    """
    if group is None:
        group = catalog_group(entry.tag)
    else:
        found = identify_catalog_group(group)
        if found != entry.tag:
            raise GroupError(
                f"group identifies as {found!r}, entry needs {entry.tag!r}")
    gens = g0_generators(group, entry.tag)
    blocks = _blocks_for(entry.tag, group, gens, entry.m, entry.kind, entry.source)
    if blocks is None:  # pragma: no cover - ENTRIES and _blocks_for stay in sync
        raise GroupError(f"no recipe for entry {entry}")
    cm = ConnectionMatrix(group, entry.m, blocks)
    if cm.valencies() != entry.valencies:
        raise GroupError(
            f"recipe for {entry} produced valencies {cm.valencies()}; the "
            "generator choice violated a set-size assumption")
    return cm


def lift_base_entry(tag: str, m: int) -> CatalogEntry:
    """Pick the chain-extension base entry for extending tag to m parts.

    Odd m uses a 3- or 5-part base, even m a 4-part base; only bases
    whose k fits inside the group qualify (the recorded k=5 bases for
    C3 and C2^2 do not, which is what the derived entries are for).
    """
    want_parts = (3, 5) if m % 2 else (4,)
    order = catalog_group(tag).order
    cands = [e for e in entries(tag=tag, kind="pgsr")
             if e.m in want_parts and e.k is not None and e.k <= order
             and e.m + 2 <= m]
    if not cands:
        raise GroupError(f"no usable chain-extension base for {tag} toward m={m}")
    cands.sort(key=lambda e: (e.m, e.source != "recorded", e.k))
    return cands[0]


# -- asymmetric regular graphs -------------------------------------------------

ASYM_REGULAR_MIN_VERTICES = 10
_PAIRING_ATTEMPT_CAP = 200000


def asymmetric_regular_graph(m: int, seed: int = 0) -> Graph:
    """A connected 4-regular graph on m >= 10 vertices with trivial
    automorphism group, by seeded random stub pairing plus rejection.

    No regular graph on fewer than 10 vertices is asymmetric (verified
    exhaustively by the scan in the search module), hence the floor.
    The result is deterministic in (m, seed) and is certified
    asymmetric by the automorphism engine before being returned.
    """
    from .autos import only_translations

    if m < ASYM_REGULAR_MIN_VERTICES:
        raise ValueError(
            f"no asymmetric regular graph exists on {m} < "
            f"{ASYM_REGULAR_MIN_VERTICES} vertices")
    rng = random.Random(f"{seed}:{m}:4")  # seed, vertices, degree
    for _ in range(_PAIRING_ATTEMPT_CAP):
        stubs = [v for v in range(m) for _ in range(4)]
        rng.shuffle(stubs)
        g = Graph(m)
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or g.has_edge(u, v):
                ok = False
                break
            g.add_edge(u, v)
        if not ok or not g.is_connected():
            continue
        if only_translations(g, 1):
            return g
    raise CapacityError(  # pragma: no cover - acceptance rate is high
        "no asymmetric 4-regular graph found in "
        f"{_PAIRING_ATTEMPT_CAP} pairing attempts")


def matrix_from_graph(group: Group, template: Graph) -> ConnectionMatrix:
    """Connection matrix whose identity-only blocks trace the template's edges.

    The resulting graph is |G| disjoint copies of the template, with
    automorphism group Sym(|G|) when the template is connected and
    asymmetric.  That matches |G| exactly for groups of order 1 and 2,
    which is what the large-m witnesses for those two groups need.
    """
    if group.order > 2:
        raise GroupError(
            "identity-block templates only certify groups of order <= 2")
    blocks = {(u + 1, v + 1): [0] for u, v in template.edges()}
    return ConnectionMatrix(group, template.n, blocks)
