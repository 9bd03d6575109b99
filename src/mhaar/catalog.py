"""Curated connection matrices for the twelve special small groups.

Every entry is a recipe over named generators, so it applies to any
isomorphic copy of its group (including groups ingested from
multiplication-table files).  `_RECIPES` states each entry once: for
each family of tags, its recipes keyed by (m, kind, source), each
carrying one number and its blocks.  The number is the valency of an
hgr entry, or the pattern parameter k of a pgsr entry, whose valencies
are k+1 on every part but the last two and k on those.  `ENTRIES`
lists the families' tags and recipes in table order.

Blocks are words over the named generators x, y, z:

  * `1` is the identity, a lower-case letter is a generator and its
    capital is the inverse; a word is the product of its letters from
    left to right, so `xY` is x*y^-1;
  * an item `PAIRS=WORDS` gives every part pair in the comma-separated
    PAIRS (two digits i < j each) the set of the comma-separated WORDS,
    and a recipe is its whitespace-separated items.  Unlisted pairs are
    empty.

g0_generators names the generators by one rule: each is the least
element of its order in `_GENERATOR_ORDERS` outside the subgroup
generated by the earlier ones.  X27 is the exception: its x, y are the
first pair of order-3 elements that do not commute.  All choices that
satisfy a tag's rule are equivalent under some automorphism of the
group, so every copy yields an isomorphic graph.

Entries with source "recorded" are hand-checked matrices; the three
"derived" entries are replacement chain-extension bases found by
exhaustive search, needed because the recorded 4/5-part bases for C3
and C2^2 have k = 5 exceeding |G|, which no filler set can satisfy.
Exhaustive search also showed no 3-part replacement exists for either
group (27 and 144 candidates), hence the 4- and 5-part shapes.

Beyond the recorded range (m >= 10), the witnesses for the groups of
order 1 and 2 are |G| disjoint copies of an asymmetric 4-regular
template on the m parts (`asymmetric_regular_graph`, `matrix_from_graph`).
A template is the union of two seeded random Hamiltonian cycles, so it
is connected and loop-free by construction; it is drawn again while the
two cycles share an edge or the engine finds a nontrivial automorphism.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .cayley import ConnectionMatrix
from .graphs import Graph
from .groups import (CapacityError, Group, GroupError, catalog_group,
                     identify_catalog_group, subgroup_generated)

# family of tags -> {(m, kind, source): (valency or k, blocks)}
_RECIPES = {
    ("C2",): {
        (6, "hgr", "recorded"): (5, "12,16,35,46=1,x 15,23,25,36,45=1 24,34=x"),
        (7, "hgr", "recorded"): (4, "12=1,x 13,17,23,47,56,57,67=x 26,34,35,45,46=1"),
        (8, "hgr", "recorded"): (4, "12=1,x 17,18,34,38,45,46,58=1 23,26,35,47,56,67,78=x"),
        (9, "hgr", "recorded"): (4, "12,89=1,x 17,19,34,38,45,46,59=1 23,26,35,47,56,67,78=x"),
    },
    ("C3",): {
        (5, "hgr", "recorded"): (4, "12=1,x 13,45=1,X 24=1 25,34,35=x"),
        (4, "pgsr", "recorded"): (5, "12,13,14,23=1,x 24=x,X 34=x"),
        (5, "pgsr", "recorded"): (5, "12,13,23,45=1,x 14,15=1 24,34=X 25,35=x"),
        (4, "pgsr", "derived"): (3, "12=1,x 13,14,23,34=1 24=x"),
        (5, "pgsr", "derived"): (3, "12,13,24,25=1 15=1,x 23=x 34=1,xx"),
    },
    ("C4", "C5", "C6"): {
        (4, "hgr", "recorded"): (5, "12,13=1,x 14=1 23=x 24,34=x,X"),
        (3, "pgsr", "recorded"): (3, "12=1,x 13=x,X 23=1"),
        (4, "pgsr", "recorded"): (4, "12,13=1,x 14=1 23=x 24=x,xx 34=X"),
    },
    ("C6",): {
        (3, "hgr", "recorded"): (4, "12=1,xxx 13=1,X 23=x,X"),
    },
    ("C2^2",): {
        (4, "hgr", "recorded"): (5, "12,23,34=1,x 13=x 14=x,y 24=y"),
        (5, "hgr", "recorded"): (4, "12=1,x 13=x,y 23,35=1 24=y 45=1,x,y"),
        (4, "pgsr", "recorded"): (4, "12,23=1,x 13,34=x 14=x,y 24=y"),
        (5, "pgsr", "recorded"): (5, "12,13,45=1,x,y 23,24=x 25=xy 34,35=y"),
        (5, "pgsr", "derived"): (3, "12,13,24,25=1 15=1,y 23=y 34=y,x"),
    },
    ("C2^3",): {
        (3, "hgr", "recorded"): (8, "12=1,x,z,xy 13=z,xy,xz,xyz 23=y,z,xy,xz"),
        (4, "hgr", "recorded"): (5, "12=1,x 13,34=x,z 14,23=x 24=x,y"),
        (3, "pgsr", "recorded"): (5, "12=1,x,y 13=1,xz,xyz 23=xz,yz"),
        (4, "pgsr", "recorded"): (4, "12=1,x 13=x,z 14,23=x 24=x,y 34=y"),
    },
    ("C3^2", "A4", "X27"): {
        (3, "hgr", "recorded"): (6, "12=1,x,y 13=1,x,xy 23=1,X,yx"),
    },
    ("C3^2", "D6", "A4", "X27"): {
        (4, "hgr", "recorded"): (5, "12=1,y 13,24=1,x 14,23=1 34=x,y"),
        (3, "pgsr", "recorded"): (5, "12=1,x,y 13=1,x,xy 23=1,yx"),
        (4, "pgsr", "recorded"): (4, "12=1,y 13,24=1,x 14,23=1 34=x"),
    },
}

# the orders of the named generators x, y, z of each tag but X27
_GENERATOR_ORDERS = {
    "C1": (), "C2": (2,), "C3": (3,), "C4": (4,), "C5": (5,), "C6": (6,),
    "C2^2": (2, 2), "C2^3": (2, 2, 2), "C3^2": (3, 3), "D6": (3, 2), "A4": (3, 2),
}


def word_blocks(g: Group, gens: dict[str, int], recipe: str) -> dict[tuple[int, int], list[int]]:
    """The blocks of a recipe in the word grammar of the module docstring."""
    def word(w: str) -> int:
        e = 0
        for c in w.replace("1", ""):
            e = g.mul(e, gens[c] if c.islower() else g.inv(gens[c.lower()]))
        return e

    blocks = {}
    for item in recipe.split():
        pairs, words = item.split("=")
        elems = [word(w) for w in words.split(",")]
        for p in pairs.split(","):
            blocks[(int(p[0]), int(p[1]))] = elems
    return blocks


def g0_generators(g: Group, tag: str) -> dict[str, int]:
    """Named generators for a catalog group given as any isomorphic copy.

    All returned choices for a given tag are automorphism-equivalent,
    so catalog recipes built on them yield isomorphic graphs.
    """
    n = g.order
    if tag == "X27":
        pair = next(((x, y) for x in range(n) for y in range(n)
                     if g.element_order(x) == g.element_order(y) == 3
                     and g.mul(x, y) != g.mul(y, x)), None)
        if pair is None:
            raise GroupError("no noncommuting order-3 pair found")
        return dict(zip("xy", pair))
    if tag not in _GENERATOR_ORDERS:
        raise GroupError(f"unknown catalog tag {tag!r}")
    gens: dict[str, int] = {}
    for name, order in zip("xyz", _GENERATOR_ORDERS[tag]):
        span = subgroup_generated(g, gens.values())
        found = [e for e in range(n) if e not in span and g.element_order(e) == order]
        if not found:
            raise GroupError(f"no element of order {order} found")
        gens[name] = found[0]
    return gens


class CatalogEntry(NamedTuple):
    tag: str
    m: int
    kind: str     # "hgr" or "pgsr"
    source: str   # "recorded" or "derived"
    degree: int   # the valency of every part (hgr), or the pattern parameter k (pgsr)
    blocks: str   # in the word grammar of the module docstring

    @property
    def k(self) -> Optional[int]:
        return self.degree if self.kind == "pgsr" else None

    @property
    def valencies(self) -> tuple[int, ...]:
        if self.kind == "hgr":
            return (self.degree,) * self.m
        return (self.degree + 1,) * (self.m - 2) + (self.degree,) * 2

    def __str__(self) -> str:
        extra = f" k={self.k}" if self.k is not None else ""
        return f"{self.tag} m={self.m} {self.kind}/{self.source}{extra} v={self.valencies}"


ENTRIES: tuple[CatalogEntry, ...] = tuple(
    CatalogEntry(tag, m, kind, source, degree, blocks)
    for tags, recipes in _RECIPES.items() for tag in tags
    for (m, kind, source), (degree, blocks) in recipes.items())


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
    blocks = word_blocks(group, g0_generators(group, entry.tag), entry.blocks)
    cm = ConnectionMatrix(group, entry.m, blocks)
    if cm.valencies() != entry.valencies:
        raise GroupError(
            f"recipe for {entry} produced valencies {cm.valencies()}; the "
            "generator choice violated a set-size assumption")
    return cm


# -- asymmetric regular graphs -------------------------------------------------

ASYM_REGULAR_MIN_VERTICES = 10
_ATTEMPT_CAP = 200000


def asymmetric_regular_graph(m: int, seed: int = 0) -> Graph:
    """A connected 4-regular graph on m >= 10 vertices with trivial
    automorphism group: the union of two seeded random Hamiltonian
    cycles, redrawn while they share an edge or the union has a
    nontrivial automorphism.

    No regular graph on fewer than 10 vertices is asymmetric (verified
    exhaustively by the scan in the search module), hence the floor.
    The result is deterministic in (m, seed) and is certified
    asymmetric by the automorphism engine before being returned.
    """
    from .autos import extra_automorphism

    if m < ASYM_REGULAR_MIN_VERTICES:
        raise ValueError(
            f"no asymmetric regular graph exists on {m} < "
            f"{ASYM_REGULAR_MIN_VERTICES} vertices")
    rng = random.Random(f"{seed}:{m}:4")  # seed, vertices, degree
    for _ in range(_ATTEMPT_CAP):
        # two Hamiltonian cycles: connected and loop-free, and 4-regular
        # when they share no edge
        edges = set()
        for _ in range(2):
            tour = list(range(m))
            rng.shuffle(tour)
            edges.update(frozenset(e) for e in zip(tour, tour[1:] + tour[:1]))
        if len(edges) < 2 * m:
            continue
        g = Graph.from_edges(m, map(tuple, edges))
        if extra_automorphism(g, 1) is None:
            return g
    raise CapacityError(  # pragma: no cover - acceptance rate is high
        f"no asymmetric 4-regular graph found in {_ATTEMPT_CAP} attempts")


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
