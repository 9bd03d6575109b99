"""Witness synthesis: decide whether an m-part Haar-type regular graphical
representation exists for a group, and build one when it does.

The decision is a finite exception table: existence fails only for a
handful of small groups at m in 3..9 (clauses a-d below).  Everywhere
else a witness is assembled from one of four sources:

  * a recorded catalog matrix (the twelve special small groups),
  * a chain extension of a small partial base (catalog or generic),
  * rank-dependent generic recipes at m = 3 and m = 4,
  * an asymmetric regular template graph (groups of order 1 and 2,
    large m), whose identity-only blocks give |G| disjoint copies.

Every route can be re-verified by the automorphism engine; synthesize
does so by default and refuses to return an unverified failure.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .autos import is_m_hgr
from .catalog import (asymmetric_regular_graph, build_entry, entries,
                      matrix_from_graph, word_blocks)
from .cayley import ConnectionMatrix, Verdict
from .graphs import check_vertex_cap
from .groups import (Group, GroupError, identify_catalog_group,
                     minimal_generating_set, pair_with_order_ge4,
                     triple_with_order_ge3)
from .lift import LiftError, lift_base

HGR_MIN_PARTS = 3

# all (group, parts) pairs admitting no representation, by clause
_NO_HGR_CLAUSES = (
    ("a", 3, ("C1", "C2", "C3", "C4", "C5", "C2^2", "D6")),
    ("b", 4, ("C1", "C2", "C3")),
    ("c", 5, ("C1", "C2")),
    ("d", 6, ("C1",)),
    ("d", 7, ("C1",)),
    ("d", 8, ("C1",)),
    ("d", 9, ("C1",)),
)
NONEXISTENT: dict[tuple[str, int], str] = {
    (tag, m): clause for clause, m, tags in _NO_HGR_CLAUSES for tag in tags}


class SynthesisError(RuntimeError):
    """A synthesized witness failed its own verification (internal bug)."""


def nonexistence_clause(group: Group, m: int) -> Optional[str]:
    """Clause letter (a-d) if (group, m) is an exception, else None; an m
    outside the classification raises ValueError."""
    if m == 2:
        raise ValueError(
            "m=2 is outside the classification; use the search module to "
            "decide individual two-part cases")
    if m < HGR_MIN_PARTS:
        raise ValueError(f"m must be >= {HGR_MIN_PARTS}, got {m}")
    return NONEXISTENT.get((identify_catalog_group(group), m))


# -- generic recipes, by minimal generating size -------------------------------


# blocks in the word grammar of the catalog module, over the lex-first
# (x, y) with |x| >= 4 of a 2-generated group or (x, y, z) with |x| >= 3
# of a 3-generated one; "hgr" is a witness, "base" a chain-extension base
_WORD_RECIPES = {
    (2, "hgr", 3): "12=1,x,Y 13=1,x,X 23=x,X,y",
    (2, "hgr", 4): "12,13,24=1,x 14,23=1 34=x,y",
    (2, "base", 3): "12=1,x,Y 13=1,x,X 23=x,X",
    (2, "base", 4): "12,13,24=1,x 14,23=1 34=y",
    (3, "hgr", 3): "12=1,x,X 13=1,Y,z 23=1,X,z",
    (3, "hgr", 4): "12,13=1,x 14,23=1 24=1,y 34=y,z",
    (3, "base", 3): "12=1,x,y 13=1,y,z 23=1,z",
    (3, "base", 4): "12=1,x 13=1,z 14=1 23=X 24=1,y 34=x",
}


def _spanning_sets(g: Group) -> dict[str, list[int]]:
    """The six connection sets used by the rank >= 4 recipes.

    Sizes are forced by minimality of the generating set; a collision
    would mean a redundant generator, so it is checked loudly.
    """
    hs = list(minimal_generating_set(g))
    t = len(hs)
    if t < 4:
        raise GroupError(f"rank >= 4 recipe asked for a rank-{t} group")
    mul, inv = g.mul, g.inv
    step = mul(hs[1], inv(hs[0]))
    sets = {
        "full": [0] + hs,
        "skew": [0, hs[0], step] + hs[2:],
        "diffs": [0, hs[0]] + [mul(hs[i], inv(hs[i - 1])) for i in range(1, t)],
        "diffs_cut": [0, hs[0]] + [mul(hs[i], inv(hs[i - 1])) for i in range(1, t - 1)],
        "head": [0] + hs[: t - 1],
        "mix": [mul(mul(hs[0], hs[1]), mul(hs[2], hs[3])),
                mul(hs[0], mul(hs[2], hs[3])),
                mul(hs[1], mul(hs[2], hs[3]))]
               + [mul(hs[i], step) for i in range(2, t)],
    }
    want = {"full": t + 1, "skew": t + 1, "diffs": t + 1,
            "diffs_cut": t, "head": t, "mix": t + 1}
    for name, elems in sets.items():
        if len(set(elems)) != want[name]:
            raise GroupError(
                f"connection set {name!r} degenerated ({len(set(elems))} "
                f"distinct of {want[name]}) for group {g.label}")
    return sets


def _high_rank(g: Group, parts: int, kind: str) -> dict:
    s = _spanning_sets(g)
    if parts == 3:
        return {(1, 2): s["full"], (1, 3): s["skew"],
                (2, 3): s["diffs" if kind == "hgr" else "diffs_cut"]}
    return {(1, 2): s["full"], (1, 4): s["full"],
            (3, 4): s["full" if kind == "hgr" else "head"],
            (1, 3): s["skew"], (2, 3): s["diffs"], (2, 4): s["mix"]}


def _generic(group: Group, parts: int, kind: str) -> tuple[ConnectionMatrix, str]:
    """The rank dispatch shared by witnesses ("hgr") and bases ("base")."""
    t = len(minimal_generating_set(group))
    if t >= 4:
        return ConnectionMatrix(group, parts, _high_rank(group, parts, kind)), f"rank-{t}"
    if t == 3:
        gens = triple_with_order_ge3(group)
    else:
        x, y = pair_with_order_ge4(group)
        # cyclic: the cube is independent enough of x
        gens = (x, group.power(x, 3) if y == 0 else y)
    recipe = _WORD_RECIPES[(len(gens), kind, parts)]
    blocks = word_blocks(group, dict(zip("xyz", gens)), recipe)
    return ConnectionMatrix(group, parts, blocks), f"{len(gens)}-generated"


def generic_hgr(group: Group, m: int) -> tuple[ConnectionMatrix, str]:
    """Rank-dispatched witness at m = 3 or 4 for groups outside the catalog."""
    if m not in (3, 4):
        raise ValueError(f"generic recipes cover m in (3, 4), got {m}")
    return _generic(group, m, "hgr")


def generic_base(group: Group, parts: int) -> tuple[ConnectionMatrix, str]:
    """Rank-dispatched chain-extension base on 3 or 4 parts."""
    if parts not in (3, 4):
        raise ValueError(f"generic bases have 3 or 4 parts, got {parts}")
    return _generic(group, parts, "base")


# -- the decision procedure ----------------------------------------------------


class SynthesisResult(NamedTuple):
    group: Group
    m: int
    exists: bool
    route: str
    matrix: Optional[ConnectionMatrix] = None
    clause: Optional[str] = None
    verdict: Optional[Verdict] = None

    def __str__(self) -> str:
        head = f"{self.group.label} m={self.m}: "
        if not self.exists:
            return head + f"no witness exists (classification clause {self.clause})"
        v = "" if self.verdict is None else f", |Aut|={self.verdict.aut_order}"
        return head + f"witness via {self.route}{v}"


def _catalog_witness(tag: str, group: Group, m: int, seed: int) -> tuple[ConnectionMatrix, str]:
    direct = entries(tag=tag, m=m, kind="hgr")
    if direct:
        return build_entry(direct[0], group), f"catalog entry [{direct[0]}]"
    if tag in ("C1", "C2"):
        # beyond the recorded range (so m >= 10): copies of an asymmetric
        # regular template carry exactly Sym(|G|) = |G| symmetries
        template = asymmetric_regular_graph(m, seed=seed)
        return (matrix_from_graph(group, template),
                f"asymmetric 4-regular template (seed={seed})")
    for entry in entries(tag=tag, kind="pgsr"):
        try:  # lift_base refuses a base whose shape does not extend to m
            return (lift_base(build_entry(entry, group), m),
                    f"chain extension of catalog base [{entry}]")
        except LiftError:
            continue
    raise GroupError(f"no usable chain-extension base for {tag} toward m={m}")


def _generic_witness(group: Group, m: int) -> tuple[ConnectionMatrix, str]:
    if m in (3, 4):
        cm, label = generic_hgr(group, m)
        return cm, f"generic {label} recipe"
    parts = 3 if m % 2 else 4
    base, label = generic_base(group, parts)
    return (lift_base(base, m),
            f"chain extension of generic {label} {parts}-part base")


def synthesize(group: Group, m: int, verify: bool = True, seed: int = 0) -> SynthesisResult:
    """Decide existence for (group, m) and construct a witness if any.

    verify=True re-checks the witness with the automorphism engine and
    raises SynthesisError if it fails (which would be an internal bug);
    the result's verdict keeps the evidence, so its certificate does
    not run the engine again.
    seed only affects the template route for groups of order 1 and 2.
    """
    clause = nonexistence_clause(group, m)
    if clause is not None:
        return SynthesisResult(group, m, False,
                               f"classification clause ({clause})", clause=clause)
    check_vertex_cap(m * group.order)  # before any route builds a part
    tag = identify_catalog_group(group)
    if tag is not None:
        cm, route = _catalog_witness(tag, group, m, seed)
    else:
        cm, route = _generic_witness(group, m)
    verdict = None
    if verify:
        verdict = is_m_hgr(cm)
        if not verdict:
            raise SynthesisError(
                f"synthesized witness for {group.label}, m={m} via {route} "
                f"failed verification: {verdict.reason}")
    return SynthesisResult(group, m, True, route, matrix=cm, verdict=verdict)
