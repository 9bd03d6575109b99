"""Chain extension: grow a small PGSR base into an m-part witness.

A base on b parts (b in {3, 4, 5}) with valency pattern
(k+1, ..., k+1, k, ..., k) — b-2 parts of valency k+1, two of valency k
— extends to any m of the right parity by appending a chain of parts:

  - {1}-links at (i, i+2) for b-1 <= i <= m-2,
  - a filler block M of size k-1 at (i, i+1) for every i of the same
    parity as b+1 with b+1 <= i <= m-3,
  - a filler block N of size k at (m-1, m).

The two base parts of valency k each pick up one {1}-link, the chain
parts total k+1 each, so the result is (k+1)-regular.  No chain block
pair closes a triangle, so all triangles stay inside the base parts;
together with the {1}-links this pins every automorphism to the base,
and the extension inherits |Aut| = |G|.

Base requirements checked here: diagonal-free, the valency pattern for
some k with 2 <= k <= |G|, a triangle through every base vertex, and
|Aut| = |G|.  The fillers are the lexicographically least subsets of
G of their size.  relax_fillers=True waives k <= |G| and clamps the
filler sizes to |G|; the result then loses regularity but keeps
|Aut| = |G| for the bases shipped in the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .autos import automorphism_group
from .cayley import CayleyError, ConnectionMatrix, build_graph
from .graphs import Graph


class LiftError(ValueError):
    pass


VALID_BASE_PARTS = (3, 4, 5)


def min_target_parts(base_parts: int) -> int:
    return {3: 5, 4: 6, 5: 7}[base_parts]


def chain_filler_layout(base_parts: int, m: int) -> dict:
    """Block positions of the chain, without any group content.

    Returns {"one_links": [(i, i+2), ...], "small_fillers": [(i, i+1), ...],
    "large_filler": (m-1, m)} with the base untouched at parts 1..base_parts.
    """
    if base_parts not in VALID_BASE_PARTS:
        raise LiftError(f"base must have 3, 4, or 5 parts, got {base_parts}")
    lo = min_target_parts(base_parts)
    if m < lo:
        raise LiftError(f"a {base_parts}-part base extends to m >= {lo}, got m={m}")
    if m % 2 != lo % 2:
        raise LiftError(
            f"a {base_parts}-part base extends to {'odd' if lo % 2 else 'even'} m only, "
            f"got m={m}")
    small = [(i, i + 1) for i in range(base_parts + 1, m - 2)
             if i % 2 == (base_parts + 1) % 2]
    links = [(i, i + 2) for i in range(base_parts - 1, m - 1)]
    return {"one_links": links, "small_fillers": small, "large_filler": (m - 1, m)}


def _pattern_k(valencies: tuple[int, ...]) -> Optional[int]:
    """k such that valencies == (k+1,)*(b-2) + (k,)*2, or None."""
    b = len(valencies)
    k = valencies[-1]
    if valencies == (k + 1,) * (b - 2) + (k, k):
        return k
    return None


def triangle_profile(graph: Graph, n: int) -> tuple[str, ...]:
    """Which vertices of each n-vertex part lie on 3-cycles: 'all', 'none', 'mixed'.

    The extension works because triangles exist through every base
    vertex and through no chain vertex: plan_lift requires 'all' on
    every part of the base graph, and a lift reads 'none' on its chain
    parts.
    """
    out = []
    for base in range(0, graph.n, n):
        flags = [graph.on_triangle(v) for v in range(base, base + n)]
        out.append("all" if all(flags) else "none" if not any(flags) else "mixed")
    return tuple(out)


@dataclass
class LiftPlan:
    """Resolved parameters of a chain extension."""

    k: int
    filler_small: frozenset[int]
    filler_large: frozenset[int]
    layout: dict  # chain_filler_layout(base parts, m)
    graph: Graph  # the base graph, built once for the triangle and PGSR checks


def plan_lift(base: ConnectionMatrix, m: int,
              relax_fillers: bool = False) -> LiftPlan:
    """Validate the base shape and resolve the filler sets.

    The fillers are the lexicographically least subsets of sizes k-1
    and k, clamped to |G| when relax_fillers waives k <= |G|.  Every
    violated hypothesis is reported by name; the part count and the
    target m come first, before the base graph is built.
    """
    b = base.m
    layout = chain_filler_layout(b, m)
    for i in range(1, b + 1):
        if base.block(i, i):
            raise LiftError(f"base violates the empty-diagonal hypothesis at part {i}")
    k = _pattern_k(base.valencies())
    if k is None:
        raise LiftError(
            f"base valencies {base.valencies()} do not match the required pattern "
            f"(k+1 on the first {b - 2} parts, k on the last two)")
    if k < 2:
        raise LiftError(f"base violates the hypothesis k >= 2 (k={k})")
    n = base.group.order
    if k > n and not relax_fillers:
        raise LiftError(
            f"base violates the hypothesis k <= |G| (k={k}, |G|={n}); "
            "pass relax_fillers=True to clamp the filler sizes instead")
    graph = build_graph(base)
    bad = [i + 1 for i, p in enumerate(triangle_profile(graph, n)) if p != "all"]
    if bad:
        raise LiftError(
            "base violates the triangle hypothesis: parts "
            f"{bad} have vertices on no 3-cycle")
    # k <= n unless relaxed, so the clamp only bites on relaxed bases
    return LiftPlan(k, frozenset(range(min(k - 1, n))), frozenset(range(min(k, n))),
                    layout, graph)


def lift_base(base: ConnectionMatrix, m: int,
              relax_fillers: bool = False) -> ConnectionMatrix:
    """Extend a 3/4/5-part PGSR base to an m-part connection matrix.

    plan_lift checks the base's shape, its triangles and the target m;
    the base must also have |Aut| equal to the group order.
    """
    plan = plan_lift(base, m, relax_fillers)
    aut = automorphism_group(plan.graph)
    if aut.order != base.group.order:
        raise LiftError(
            f"base is not a PGSR: |Aut|={aut.order}, group order "
            f"{base.group.order}")
    layout = plan.layout
    blocks: dict[tuple[int, int], frozenset[int]] = {}
    for i, j, s in base.upper_items():
        blocks[(i, j)] = s
    for pos in layout["one_links"]:
        blocks[pos] = frozenset([0])
    for pos in layout["small_fillers"]:
        blocks[pos] = plan.filler_small
    blocks[layout["large_filler"]] = plan.filler_large
    try:
        return ConnectionMatrix(base.group, m, blocks)
    except CayleyError as exc:  # pragma: no cover - layout never collides
        raise LiftError(f"internal layout conflict: {exc}") from exc
