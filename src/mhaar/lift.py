"""Chain extension: grow a small PGSR base into an m-part witness.

A base on b parts (b in {3, 4, 5}) with valency pattern
(k+1, ..., k+1, k, ..., k) — b-2 parts of valency k+1, two of valency k
— extends to any m >= b+2 of the parity of b by appending a chain of
parts:

  - {1}-links at (i, i+2) for b-1 <= i <= m-2,
  - a filler block M of size k-1 at (i, i+1) for i = b+1, b+3, ..., m-3,
  - a filler block N of size k at (m-1, m).

The two base parts of valency k each pick up one {1}-link, the chain
parts total k+1 each, so the result is (k+1)-regular.  No chain block
pair closes a triangle, so all triangles stay inside the base parts;
together with the {1}-links this pins every automorphism to the base,
and the extension inherits |Aut| = |G|.

Base requirements checked here: diagonal-free, the valency pattern for
some k with 2 <= k <= |G|, a triangle through every base vertex, and
|Aut| = |G|.  The fillers are the lexicographically least subsets of
G of their size.  plan_lift's relax_fillers=True waives k <= |G| and
clamps the filler sizes to |G|; the base merged with that chain loses
regularity but keeps |Aut| = |G| for the bases shipped in the catalog.
"""

from __future__ import annotations

from typing import NamedTuple

from .autos import extra_automorphism
from .cayley import ConnectionMatrix, build_graph
from .graphs import Graph


class LiftError(ValueError):
    pass


def min_target_parts(base_parts: int) -> int:
    return base_parts + 2


def triangle_profile(graph: Graph, n: int) -> tuple[str, ...]:
    """Which vertices of each n-vertex part lie on 3-cycles: 'all', 'none', 'mixed'.

    The extension works because triangles exist through every base
    vertex and through no chain vertex: plan_lift requires 'all' on
    every part of the base graph, and a lift reads 'none' on its chain
    parts.
    """
    out = []
    for base in range(0, graph.n, n):
        flags = [graph.triangle_count(v) > 0 for v in range(base, base + n)]
        out.append("all" if all(flags) else "none" if not any(flags) else "mixed")
    return tuple(out)


class LiftPlan(NamedTuple):
    """Resolved parameters of a chain extension."""

    k: int
    chain: dict[tuple[int, int], frozenset[int]]  # the blocks the chain adds
    graph: Graph  # the base graph, built once for the triangle and PGSR checks


def plan_lift(base: ConnectionMatrix, m: int,
              relax_fillers: bool = False) -> LiftPlan:
    """Validate the base shape and the target m, and lay out the chain.

    The fillers are the lexicographically least subsets of sizes k-1
    and k, clamped to |G| when relax_fillers waives k <= |G|.  Every
    violated hypothesis is reported by name; the part count and the
    target m come first, before the base graph is built.
    """
    b = base.m
    if b not in (3, 4, 5):
        raise LiftError(f"base must have 3, 4, or 5 parts, got {b}")
    least = min_target_parts(b)
    if m < least:
        raise LiftError(f"a {b}-part base extends to m >= {least}, got m={m}")
    if m % 2 != b % 2:
        raise LiftError(
            f"a {b}-part base extends to {'odd' if b % 2 else 'even'} m only, "
            f"got m={m}")
    for i in range(1, b + 1):
        if base.block(i, i):
            raise LiftError(f"base violates the empty-diagonal hypothesis at part {i}")
    val = base.valencies()
    k = val[-1]
    if val != (k + 1,) * (b - 2) + (k, k):
        raise LiftError(
            f"base valencies {val} do not match the required pattern "
            f"(k+1 on the first {b - 2} parts, k on the last two)")
    if k < 2:
        raise LiftError(f"base violates the hypothesis k >= 2 (k={k})")
    n = base.group.order
    if k > n and not relax_fillers:
        raise LiftError(f"base violates the hypothesis k <= |G| (k={k}, |G|={n})")
    graph = build_graph(base)
    bad = [i + 1 for i, p in enumerate(triangle_profile(graph, n)) if p != "all"]
    if bad:
        raise LiftError(
            "base violates the triangle hypothesis: parts "
            f"{bad} have vertices on no 3-cycle")
    # k <= n unless relaxed, so the clamp only bites on relaxed bases
    chain = {(i, i + 2): frozenset([0]) for i in range(b - 1, m - 1)}
    small = frozenset(range(min(k - 1, n)))
    chain.update({(i, i + 1): small for i in range(b + 1, m - 2, 2)})
    chain[(m - 1, m)] = frozenset(range(min(k, n)))
    return LiftPlan(k, chain, graph)


def lift_base(base: ConnectionMatrix, m: int) -> ConnectionMatrix:
    """Extend a 3/4/5-part PGSR base to an m-part connection matrix.

    plan_lift checks the base's shape, its triangles and the target m;
    the base must also have |Aut| equal to the group order, which the
    engine's decision mode answers without computing the order.
    """
    plan = plan_lift(base, m)
    if extra_automorphism(plan.graph, base.group.order) is not None:
        raise LiftError(f"base is not a PGSR: |Aut| > |G| = {base.group.order}")
    blocks = {(i, j): s for i, j, s in base.upper_items()}
    return ConnectionMatrix(base.group, m, {**blocks, **plan.chain})
