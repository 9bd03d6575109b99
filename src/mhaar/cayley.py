"""Connection matrices over a finite group and the graphs they define.

A connection matrix over a group G with m parts assigns a subset
T[i][j] of G to every ordered pair of parts, subject to T[j][i] being
the elementwise inverse of T[i][j] and the diagonal sets avoiding the
identity.  The derived graph has vertex set G x {1..m}; the neighbours
of (g, i) in part j are (t*g, j) for t in T[i][j].

Only the upper triangle and the diagonal are stored, in one mapping; the
lower triangle is derived.  Vertex (g, i) maps to index (i-1)*|G| + g.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Union

from .graphs import CapacityError, Graph, check_vertex_cap
from .groups import Group, GroupError, parse_group_spec, read_json

if TYPE_CHECKING:
    from .autos import Evidence

class CayleyError(ValueError):
    pass


class ConnectionMatrix:
    """The block sets T[i][j], kept in one store keyed (i, j), i <= j.

    blocks: mapping (i, j) -> subset of G, 1 <= i <= j <= m.  A key
    (i, i) is a diagonal set, which must be inverse-closed and
    identity-free.  Missing blocks are empty; the lower triangle is
    always T[i][j] inverted.  `entries` writes the blocks as the entry
    list that `from_entries` reads from untrusted input.
    """

    def __init__(self, group: Group, m: int,
                 blocks: Optional[Mapping[tuple[int, int], Iterable[int]]] = None):
        if m < 2:
            raise CayleyError(f"need at least 2 parts, got {m}")
        self.group = group
        self.m = m
        self._blocks: dict[tuple[int, int], frozenset[int]] = {}
        for (i, j), elems in (blocks or {}).items():
            self._set_block(i, j, elems)

    def _set_block(self, i: int, j: int, elems: Iterable[int]) -> None:
        if i == j and not (1 <= i <= self.m):
            raise CayleyError(f"diagonal index {i} out of range for m={self.m}")
        if i != j and not (1 <= i < j <= self.m):
            raise CayleyError(f"block index ({i}, {j}) not in upper triangle of m={self.m}")
        s = frozenset(elems)
        for e in s:
            if not isinstance(e, int) or not (0 <= e < self.group.order):
                raise CayleyError(f"element {e!r} in block ({i}, {j}) not in the group")
        if i == j and 0 in s:
            raise CayleyError(f"identity in diagonal block ({i}, {i})")
        if i == j and self.group.inv_set(s) != s:
            raise CayleyError(f"diagonal block ({i}, {i}) is not inverse-closed")
        if s:
            self._blocks[(i, j)] = s

    # -- access ---------------------------------------------------------

    def block(self, i: int, j: int) -> frozenset[int]:
        """T[i][j] for any pair, lower triangle derived by inversion."""
        if not (1 <= i <= self.m and 1 <= j <= self.m):
            raise CayleyError(f"block index ({i}, {j}) out of range for m={self.m}")
        if i <= j:
            return self._blocks.get((i, j), frozenset())
        return self.group.inv_set(self._blocks.get((j, i), frozenset()))

    def upper_items(self) -> list[tuple[int, int, frozenset[int]]]:
        return sorted((i, j, s) for (i, j), s in self._blocks.items())

    def valencies(self) -> tuple[int, ...]:
        """Row sums of the block sizes, from the stored blocks only.

        |T[j][i]| = |T[i][j]^-1| = |T[i][j]|, so each block above the
        diagonal counts for both of its parts.
        """
        vals = [0] * (self.m + 1)
        for (i, j), s in self._blocks.items():
            vals[i] += len(s)
            if i != j:
                vals[j] += len(s)
        return tuple(vals[1:])

    def is_regular(self) -> bool:
        return len(set(self.valencies())) <= 1

    def diagonal_empty(self) -> bool:
        return all(i != j for i, j in self._blocks)

    def __repr__(self) -> str:
        return (f"ConnectionMatrix({self.group!r}, m={self.m}, "
                f"valencies={self.valencies()})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConnectionMatrix)
                and self.group.table == other.group.table
                and self.m == other.m
                and self._blocks == other._blocks)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        # compact group form only for a grammar spec that reproduces the exact
        # table: a relabeled copy would deserialize incorrectly
        grp: Union[str, dict] = self.group.to_json()
        spec = self.group.descriptor
        if spec:
            try:
                if parse_group_spec(spec).table == self.group.table:
                    grp = spec
            except (GroupError, CapacityError):
                pass
        return {"group": grp, "m": self.m, "entries": self.entries()}

    def entries(self) -> list[dict]:
        """The blocks as the {"i", "j", "elems"} list `from_entries` reads."""
        return [{"i": i, "j": j, "elems": sorted(s)} for i, j, s in self.upper_items()]

    @staticmethod
    def from_json(data: dict) -> "ConnectionMatrix":
        """Parse matrix JSON; a malformed field raises CayleyError naming it.

        m * |G| is checked against the vertex cap before anything is
        built per part.
        """
        if not isinstance(data, dict) or "group" not in data or "m" not in data:
            raise CayleyError("connection matrix JSON needs 'group' and 'm' keys")
        m = data["m"]
        if type(m) is not int:
            raise CayleyError(f"'m' must be an integer, got {m!r}")
        grp = data["group"]
        if isinstance(grp, str):
            group = parse_group_spec(grp)
        elif isinstance(grp, dict):
            group = Group.from_json(grp)
        else:
            raise CayleyError(f"'group' must be a spec string or a table object, got {grp!r}")
        return ConnectionMatrix.from_entries(group, m, data.get("entries", []))

    @staticmethod
    def from_entries(group: Group, m: int, entries: object) -> "ConnectionMatrix":
        """Read a list of {"i", "j", "elems"} entries, as `entries` writes
        them for matrix JSON and witness certificates; an entry with
        i = j is a diagonal block.  A malformed entry raises CayleyError
        naming it.

        m * |G| is checked against the vertex cap before any entry is read.
        """
        check_vertex_cap(m * group.order)
        if not isinstance(entries, list):
            raise CayleyError("'entries' must be a list")
        blocks: dict[tuple[int, int], list[int]] = {}
        for k, e in enumerate(entries):
            if not isinstance(e, dict):
                raise CayleyError(f"entry {k} is not an object")
            i, j, elems = e.get("i"), e.get("j"), e.get("elems")
            if type(i) is not int or type(j) is not int:
                raise CayleyError(f"entry {k}: 'i' and 'j' must be integers")
            if not isinstance(elems, list) or any(type(x) is not int for x in elems):
                raise CayleyError(f"entry {k}: 'elems' must be a list of integers")
            if (i, j) in blocks:
                raise CayleyError(f"block ({i}, {j}) given twice")
            if i > j:
                raise CayleyError(f"entry ({i}, {j}) below the diagonal")
            blocks[(i, j)] = elems
        return ConnectionMatrix(group, m, blocks)


def load_matrix(path: str) -> ConnectionMatrix:
    return ConnectionMatrix.from_json(read_json(path))


# -- the derived graph -----------------------------------------------------


def build_graph(cm: ConnectionMatrix) -> Graph:
    g = cm.group
    n = g.order
    graph = Graph(cm.m * n)
    bits = graph.bits
    for i, j, s in cm.upper_items():
        base_i = (i - 1) * n
        base_j = (j - 1) * n
        for x in range(n):
            u = base_i + x
            for t in s:
                # t != 1 on the diagonal, so u != v always
                v = base_j + g.mul(t, x)
                bits[u] |= 1 << v
                bits[v] |= 1 << u
    return graph


def right_translation(cm: ConnectionMatrix, g: int) -> list[int]:
    """Permutation (h, i) -> (h*g, i) of the vertex set, as an index list.

    This is an automorphism of every derived graph over the group.
    """
    group, m = cm.group, cm.m
    n = group.order
    perm = [0] * (m * n)
    for i in range(m):
        base = i * n
        for h in range(n):
            perm[base + h] = base + group.mul(h, g)
    return perm


# -- structural checks -------------------------------------------------------


class Verdict(NamedTuple):
    """Outcome of a claim or certificate check; a failure names its
    certificate field and the reason, as in Verdict(False, field, reason).

    aut_order is None when no engine ran.  A check that ran the engine
    keeps its evidence for the certificate (see autos.check_claim).
    """

    ok: bool
    field: Optional[str] = None
    reason: str = ""
    aut_order: Optional[int] = None
    evidence: Optional[Evidence] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:  # the line `mhaar reverify` prints
        if self.ok:
            return "certificate verifies"
        return f"certificate fails at {self.field!r}: {self.reason}"


def is_m_haar(cm: ConnectionMatrix) -> Verdict:
    """Empty diagonal plus equal part valencies; names the first violation."""
    for i in range(1, cm.m + 1):
        if cm.block(i, i):
            return Verdict(False, "evidence.diagonal_empty",
                           f"diagonal block ({i}, {i}) is nonempty")
    vals = cm.valencies()
    for i in range(1, cm.m):
        if vals[i] != vals[0]:
            return Verdict(False, "evidence.regular",
                           f"part {i + 1} has valency {vals[i]}, part 1 has {vals[0]}")
    return Verdict(True)
