"""Graph interchange formats: graph6 and a plain edge-list text format.

graph6 follows the McKay encoding: N(n) header then the upper triangle
packed column-by-column (x[k] runs over pairs (u,v), v>u, ordered by v
then u), six bits per printable byte, offset 63.
"""

from __future__ import annotations

from .graphs import Graph, check_vertex_cap


def _encode_n(n: int) -> bytes:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes(
            [126, 126]
            + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
        )
    raise ValueError("vertex count too large for graph6")


def _decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    if len(data) < 8:
        raise ValueError("truncated graph6 header")
    n = 0
    for k in range(2, 8):
        n = (n << 6) | (data[k] - 63)
    return n, 8


# the printable byte of each 6-bit chunk, keyed by its binary digits
_SIX_BITS = {format(w, "06b"): chr(w + 63) for w in range(64)}


def to_graph6(g: Graph) -> str:
    # column v holds bits u = 0..v-1 of row v (the adjacency is symmetric),
    # lowest u first
    body = "".join(format(g.bits[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                   for v in range(1, g.n))
    body += "0" * (-len(body) % 6)
    return _encode_n(g.n).decode("ascii") + "".join(
        _SIX_BITS[body[k : k + 6]] for k in range(0, len(body), 6))


def from_graph6(s: str) -> Graph:
    """Parse one graph6 string; n is checked against the vertex cap, and
    the body's length against n, before the body is decoded."""
    try:
        data = s.strip().encode("ascii")
    except UnicodeEncodeError as e:
        raise ValueError(f"graph6 is ASCII, but character {e.object[e.start]!r} "
                         f"at position {e.start} is not") from None
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, used = _decode_n(data)
    check_vertex_cap(n)
    body = data[used:]
    need = n * (n - 1) // 2
    if len(body) != -(-need // 6):
        raise ValueError(f"graph6 body has {len(body)} bytes, "
                         f"{n} vertices need {-(-need // 6)}")
    bits: list[int] = []
    for byte in body:
        if not 63 <= byte <= 126:
            raise ValueError(f"bad graph6 byte {byte}")
        word = byte - 63
        for k in range(5, -1, -1):
            bits.append(word >> k & 1)
    if any(bits[need:]):
        raise ValueError("graph6 padding bits not zero")
    g = Graph(n)
    k = 0
    for v in range(n):
        for u in range(v):
            if bits[k]:
                g.add_edge(u, v)
            k += 1
    return g


def to_edgelist(g: Graph) -> str:
    """'p <n> <m>' header then one 'u v' line per edge, u < v, sorted."""
    lines = [f"p {g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_edgelist(text: str) -> Graph:
    """Parse 'p <n> <m>' then one 'u v' line per edge.

    n is checked against the vertex cap before the graph is allocated.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("p "):
        raise ValueError("edge list must start with a 'p <n> <m>' line")
    parts = lines[0].split()
    if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
        raise ValueError(f"malformed header {lines[0]!r}: "
                         "n and m must be nonnegative integers")
    n, m = int(parts[1]), int(parts[2])
    check_vertex_cap(n)
    g = Graph(n)
    for ln in lines[1:]:
        try:
            us, vs = ln.split()
            u, v = int(us), int(vs)
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        g.add_edge(u, v)
    if g.edge_count() != m:
        raise ValueError(f"header claims {m} edges, file has {g.edge_count()}")
    return g
