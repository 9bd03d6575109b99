"""Graph interchange formats: graph6 and a plain edge-list text format.

graph6 follows the McKay encoding: N(n) header then the upper triangle
packed column-by-column (x[k] runs over pairs (u,v), v>u, ordered by v
then u), six bits per printable byte, offset 63.
"""

from __future__ import annotations

import binascii

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
    """Return (n, bytes consumed); each byte of n must be a graph6 byte."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        digits, used = data[:1], 1
    elif len(data) >= 2 and data[1] != 126:
        digits, used = data[1:4], 4
    else:
        digits, used = data[2:8], 8
    if len(data) < used:
        raise ValueError("truncated graph6 header")
    n = 0
    for byte in digits:
        if not 63 <= byte <= 126:
            raise ValueError(f"bad graph6 byte {byte}")
        n = n << 6 | byte - 63
    return n, used


# graph6 writes each 6-bit chunk w as the byte w + 63, where base64 writes
# the w-th letter of its alphabet
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)


def to_graph6(g: Graph) -> str:
    # column v holds bits u = 0..v-1 of row v (the adjacency is symmetric),
    # lowest u first
    body = "".join(format(g.bits[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                   for v in range(1, g.n))
    chars = -(-len(body) // 6)
    # base64 packs whole 3-byte groups; the padding bits are zero
    body += "0" * (-len(body) % 24)
    packed = int(body or "0", 2).to_bytes(len(body) // 8, "big")
    return _encode_n(g.n).decode("ascii") + binascii.b2a_base64(
        packed, newline=False)[:chars].translate(_TO_GRAPH6).decode("ascii")


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
    # base64 decoding skips bytes outside its alphabet, so check them first
    bad = body.translate(None, _GRAPH6)
    if bad:
        raise ValueError(f"bad graph6 byte {bad[0]}")
    b64 = body.translate(_FROM_GRAPH6) + b"A" * (-len(body) % 4)
    stream = format(int.from_bytes(binascii.a2b_base64(b64), "big"),
                    f"0{len(b64) * 6}b")
    if "1" in stream[need:]:
        raise ValueError("graph6 padding bits not zero")
    # row v of this n x n square holds column v of the body reversed and
    # padded, so int(row, 2) has bit u set for each neighbour u < v; the
    # square's column holding bit v of every row, read bottom up, has bit
    # w set for each neighbour w > v
    square = "".join(stream[v * (v - 1) // 2 : v * (v + 1) // 2][::-1].rjust(n, "0")
                     for v in range(n))
    bits = [int(square[v * n : (v + 1) * n], 2)
            | int(square[n - 1 - v :: n][::-1], 2) for v in range(n)]
    return Graph(n, bits)


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
        if not g.add_edge(u, v):
            raise ValueError(f"edge line {ln!r} repeats an edge")
    if g.edge_count() != m:
        raise ValueError(f"header claims {m} edges, file has {g.edge_count()}")
    return g
