import random

import pytest

from mhaar.formats import from_edgelist, from_graph6, to_edgelist, to_graph6
from mhaar.graphs import Graph


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert g.edge_count() == 3
    assert g.bits[1] == 0b101  # neighbours 0 and 2
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    with pytest.raises(ValueError):
        g.add_edge(2, 2)
    with pytest.raises(ValueError):
        g.add_edge(0, 4)


def test_connectivity_and_regularity():
    def degrees(g):
        return {g.degree(v) for v in range(g.n)}

    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert path.is_connected() and degrees(path) == {1, 2}
    two_pieces = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not two_pieces.is_connected() and degrees(two_pieces) == {1}
    assert petersen().is_connected() and degrees(petersen()) == {3}


def test_on_triangle():
    # a vertex lies on a triangle exactly when triangle_count(v) > 0
    tri_plus_tail = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert [tri_plus_tail.triangle_count(v) for v in range(4)] == [1, 1, 1, 0]
    assert not any(petersen().triangle_count(v) for v in range(10))  # girth 5


def test_graph6_known_encodings():
    # tiny cases decodable by hand from the format definition
    k2 = Graph.from_edges(2, [(0, 1)])
    assert to_graph6(k2) == "A_"
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert to_graph6(k3) == "Bw"
    empty5 = Graph(5)
    assert to_graph6(empty5) == "D??"


def test_graph6_round_trip_random():
    rng = random.Random(11)
    for n in (1, 2, 5, 17, 40, 63, 70):
        g = random_graph(n, 0.4, rng)
        h = from_graph6(to_graph6(g))
        assert h.n == g.n and h.bits == g.bits


def _to_graph6_per_bit(g: Graph) -> str:
    """The encoder before whole columns: one bit per vertex pair."""
    bits = []
    for v in range(g.n):
        for u in range(v):
            bits.append(g.bits[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    n = g.n
    out = bytearray([n + 63] if n <= 62 else
                    [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    for k in range(0, len(bits), 6):
        word = 0
        for b in bits[k : k + 6]:
            word = word << 1 | b
        out.append(word + 63)
    return out.decode("ascii")


def test_graph6_matches_the_per_bit_encoder():
    rng = random.Random(12)
    graphs = [random_graph(n, rng.random(), rng) for n in range(71)]
    graphs.append(random_graph(300, 0.3, rng))
    graphs.append(random_graph(800, 0.005, rng))  # the size of the C2/400 witness
    for g in graphs:
        assert to_graph6(g) == _to_graph6_per_bit(g), g.n


def _from_graph6_per_bit(s: str) -> Graph:
    """The decoder before base64: the same checks in the same order, then
    one bit per vertex pair."""
    data = s.strip().encode("ascii")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if data[0] != 126:
        n, used = data[0] - 63, 1
    else:
        n, used = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    body = data[used:]
    need = n * (n - 1) // 2
    if len(body) != -(-need // 6):
        raise ValueError(f"graph6 body has {len(body)} bytes, "
                         f"{n} vertices need {-(-need // 6)}")
    bits = []
    for byte in body:
        if not 63 <= byte <= 126:
            raise ValueError(f"bad graph6 byte {byte}")
        bits += [(byte - 63) >> k & 1 for k in range(5, -1, -1)]
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


def _decoded(decode, s):
    try:
        return decode(s).bits
    except ValueError as e:
        return str(e)


def test_graph6_decoder_matches_the_per_bit_decoder():
    rng = random.Random(14)
    graphs = [random_graph(n, rng.random(), rng) for n in range(71)]
    graphs += [random_graph(300, 0.3, rng), random_graph(1024, 0.5, rng)]
    for g in graphs:
        text = to_graph6(g)
        assert from_graph6(text).bits == _from_graph6_per_bit(text).bits == g.bits
    # one byte replaced, appended or cut: the same graph or the same message
    for g in graphs[2:71]:
        text = to_graph6(g)
        head = 1 if g.n <= 62 else 4
        k = rng.randrange(head, len(text))
        for bad in (text[:k] + chr(rng.randint(33, 126)) + text[k + 1:],
                    text + chr(rng.randint(33, 126)), text[:-1]):
            assert _decoded(from_graph6, bad) == _decoded(_from_graph6_per_bit, bad), bad


def test_triangle_count_matches_the_definition():
    rng = random.Random(13)
    for n in (1, 3, 12, 30):
        g = random_graph(n, rng.random(), rng)
        for v in range(n):
            assert g.triangle_count(v) == sum(
                g.has_edge(v, a) and g.has_edge(v, b) and g.has_edge(a, b)
                for a in range(n) for b in range(a + 1, n))


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("B")  # truncated body
    with pytest.raises(ValueError, match="bad graph6 byte 40"):
        from_graph6("A(")  # a byte below the printable range, body length right
    with pytest.raises(ValueError, match="has 300000 bytes, 10 vertices need 8"):
        from_graph6("I" + "?" * 300_000)  # zero bits far past what n needs


@pytest.mark.parametrize("text, message", [
    ("A@", "graph6 padding bits not zero"),
    ("~?", "truncated graph6 header"),
    ("~~??", "truncated graph6 header"),
    # a header byte outside 63..126 would decode to a negative or wrong n
    (">?", "bad graph6 byte 62"),
    ("!", "bad graph6 byte 33"),
    ("~?!?", "bad graph6 byte 33"),
    ("~~?@?!??", "bad graph6 byte 33"),  # refused before the cap
])
def test_graph6_names_a_bad_header_or_padding(text, message):
    with pytest.raises(ValueError, match=message):
        from_graph6(text)


def test_graph6_names_a_character_that_is_not_ascii():
    # the Petersen graph with its first body byte 'h' replaced
    with pytest.raises(ValueError, match="graph6 is ASCII, but character 'é' "
                                         "at position 1 is not"):
        from_graph6("IéeA@GUAo")


def test_graph6_reads_the_optional_header():
    g = from_graph6(">>graph6<<A_")
    assert (g.n, g.edge_count()) == (2, 1)


def test_graph6_header_over_the_cap_is_refused_before_the_body():
    from mhaar.graphs import CapacityError, vertex_cap
    n = vertex_cap() + 1
    header = "~" + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    # no body at all: the cap is checked before the body is decoded
    with pytest.raises(CapacityError, match=f"{n} vertices"):
        from_graph6(header)


def test_graph6_long_header_meets_the_cap():
    from mhaar.graphs import CapacityError
    # "~~" and six bytes declare 2^24 vertices; the cap refuses them
    # before the one body byte is read
    with pytest.raises(CapacityError, match="16777216 vertices"):
        from_graph6("~~?@?????")


def test_edgelist_round_trip():
    g = petersen()
    text = to_edgelist(g)
    assert text.startswith("p 10 15")
    h = from_edgelist(text)
    assert h.bits == g.bits
    with pytest.raises(ValueError):
        from_edgelist("1 2\n")  # missing header


def test_edgelist_rejects_hostile_headers_and_lines(monkeypatch):
    from mhaar.graphs import CapacityError
    for text in ("p -3 0\n", "p 3\n", "p x 0\n"):
        with pytest.raises(ValueError, match="malformed header"):
            from_edgelist(text)
    with pytest.raises(CapacityError, match="99999999999 vertices"):
        from_edgelist("p 99999999999 0\n")
    for line in ("1", "1 2 3", "a b"):
        with pytest.raises(ValueError, match=f"malformed edge line '{line}'"):
            from_edgelist(f"p 3 1\n{line}\n")
    monkeypatch.setenv("MHAAR_MAX_VERTICES", "10")
    assert from_edgelist(to_edgelist(petersen())).n == 10
    with pytest.raises(CapacityError):
        from_edgelist("p 11 0\n")


def test_edgelist_names_a_wrong_edge_count():
    with pytest.raises(ValueError, match="header claims 2 edges, file has 1"):
        from_edgelist("p 3 2\n0 1\n")
