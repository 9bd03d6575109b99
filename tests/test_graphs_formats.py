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
    assert sorted(g.neighbors(1)) == [0, 2]
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
    tri_plus_tail = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert all(tri_plus_tail.on_triangle(v) for v in (0, 1, 2))
    assert not tri_plus_tail.on_triangle(3)
    assert not any(petersen().on_triangle(v) for v in range(10))  # girth 5


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


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("B")  # truncated body
    with pytest.raises(ValueError):
        from_graph6("A" + chr(30))  # character below the printable range


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
