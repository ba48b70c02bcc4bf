"""Graph model and stabilizer generators."""

import pytest

from ocws import (
    Graph,
    adjacency_lines,
    edges,
    format_pauli,
    from_adjacency,
    ring_graph,
    stabilizer_generator,
)


def test_ring_graph_edges():
    g = ring_graph(5)
    assert edges(g) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_ring_graph_rows_are_symmetric_neighbors():
    g = ring_graph(4)
    assert g.rows == (0b1010, 0b0101, 0b1010, 0b0101)


def test_ring_needs_three_vertices():
    with pytest.raises(ValueError):
        ring_graph(2)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        Graph(3, (0b010, 0b011, 0b010))


def test_graph_rejects_asymmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, (0b010, 0b000, 0b000))


def test_from_adjacency_strings():
    g = from_adjacency(["011", "101", "110"])
    assert g == ring_graph(3)
    assert adjacency_lines(g) == ["011", "101", "110"]


def test_from_adjacency_int_rows():
    g = from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert edges(g) == [(1, 2), (2, 3)]


def test_from_adjacency_rejects_non_square():
    with pytest.raises(ValueError, match="row 2"):
        from_adjacency(["011", "10", "110"])


def test_from_adjacency_rejects_bad_entry():
    with pytest.raises(ValueError, match=r"entry '2' at \(1,2\)"):
        from_adjacency(["021", "201", "110"])
    with pytest.raises(ValueError, match=r"entry 2 at \(2,3\)"):
        from_adjacency([[0, 1, 0], [1, 0, 2], [0, 1, 0]])
    with pytest.raises(ValueError, match=r"entry 'a' at \(1,2\)"):
        from_adjacency(["0a1", "101", "110"])


def test_stabilizer_generator_is_x_at_vertex_z_on_neighbors():
    g = ring_graph(5)
    assert format_pauli(stabilizer_generator(g, 1)) == "XZIIZ"
    assert format_pauli(stabilizer_generator(g, 3)) == "IZXZI"
    assert format_pauli(stabilizer_generator(g, 5)) == "ZIIZX"


def test_stabilizer_generator_index_range():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        stabilizer_generator(g, 0)
    with pytest.raises(ValueError):
        stabilizer_generator(g, 5)


def test_adjacency_round_trip():
    g = ring_graph(6)
    assert from_adjacency(adjacency_lines(g)) == g
