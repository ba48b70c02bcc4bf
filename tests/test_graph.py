"""Graph model, stabilizer generators and block-keeping automorphisms."""

import time

import pytest

from ocws import graph as graph_module
from ocws import (
    Graph,
    adjacency_lines,
    automorphism_generators,
    edges,
    format_pauli,
    from_adjacency,
    ring_graph,
    stabilizer_generator,
)
from conftest import (
    RING9_SHUFFLE,
    complete_minus_matching,
    load_workloads,
    read_graph_file,
    relabeled,
    symmetric_searches,
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


def test_graph_rejects_bad_size_and_rows():
    for n, rows, message in (
        (0, (), "graph needs at least one vertex, got n=0"),
        (3, (0b010, 0b101), "adjacency has 2 rows, expected 3"),
        (2, (0b010, 0b100), "adjacency row 2 out of range for n=2"),
        (2, (-1, 0), "adjacency row 1 out of range for n=2"),
    ):
        with pytest.raises(ValueError) as info:
            Graph(n, rows)
        assert str(info.value) == message


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


def _is_block_automorphism(graph, s, p):
    """p permutes the vertices, keeps the adjacency and maps bits 0..s-1 among themselves."""
    n = graph.n
    if sorted(p) != list(range(n)) or sorted(p[:s]) != list(range(s)):
        return False
    return all(
        graph.rows[p[v]] == sum(1 << p[u] for u in range(n) if row >> u & 1)
        for v, row in enumerate(graph.rows)
    )


def _group_order(generators, n):
    """Size of the permutation group the generators make, by closure."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[i]] for i in range(n))
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return len(seen)


def _union_of_cycles(*lengths):
    """Disjoint cycles on consecutive vertices, the last cycle holding the last vertex."""
    rows, start = [], 0
    for length in lengths:
        for i in range(length):
            rows.append(1 << start + (i - 1) % length | 1 << start + (i + 1) % length)
        start += length
    return Graph(start, tuple(rows))


def test_automorphism_generators_keep_the_graph_and_the_gauge_block(tmp_path, monkeypatch):
    for graph, r, _d in symmetric_searches(tmp_path):
        for p in automorphism_generators(graph, graph.n - r):
            assert _is_block_automorphism(graph, graph.n - r, p), (graph, r, p)
    # a search cut at its node limit, on the base path (3) or past it (20),
    # returns a subgroup of the generators
    graph = _union_of_cycles(6, 3, 3)
    for nodes in (3, 20):
        monkeypatch.setattr(graph_module, "_AUTOMORPHISM_NODES", nodes)
        for s in (12, 11):
            generators = automorphism_generators(graph, s)
            assert all(_is_block_automorphism(graph, s, p) for p in generators), (nodes, s)


def test_automorphism_group_orders(tmp_path):
    for n in range(5, 13):
        assert _group_order(automorphism_generators(ring_graph(n), n), n) == 2 * n
    for n in range(9, 13):
        # the reflection through the gauge qubit
        assert _group_order(automorphism_generators(ring_graph(n), n - 1), n) == 2
    ring9 = read_graph_file(tmp_path, relabeled(ring_graph(9), RING9_SHUFFLE))
    assert ring9 != ring_graph(9)
    assert _group_order(automorphism_generators(ring9, 9), 9) == 18
    # 2^(n/2) (n/2)! for K_n minus a perfect matching, then a vertex's stabilizer
    for n, r, order in ((6, 0, 48), (6, 1, 8), (8, 0, 384), (8, 1, 48)):
        assert _group_order(automorphism_generators(complete_minus_matching(n), n - r), n) == order
    # cycles of equal length trade places, so maps onto some first leaves
    # fail on a refinement trace; then a gauge vertex on a C3 and on a C4
    for graph, order, gauge_order in (
        (_union_of_cycles(6, 3, 3), 864, 144), (_union_of_cycles(4, 4, 4), 3072, 256)
    ):
        assert _group_order(automorphism_generators(graph, 12), 12) == order
        assert _group_order(automorphism_generators(graph, 11), 12) == gauge_order
    # 4-regular graphs with 1 and 4 automorphisms (counted by networkx) whose
    # search reaches a leaf that is no automorphism, and a level whose every child fails
    for lines, order in (
        (["0100100011", "1000001101", "0001110100", "0010100110", "1011010000",
          "0010101010", "0100010101", "0111001000", "1001010001", "1100001010"], 1),
        (["0100011010", "1010000011", "0100110001", "0000110110", "0011000101",
          "1011001000", "1000010101", "0001101010", "1101000100", "0110101000"], 4),
    ):
        graph = from_adjacency(lines)
        assert _group_order(automorphism_generators(graph, 10), 10) == order
        assert _group_order(automorphism_generators(graph, 9), 10) == 1
    workloads = load_workloads()
    for seed, _K in workloads.GNP_BASES:
        graph = Graph(10, workloads.gnp_rows(10, seed))
        assert _group_order(automorphism_generators(graph, 9), 10) == 1, seed


def _orbit(generators, v):
    orbit, frontier = {v}, [v]
    while frontier:
        u = frontier.pop()
        for p in generators:
            if p[u] not in orbit:
                orbit.add(p[u])
                frontier.append(p[u])
    return orbit


def test_automorphism_generators_of_highly_symmetric_graphs_are_quick():
    """S_25 and S_12 x S_13 sized groups come back as generators, not listed."""
    n = 25
    empty = Graph(n, (0,) * n)
    left = (1 << 12) - 1
    bipartite = Graph(n, tuple(((1 << n) - 1) ^ left if v < 12 else left for v in range(n)))
    for graph, s, orbits in (
        (empty, 25, [set(range(25))]),
        (empty, 20, [set(range(20)), set(range(20, 25))]),
        (bipartite, 25, [set(range(12)), set(range(12, 25))]),
        (bipartite, 20, [set(range(12)), set(range(12, 20)), set(range(20, 25))]),
    ):
        start = time.perf_counter()
        generators = automorphism_generators(graph, s)
        assert time.perf_counter() - start < 1.0
        assert all(_is_block_automorphism(graph, s, p) for p in generators)
        assert [_orbit(generators, min(o)) for o in orbits] == orbits


def test_automorphism_generators_check_the_block_size():
    with pytest.raises(ValueError, match="word block size s=0"):
        automorphism_generators(ring_graph(5), 0)
