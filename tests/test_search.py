"""Clique search over candidate word sets."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ocws import (
    CompatibilityGraph,
    Graph,
    SearchConfig,
    SearchError,
    automorphism_generators,
    certify_distance,
    corrects_weight,
    enumerate_paulis,
    find_max_clique,
    forbidden_differences,
    from_adjacency,
    gauge_reduce,
    induce,
    induced_error_set,
    new_code,
    ring_graph,
    search_code,
    write_code_file,
)
from ocws import induction, search
from ocws.induction import induced_images, pauli_images
from ocws.search import _GREEDY_RESTARTS, _shuffle
from conftest import (
    WORDS_8_1,
    WORDS_9_3,
    Clock,
    bits,
    compatible,
    load_workloads,
    random_graph,
    read_graph_file,
    symmetric_searches,
)


def _skeleton(n, r):
    return new_code(ring_graph(n), r, (0,))


def _ring_graph(n, r, d):
    return CompatibilityGraph(n - r, forbidden_differences(_skeleton(n, r), d - 1))


def _weight1_classes(code):
    return [c.bits for c in induced_error_set(code, 1)]


def test_exact_mode_candidate_space_bound():
    for mode in ("exact", "greedy"):
        with pytest.raises(ValueError, match="too large"):
            SearchConfig(ring_graph(26), 1, 3, mode=mode)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(ring_graph(5), 2, 0)
    with pytest.raises(ValueError):
        SearchConfig(ring_graph(5), 5, 3)
    with pytest.raises(ValueError):
        SearchConfig(ring_graph(5), 2, 3, mode="fast")
    with pytest.raises(ValueError):
        SearchConfig(ring_graph(5), 2, 3, time_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(ring_graph(5), 2, 3, target_K=0)
    with pytest.raises(ValueError, match="target distance 7"):
        SearchConfig(ring_graph(5), 1, 7)
    code, _ = search_code(SearchConfig(ring_graph(5), 1, 6))  # d = n + 1 is reachable
    assert (code.K, certify_distance(code)) == (1, 6)


def test_fixture_word_pairs_are_compatible():
    skel8 = _skeleton(8, 1)
    sweep8 = _weight1_classes(skel8)
    a, b = bits(WORDS_8_1[0]), bits(WORDS_8_1[1])
    assert compatible(skel8, a, b, sweep8)
    assert a ^ b not in forbidden_differences(skel8, 2)

    skel9 = _skeleton(9, 1)
    sweep9 = _weight1_classes(skel9)
    forbidden9 = forbidden_differences(skel9, 2)
    words = [bits(w) for w in WORDS_9_3]
    for ci, cj in itertools.combinations(words, 2):
        assert compatible(skel9, ci, cj, sweep9)
        assert ci ^ cj not in forbidden9


def test_constructed_violation_is_incompatible():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    # any single class difference from a valid word is confusable
    violating = bits(WORDS_8_1[1]) ^ sweep[0]
    assert not compatible(skel, bits(WORDS_8_1[1]), violating, sweep)
    assert bits(WORDS_8_1[1]) ^ violating in forbidden_differences(skel, 2)


def test_compatible_is_symmetric_and_needs_distinct_candidates():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    a, b = bits(WORDS_8_1[0]), bits(WORDS_8_1[1])
    assert compatible(skel, a, b, sweep) == compatible(skel, b, a, sweep)
    assert compatible(skel, a, b, sweep) == (a ^ b not in forbidden_differences(skel, 2))
    with pytest.raises(ValueError):
        compatible(skel, a, a, sweep)


def test_forbidden_differences_contains_every_swept_class():
    skel = _skeleton(9, 1)
    forbidden = forbidden_differences(skel, 2)
    for c in induced_error_set(skel, 2):
        if c.bits:
            assert c.bits in forbidden
    assert 0 not in forbidden
    assert forbidden_differences(skel, 0) == frozenset()


def test_forbidden_differences_equal_the_per_pauli_classes():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(4, 9)
        skel = new_code(random_graph(rng, n), rng.randint(0, min(3, n - 1)), (0,))
        assert forbidden_differences(skel, 0) == frozenset()
        for w in range(1, 5):
            classes = {c.bits for c in induced_error_set(skel, w)}
            assert forbidden_differences(skel, w) == classes - {0}
    for w in (-1, 6):
        with pytest.raises(ValueError, match="out of range"):
            forbidden_differences(_skeleton(5, 1), w)


def test_forbidden_differences_stopped_when_full_equal_the_per_pauli_classes():
    """Rings n = 6..9 fill their word space at weight 2 to 4, past which the sweep stops."""
    filled = []
    for n, r, w in itertools.product(range(6, 10), range(3), range(1, 5)):
        skel = _skeleton(n, r)
        forbidden = forbidden_differences(skel, w)
        assert forbidden == {c.bits for c in induced_error_set(skel, w)} - {0}, (n, r, w)
        filled.append(len(forbidden) == (1 << skel.s) - 1)
    assert any(filled) and not all(filled)


def test_forbidden_sweep_draws_no_list_past_the_one_that_fills_the_set(monkeypatch):
    drawn = []

    def recording(*args):
        for chunk in pauli_images(*args):
            drawn.append(chunk[2])
            yield chunk

    monkeypatch.setattr(induction, "pauli_images", recording)
    skel = _skeleton(8, 0)  # full at weight 4
    assert forbidden_differences(skel, 6) == frozenset(range(1, 1 << 8))
    seen = {0}
    for count, images in enumerate(drawn, start=1):
        seen.update(images)
        if len(seen) == 1 << 8:
            break
    assert count == len(drawn) and len(seen) == 1 << 8
    images = induced_images(skel, (1 << 8) - 1)
    assert count < sum(1 for w in range(1, 5) for _ in pauli_images(*images, w))


def test_max_clique_on_complete_graph():
    graph = CompatibilityGraph(3, frozenset())
    clique, complete = find_max_clique(graph, SearchConfig(ring_graph(5), 2, 1))
    assert complete
    assert sorted(clique) == list(range(8))


def test_max_clique_on_edgeless_graph():
    graph = CompatibilityGraph(3, frozenset(range(1, 8)))
    clique, complete = find_max_clique(graph, SearchConfig(ring_graph(5), 2, 1))
    assert complete
    assert len(clique) == 1


def test_max_clique_nine_ring_reaches_eight():
    skel = _skeleton(9, 1)
    config = SearchConfig(ring_graph(9), 1, 3)
    graph = CompatibilityGraph(config.s, forbidden_differences(skel, 2))
    clique, complete = find_max_clique(graph, config)
    assert complete
    assert len(clique) == 8
    assert 0 in clique


def test_budget_exhaustion_flags_incomplete():
    skel = _skeleton(9, 1)
    config = SearchConfig(ring_graph(9), 1, 3, time_budget=1e-9)
    graph = CompatibilityGraph(config.s, forbidden_differences(skel, 2))
    _clique, complete = find_max_clique(graph, config)
    assert not complete


def test_exact_beats_or_matches_greedy():
    skel = _skeleton(9, 1)
    forbidden = forbidden_differences(skel, 2)
    graph = CompatibilityGraph(8, forbidden)
    exact, _ = find_max_clique(graph, SearchConfig(ring_graph(9), 1, 3))
    greedy, _ = find_max_clique(graph, SearchConfig(ring_graph(9), 1, 3, mode="greedy"))
    assert len(exact) >= len(greedy)


def test_greedy_is_deterministic_for_a_seed():
    skel = _skeleton(8, 1)
    forbidden = forbidden_differences(skel, 2)
    graph = CompatibilityGraph(7, forbidden)
    config = SearchConfig(ring_graph(8), 1, 3, mode="greedy", seed=5)
    first, _ = find_max_clique(graph, config)
    second, _ = find_max_clique(graph, config)
    assert first == second


def test_search_code_eight_ring():
    code, complete = search_code(SearchConfig(ring_graph(8), 1, 3))
    assert complete
    assert code.K >= 2
    assert code.claimed_distance == 3
    assert certify_distance(code) == 3
    assert corrects_weight(code, 1)


def test_search_code_nine_ring():
    code, _ = search_code(SearchConfig(ring_graph(9), 1, 3))
    assert code.K >= 8
    assert certify_distance(code) >= 3


def test_search_code_distance_one_keeps_all_candidates():
    code, _ = search_code(SearchConfig(ring_graph(5), 2, 1))
    assert code.K == 8
    assert sorted(code.words) == list(range(8))


def test_search_code_distance_one_returns_every_word_without_deep_recursion():
    # the walk from 0 is already the lex-least maximum clique of 1024 vertices
    code, _ = search_code(SearchConfig(ring_graph(10), 0, 1))
    assert code.words == tuple(range(1 << 10))


def test_search_code_greedy_mode():
    code, complete = search_code(SearchConfig(ring_graph(9), 1, 3, mode="greedy"))
    assert code.K == 8
    assert not complete  # greedy never proves its K maximum


def test_search_code_unreachable_target_K():
    with pytest.raises(SearchError) as info:
        search_code(SearchConfig(ring_graph(8), 1, 3, target_K=100))
    assert info.value.best_k >= 2


def test_search_output_is_reproducible():
    config = SearchConfig(ring_graph(9), 1, 3)
    assert search_code(config)[0].words == search_code(config)[0].words


def test_translation_invariance_of_compatibility():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    forbidden = forbidden_differences(skel, 2)
    rng = random.Random(17)
    mask = (1 << skel.s) - 1
    for _ in range(200):
        a, b, t = (rng.randrange(mask + 1) for _ in range(3))
        if a == b:
            continue
        assert compatible(skel, a, b, sweep) == compatible(skel, a ^ t, b ^ t, sweep)
        assert compatible(skel, a, b, sweep) == (a ^ b not in forbidden)


# Graphs where some weight-1 error reduces to the zero class.  On the par
# graphs a word vertex touches only gauge vertices, so its X support lies in
# the word block and halves the candidate set; on rings with r = 3 the
# masks lie on gauge qubits and filter nothing.
_PAR10 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1), (9, 1), (9, 8),
          (10, 4), (10, 8))
_PAR11 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1), (10, 1),
          (10, 9), (11, 5), (11, 9))
_DATA = Path(__file__).resolve().parent / "data"


def _edge_graph(n, edge_list):
    rows = [0] * n
    for i, j in edge_list:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return Graph(n, tuple(rows))


PARITY_CASES = {
    "par10_r2_d3": (_edge_graph(10, _PAR10), 2, 3),
    "par11_r2_d3": (_edge_graph(11, _PAR11), 2, 3),
    "ring10_r3_d3": (ring_graph(10), 3, 3),
    "ring11_r3_d3": (ring_graph(11), 3, 3),
    "ring12_r3_d3": (ring_graph(12), 3, 3),
}
# Vertices 4 and 8 are twins (same neighbors 3, 5, 9), so X_4 X_8 is a
# degenerate weight-2 error whose two-bit mask makes the raw kernel vectors
# leave ascending order until they are reduced.
_TWINS9 = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1), (8, 3), (8, 5),
           (9, 4), (9, 8))
KERNEL_CASES = {**PARITY_CASES, "twins9_r1_d5": (_edge_graph(9, _TWINS9), 1, 5)}


def _filtered_candidates(skel, t):
    """Words with even X overlap with every zero-class error of weight <= t."""
    degenerate = [
        e for e in enumerate_paulis(skel.n, t)
        if gauge_reduce(skel, induce(skel, e)) == 0
    ]
    return [
        c for c in range(1 << skel.s)
        if all((e.x & c).bit_count() % 2 == 0 for e in degenerate)
    ]


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_parity_kernel_basis_lists_filtered_candidates_in_order(name):
    graph, r, d = KERNEL_CASES[name]
    skel = new_code(graph, r, (0,))
    basis = search._compatibility(SearchConfig(graph, r, d))[2]
    words = []
    for a in range(1 << len(basis)):
        word = 0
        for i, row in enumerate(basis):
            if a >> i & 1:
                word ^= row
        words.append(word)
    assert words == _filtered_candidates(skel, (d - 1) // 2)
    if not name.startswith("ring"):
        assert len(basis) == skel.s - 1


def test_compatibility_matches_the_filtered_candidates_on_random_graphs():
    """Basis, forbidden coordinates and maps all index the ascending kernel words."""
    rng = random.Random(3211)
    nontrivial = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        r = rng.randrange(n)
        d = rng.randint(1, min(6, n + 1))
        graph, s = random_graph(rng, n), n - r
        skel = new_code(graph, r, (0,))
        compatibility, symmetries, basis = search._compatibility(SearchConfig(graph, r, d))
        words = _filtered_candidates(skel, (d - 1) // 2)
        index = {w: i for i, w in enumerate(words)}
        k = len(basis)
        nontrivial += k < s
        assert compatibility.k == k and [_apply(basis, a) for a in range(1 << k)] == words
        in_kernel = forbidden_differences(skel, d - 1) & index.keys()
        assert compatibility.forbidden == {index[f] for f in in_kernel}, (graph, r, d)
        maps = []
        for p in automorphism_generators(graph, s):
            # the index of each word's image under the qubit permutation
            moved = [index[sum(1 << p[q] for q in range(s) if w >> q & 1)] for w in words]
            columns = tuple(moved[1 << i] for i in range(k))
            assert [_apply(columns, a) for a in range(1 << k)] == moved
            if columns != tuple(1 << i for i in range(k)):
                maps.append(columns)
        assert symmetries() == maps, (graph, r, d)
    assert nontrivial >= 100, nontrivial


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_parity_search_matches_pinned_code_files(name, mode):
    graph, r, d = PARITY_CASES[name]
    code, _ = search_code(SearchConfig(graph, r, d, mode=mode))
    assert write_code_file(code) == (_DATA / f"{name}_{mode}.ocws").read_text()


def _random_case(seed):
    """r = 0..3 and d = 2..4 by seed; s = 5..7, and s = 3..5 at d = 2 where cliques are large."""
    rng = random.Random(seed)
    r, d = seed % 4, 2 + seed // 4 % 3
    s = rng.randrange(3, 6) if d == 2 else rng.randrange(5, 8)
    return random_graph(rng, s + r), r, d


# cases with at most 2^8 filtered candidates, where the reference is quick;
# ring6_r1_d2 and random seeds 24 and up raise the walk's clique, so their
# least clique comes from the lex-least pass
REFERENCE_CASES = {
    **{name: PARITY_CASES[name]
       for name in ("par10_r2_d3", "par11_r2_d3", "ring10_r3_d3", "ring11_r3_d3")},
    "ring6_r1_d2": (ring_graph(6), 1, 2),
    **{f"random{seed}": _random_case(seed)
       for seed in (*range(24), 24, 27, 37, 48, 62, 74, 84)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_parity_search_k_equals_reference_max_clique(name):
    """The words are the lexicographically least maximum clique of the candidates."""
    nx = pytest.importorskip("networkx")
    graph, r, d = REFERENCE_CASES[name]
    skel = new_code(graph, r, (0,))
    candidates = _filtered_candidates(skel, (d - 1) // 2)
    forbidden = forbidden_differences(skel, d - 1)
    reference = nx.Graph()
    reference.add_nodes_from(candidates)
    reference.add_edges_from(
        (u, v) for u, v in itertools.combinations(candidates, 2) if u ^ v not in forbidden
    )
    cliques = [tuple(sorted(c)) for c in nx.find_cliques(reference)]
    size = max(map(len, cliques))
    least = min(c for c in cliques if len(c) == size)
    code, complete = search_code(SearchConfig(graph, r, d))
    assert complete
    assert code.words == least


def _reference_color_order(rows, pool):
    """Greedy coloring of the pool as (vertex, color) pairs sorted by color."""
    order = []
    remaining = pool
    color = 0
    while remaining:
        color += 1
        available = remaining
        while available:
            v = (available & -available).bit_length() - 1
            order.append((v, color))
            remaining &= ~(1 << v)
            available &= ~((1 << v) | rows[v])
    return order


def _reference_decision(rows, pool, size):
    """Plain coloring branch-and-bound: a clique of the size in the pool, or None."""
    if size <= 0:
        return []
    for v, bound in reversed(_reference_color_order(rows, pool)):
        if bound < size:
            return None
        found = _reference_decision(rows, pool & rows[v], size - 1)
        if found is not None:
            return [*found, v]
        pool &= ~(1 << v)
    return None


def _reference_rows(graph):
    """Neighborhood bitmasks by vertex."""
    m = len(graph)
    return [
        sum(1 << u for u in range(m) if u != v and u ^ v not in graph.forbidden)
        for v in range(m)
    ]


def _reference_walk(rows):
    """The ascending walk from vertex 0: the lowest vertex adjacent to all taken joins."""
    best, pool = [0], rows[0]
    while pool:
        best.append((pool & -pool).bit_length() - 1)
        pool &= rows[best[-1]]
    return best


def _reference_exact(graph):
    """Exact search that drops no difference: every raise searches all of N(0).

    Rows are built pair by pair from the forbidden set.  The raise starts
    from the ascending walk at vertex 0, and the lex-least pass runs after
    a raise, as in the library.
    """
    m = len(graph)
    rows = _reference_rows(graph)
    best = _reference_walk(rows)
    walk = len(best)
    while (found := _reference_decision(rows, rows[0], len(best))) is not None:
        best = [0, *found]
    if len(best) > walk:
        size, best, pool = len(best), [], (1 << m) - 1
        while len(best) < size:
            for v in range(m):
                narrowed = pool & rows[v] & ~((2 << v) - 1)
                if pool >> v & 1 and _reference_decision(
                    rows, narrowed, size - len(best) - 1
                ) is not None:
                    best.append(v)
                    pool = narrowed
                    break
    return sorted(best), True


def _exact_reference_graphs():
    # d=2 graphs with s = 5..6 and d=3 ones with s = 7..8 take several raises
    for seed in range(48):
        rng = random.Random(seed)
        r = seed % 3
        d, s = ((2, 5), (2, 6), (3, 7), (3, 8))[seed // 3 % 4]
        skel = new_code(random_graph(rng, s + r), r, (0,))
        yield CompatibilityGraph(s, forbidden_differences(skel, d - 1))
    # ring-10 r=0 at d=3 does not finish, so it is searched at d=4
    for n, r in itertools.product((8, 9, 10), (0, 1, 2)):
        d = 4 if (n, r) == (10, 0) else 3
        yield _ring_graph(n, r, d)


def test_exact_matches_reference_without_difference_dropping():
    config = SearchConfig(ring_graph(5), 2, 3)
    for graph in _exact_reference_graphs():
        assert find_max_clique(graph, config) == _reference_exact(graph)


def _forbidden_set_graphs():
    """Every forbidden set for k <= 3, then random ones of every density for k = 4..6."""
    for k in range(4):
        nonzero = range(1, 1 << k)
        for chosen in itertools.product((False, True), repeat=len(nonzero)):
            yield CompatibilityGraph(k, frozenset(f for f, c in zip(nonzero, chosen) if c))
    rng = random.Random(9)
    for k in (4, 5, 6):
        for _ in range(40):
            density = rng.random()
            yield CompatibilityGraph(
                k, frozenset(f for f in range(1, 1 << k) if rng.random() < density)
            )


def test_coset_walk_matches_the_ascending_walk():
    """The walk adds a coset at a time; the reference adds one lowest vertex at a time."""
    config = SearchConfig(ring_graph(5), 2, 3)
    for graph in _forbidden_set_graphs():
        assert find_max_clique(graph, config) == _reference_exact(graph)


def test_twin_pruning_decides_pools_closed_under_the_twin():
    """On a pool that p -> p xor t maps onto itself, the decision routine with
    twin t, which drops each refuted vertex with its twin, finds a clique of
    the pool's clique number and refutes one vertex more."""
    rng = random.Random(1)
    for _ in range(550):
        k = rng.choice((4, 5, 6))
        m = 1 << k
        density = rng.random()
        graph = CompatibilityGraph(k, frozenset(f for f in range(1, m) if rng.random() < density))
        reference = _reference_rows(graph)
        twin, keep = rng.randrange(1, m), rng.random()
        pool = 0
        for x in range(m):
            if x < x ^ twin and rng.random() < keep:
                pool |= 1 << x | 1 << (x ^ twin)
        size = 0
        while _reference_decision(reference, pool, size + 1) is not None:
            size += 1
        rows, bits = search._Rows(graph).positions(pool)
        found = search._exists_clique(rows, bits, pool, size, None, twin)
        assert found is not None and len(found) == size, (graph, twin, pool)
        assert all(pool >> u & 1 for u in found)
        assert all(a ^ b not in graph.forbidden for a, b in itertools.combinations(found, 2))
        assert search._exists_clique(rows, bits, pool, size + 1, None, twin) is None, (graph, twin)


def test_translate_is_the_xor_permutation():
    """translate(mask, t) moves bit p to bit p xor t, for t = 0, single bits,
    random shifts and 2^k - 1."""
    rng = random.Random(12)
    for k in range(1, 11):
        m = 1 << k
        rows = search._Rows(CompatibilityGraph(k, frozenset()))
        shifts = [0, m - 1, *(1 << b for b in range(k)), *(rng.randrange(m) for _ in range(8))]
        for t in shifts:
            for _ in range(3):
                mask = rng.getrandbits(m)
                expected = sum(1 << (p ^ t) for p in range(m) if mask >> p & 1)
                assert rows.translate(mask, t) == expected, (k, t)


def _random_cayley_graphs(rng, count):
    """Random forbidden sets for k = 3..6; at k >= 5 dense enough that no clique is huge."""
    for _ in range(count):
        k = rng.choice((3, 4, 5, 6))
        density = rng.random() if k <= 4 else rng.uniform(0.25, 1)
        yield CompatibilityGraph(
            k, frozenset(f for f in range(1, 1 << k) if rng.random() < density)
        )


def test_branch_order_on_positions_lists_the_ascending_coloring():
    """On a pool of positions p = v xor (2^k - 1), the listed positions, taken back
    to vertices, are those that a greedy coloring in ascending vertex order puts
    at color `size` or above, in the same order."""
    rng = random.Random(21)
    for graph in _random_cayley_graphs(rng, 120):
        top = len(graph) - 1
        reference = _reference_rows(graph)
        rows = search._Rows(graph)
        for _ in range(4):
            pool = rng.getrandbits(len(graph))
            size = rng.randrange(1, graph.k + 3)
            expected = [v for v, color in _reference_color_order(reference, pool) if color >= size]
            positions = rows.translate(pool, top)
            order = search._branch_order(*rows.positions(positions), positions, size, None)
            assert [p ^ top for p in order] == expected, (graph, pool, size)


def _reference_first_clique(rows, size):
    """The first clique of the size through 0 in ascending depth-first order, or None.

    Each clique is extended only by vertices above its last, lowest first,
    so cliques of one size come in lexicographic order.
    """

    def extend(clique, candidates):
        if len(clique) == size:
            return clique
        while len(clique) + candidates.bit_count() >= size:
            v = (candidates & -candidates).bit_length() - 1
            candidates ^= 1 << v
            found = extend([*clique, v], candidates & rows[v])
            if found is not None:
                return found
        return None

    return extend([0], rows[0])


def test_lex_least_clique_matches_brute_force():
    """From the neighborhood of 0 in positions, the pass returns the lexicographically
    least maximum clique through 0, found by plain depth-first enumeration."""
    rng = random.Random(22)
    for graph in _random_cayley_graphs(rng, 120):
        top = len(graph) - 1
        reference = _reference_rows(graph)
        least = [0]
        while (found := _reference_first_clique(reference, len(least) + 1)) is not None:
            least = found
        rows = search._Rows(graph)
        root = rows.translate(rows.base, top)
        clique = search._lex_least_clique(*rows.positions(root), root, len(least), None)
        assert [0, *(p ^ top for p in clique)] == least, graph


def _count_calls(monkeypatch, name):
    """Record each call of a search-module function, recursive ones included."""
    calls = []
    inner = getattr(search, name)

    def counting(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(search, name, counting)
    return calls


# G(10, 1/2) base 13 of the search-exact bench workload
_GNP13 = ["0111111111", "1000001110", "1000000011", "1000010101", "1000000100",
          "1001000110", "1100000000", "1101110000", "1110010000", "1011000000"]


def test_exact_node_counts(monkeypatch, tmp_path):
    """Decision calls and colorings, node counts that do not depend on machine speed.

    Both pin the search tree: a change that reorders a coloring, a branch
    or a refutation moves one of them.
    """
    decisions = _count_calls(monkeypatch, "_exists_clique")
    colorings = _count_calls(monkeypatch, "_branch_order")
    assert search_code(SearchConfig(ring_graph(9), 0, 3))[0].K == 12
    # 5422 with no difference dropped and full colorings, 3527 with no twin
    # pruning, 2803 without orbit dropping
    assert (len(decisions), len(colorings)) == (911, 901)
    decisions.clear()
    colorings.clear()
    # the same ring from an adjacency file, as the bench reads it, gets the same group
    ring9 = read_graph_file(tmp_path, ring_graph(9))
    assert search_code(SearchConfig(ring9, 0, 3))[0].K == 12
    assert (len(decisions), len(colorings)) == (911, 901)
    decisions.clear()
    colorings.clear()
    assert search_code(SearchConfig(from_adjacency(_GNP13), 1, 3))[0].K == 8
    # 3537 with no twin pruning
    assert (len(decisions), len(colorings)) == (2709, 2710)
    for n in (9, 10):
        decisions.clear()
        colorings.clear()
        search_code(SearchConfig(ring_graph(n), 1, 3))
        # the root coloring refutes the first raise on its own
        assert (len(decisions), len(colorings)) == (0, 1)


def _count_missing_rows(monkeypatch):
    """Record each row the _Rows mapping computes."""
    calls = []
    missing = search._Rows.__missing__

    def counting(rows, index):
        calls.append(index)
        return missing(rows, index)

    monkeypatch.setattr(search._Rows, "__missing__", counting)
    return calls


def test_both_row_stores_give_the_same_search(monkeypatch):
    """Past the byte bound the engine indexes the _Rows mapping and _Bits in place of
    the two lists, with the same cliques, decision calls and colorings.

    At 12 KiB the mapping keeps 189 rows, fewer than either root pool holds
    (268 and 232 positions), so it both caches rows and recomputes them.
    """
    searches = (
        (SearchConfig(ring_graph(9), 0, 3), (911, 901)),
        (SearchConfig(from_adjacency(_GNP13), 1, 3), (2709, 2710)),
    )
    listed = [search_code(config) for config, _ in searches]
    missing = _count_missing_rows(monkeypatch)
    decisions = _count_calls(monkeypatch, "_exists_clique")
    colorings = _count_calls(monkeypatch, "_branch_order")
    monkeypatch.setattr(search, "_ROW_CACHE_BYTES", 12 << 10)
    for (config, counts), expected in zip(searches, listed):
        missing.clear()
        decisions.clear()
        colorings.clear()
        assert search_code(config) == expected
        assert (len(decisions), len(colorings)) == counts
        # the mapping served every row, and recomputed some past its room
        assert len(missing) > len(set(missing)) > 0


def test_bench_sized_searches_read_rows_only_from_the_lists(monkeypatch):
    """Every search-exact bench instance, k <= 11, computes no row in the _Rows mapping.

    A fallback to the mapping would give the same output, only slower.
    """
    workloads = load_workloads()
    configs = [SearchConfig(ring_graph(n), r, d) for n, r, d, _, _ in workloads.EXACT_RINGS]
    configs += [SearchConfig(Graph(10, workloads.gnp_rows(10, seed)), 1, 3)
                for seed, _ in workloads.GNP_BASES]
    configs += [SearchConfig(Graph(n, workloads.edge_rows(n, edges)), r, 3)
                for _, n, r, edges, _, _ in workloads.PARITY_GRAPHS]
    missing = _count_missing_rows(monkeypatch)
    colorings = _count_calls(monkeypatch, "_branch_order")
    for config in configs:
        assert search._compatibility(config)[0].k <= 11
        search_code(config)
    assert len(colorings) > 1000
    assert missing == []


def test_group_is_built_only_once_the_raise_refutes_a_difference(monkeypatch):
    """Greedy mode and raises whose root coloring refutes build no group."""
    builds = _count_calls(monkeypatch, "automorphism_generators")
    search_code(SearchConfig(ring_graph(9), 0, 3, mode="greedy"))
    search_code(SearchConfig(ring_graph(10), 1, 3))
    search_code(SearchConfig(ring_graph(12), 1, 4))
    assert builds == []
    search_code(SearchConfig(ring_graph(9), 0, 3))
    assert len(builds) == 1


def _apply(columns, a):
    """Image of coordinate vector a under the linear map with these column images."""
    image = 0
    for i, column in enumerate(columns):
        if a >> i & 1:
            image ^= column
    return image


def test_kernel_maps_keep_the_forbidden_set_and_the_kernel(tmp_path):
    """Each map is invertible and keeps F; each qubit permutation keeps the kernel."""
    for graph, r, d in symmetric_searches(tmp_path):
        config = SearchConfig(graph, r, d)
        compatibility, symmetries, basis = search._compatibility(config)
        k = len(basis)
        kernel = {_apply(basis, a) for a in range(1 << k)}
        s = graph.n - r
        for p in automorphism_generators(graph, s):
            moved = {sum(1 << p[q] for q in range(s) if w >> q & 1) for w in kernel}
            assert moved == kernel, (graph, r, p)
        for columns in symmetries():
            assert len(columns) == k
            assert sorted(_apply(columns, a) for a in range(1 << k)) == list(range(1 << k))
            image = frozenset(_apply(columns, f) for f in compatibility.forbidden)
            assert image == compatibility.forbidden, (graph, r, d, columns)


def test_orbit_closure_matches_the_listed_group():
    """On ring-9 r=0 the 18 maps, listed by closure, give the same orbits."""
    _, symmetries, basis = search._compatibility(SearchConfig(ring_graph(9), 0, 3))
    generators = symmetries()
    k = len(basis)
    identity = tuple(1 << i for i in range(k))
    group, frontier = {identity}, [identity]
    while frontier:
        columns = frontier.pop()
        for g in generators:
            composed = tuple(_apply(g, c) for c in columns)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    assert len(group) == 18
    for v in range(1 << k):
        listed = sum(1 << b for b in {_apply(columns, v) for columns in group})
        assert search._orbit_of(v, generators, search._combine) == listed


def test_orbit_dropping_matches_the_plain_raise(monkeypatch, tmp_path):
    """The same K and words with the group as with none, and orbits do drop."""
    dropped = []
    orbit = search._orbit_of

    def recording(v, maps, act):
        dropped.append(orbit(v, maps, act))
        return dropped[-1]

    monkeypatch.setattr(search, "_orbit_of", recording)
    for graph, r, d in symmetric_searches(tmp_path):
        config = SearchConfig(graph, r, d)
        with_orbits = search_code(config)
        with monkeypatch.context() as m:
            m.setattr(search, "automorphism_generators", lambda graph, s: [])
            plain = search_code(config)
        assert with_orbits == plain, (graph, r, d)
    # 110 orbits of two or more differences drop on these graphs
    assert sum(mask.bit_count() > 1 for mask in dropped) > 50


def _transvection_graphs(rng, count):
    """Random Cayley graphs for k = 4..6 whose F a transvection A keeps, each with A.

    A adds coordinate i to coordinate j, so it is an involution that moves
    2^k - 1, which every kernel map of symmetric_searches fixes; F is a
    random union of its orbits {v, A(v)}.  A comes as its column images.
    """
    for _ in range(count):
        k = rng.choice((4, 5, 6))
        i, j = rng.sample(range(k), 2)
        columns = tuple(1 << b | (1 << j if b == i else 0) for b in range(k))
        keep, forbidden = rng.random(), set()
        for v in range(1, 1 << k):
            if rng.random() < keep:
                forbidden |= {v, _apply(columns, v)}
        yield CompatibilityGraph(k, frozenset(forbidden)), columns


def test_raise_drops_each_refuted_orbit_in_positions(monkeypatch):
    """The raise runs on positions p = v xor (2^k - 1) and drops the orbit {v, A(v)}
    of each refuted difference v there; its maximum clique is the reference's."""
    dropped = []
    orbit = search._orbit_of

    def recording(p, maps, act):
        dropped.append((p, orbit(p, maps, act)))
        return dropped[-1][1]

    monkeypatch.setattr(search, "_orbit_of", recording)
    config = SearchConfig(ring_graph(5), 2, 3)
    paired = 0
    for graph, columns in _transvection_graphs(random.Random(4), 200):
        dropped.clear()
        assert find_max_clique(graph, config, lambda: [columns]) == _reference_exact(graph), graph
        top = len(graph) - 1
        for p, mask in dropped:
            v = p ^ top
            assert mask == 1 << p | 1 << (_apply(columns, v) ^ top), (graph, v)
        paired += any(mask.bit_count() == 2 for _, mask in dropped)
    assert paired > 10


def test_distance_one_search_caches_no_row(monkeypatch):
    """At d = 1 the graph is complete: the walk takes every vertex and nothing raises it.

    A walk that cached each member's row, or a root coloring of a pool too
    small to hold a larger clique, would store 2^k rows of 2^k bits, in the
    mapping or in the lists.
    """
    calls = _count_missing_rows(monkeypatch)
    stores = []
    positions = search._Rows.positions

    def recording(rows, root):
        stores.append(positions(rows, root))
        return stores[-1]

    monkeypatch.setattr(search._Rows, "positions", recording)
    code, _ = search_code(SearchConfig(ring_graph(12), 0, 1))
    assert code.K == 1 << 12
    assert calls == []
    assert stores == [([], [])]


# runs one ring-18 r=0 d=3 search per budget, then prints its status and peak RSS in KiB
_PEAK_CHILD = """
import resource, sys
from ocws.cli import main
for budget in sys.argv[2:]:
    status = main(["search", "--graph", "ring", "--n", "18", "--r", "0", "--distance", "3",
                   "--budget", budget, "--out", sys.argv[1] + budget, "--format", "lines"])
    print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_row_cache_keeps_the_peak_of_a_k18_search_bounded(tmp_path):
    """A full row cache at k = 18 is 8 GiB; held to its byte budget, a longer search costs no more.

    With no bound, the peak on a 2-CPU host was 225 MB at --budget 1 and 620 MB at 3.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", _PEAK_CHILD, str(tmp_path / "found"), "1", "3"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    for code_line, tail in (lines[:2], lines[2:]):
        assert code_line.startswith("CODE n=18 r=0 K=")
        status, peak = map(int, tail.split())
        assert status == 0
        assert peak < 160 * 1024


def _count_translates(monkeypatch):
    calls = []
    translate = search._Rows.translate

    def counting(rows, mask, t):
        calls.append(t)
        return translate(rows, mask, t)

    monkeypatch.setattr(search._Rows, "translate", counting)
    return calls


def test_distance_one_walk_translates_once_per_dimension(monkeypatch):
    """The walk doubles its clique with each translate, so 2^12 words take 12."""
    calls = _count_translates(monkeypatch)
    assert search_code(SearchConfig(ring_graph(12), 0, 1))[0].K == 1 << 12
    assert len(calls) <= 12


def test_raise_deeper_than_the_recursion_limit_completes():
    """The decision routine recurses once per vertex of the clique it seeks.

    This walk has 64 vertices and the maximum clique 128, so the raise and
    the lex-least pass recurse past a limit of 100; the search lifts the
    limit for its own run and then restores it.
    """
    graph = CompatibilityGraph(8, frozenset({18, 108, 112}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        clique, complete = find_max_clique(graph, SearchConfig(ring_graph(5), 2, 3))
        assert sys.getrecursionlimit() == 100
    finally:
        sys.setrecursionlimit(limit)
    assert (len(clique), complete) == (128, True)
    assert len(_reference_walk(_reference_rows(graph))) == 64


def test_budget_ending_in_the_lex_least_pass_flags_incomplete(monkeypatch):
    graph = _ring_graph(8, 0, 3)
    config = SearchConfig(ring_graph(8), 0, 3)
    lex_least = _count_calls(monkeypatch, "_lex_least_clique")
    clique, complete = find_max_clique(graph, config)
    # the raise beats the walk, so the lex-least pass runs
    assert complete and len(lex_least) == 1

    def out_of_time(*args):
        raise search._Deadline

    monkeypatch.setattr(search, "_lex_least_clique", out_of_time)
    raised, complete = find_max_clique(graph, config)
    assert not complete
    assert len(raised) == len(clique)


def _first_restart(graph, seed):
    """The members of greedy mode's first restart, in the order it adds them."""
    order = list(range(len(graph)))
    random.Random(seed).shuffle(order)
    members = []
    for v in order:
        if all(v != u and v ^ u not in graph.forbidden for u in members):
            members.append(v)
    return members


def test_greedy_budget_stops_at_the_member_that_reads_it_late(monkeypatch):
    """Greedy mode reads the deadline before each restart and at each member a
    restart adds; a restart cut at a member offers its clique so far, like a
    finished one, and no restart starts after it."""
    graph = _ring_graph(9, 1, 3)
    config = SearchConfig(ring_graph(9), 1, 3, mode="greedy", seed=1, time_budget=1.0)
    members = _first_restart(graph, 1)
    whole = (sorted(u ^ min(members) for u in members), False)
    monkeypatch.setattr(search, "_GREEDY_RESTARTS", 1)
    assert find_max_clique(graph, config._replace(time_budget=None)) == whole
    monkeypatch.setattr(search, "_GREEDY_RESTARTS", _GREEDY_RESTARTS)
    assert find_max_clique(graph, config._replace(time_budget=None)) != whole
    assert len(members) > 2
    for j in range(1, len(members) + 1):
        low = min(members[:j])
        # the deadline (0 + 1.0) passes at member j of the first restart, after
        # one reading before it; the last member empties the pool and reads none,
        # so the restart ends whole and the next one does not start
        monkeypatch.setattr(search, "time", Clock(0.0, *[0.0] * j, 2.0))
        assert find_max_clique(graph, config) == (sorted(u ^ low for u in members[:j]), False)
    # the deadline passes before the first restart, which still adds one member
    monkeypatch.setattr(search, "time", Clock(0.0, 2.0))
    assert find_max_clique(graph, config) == ([0], False)


@pytest.mark.parametrize("m, reads, complete", [
    (1 << 16, 0, True),  # 2^16 - 1 steps: no chunk fills, so no reading
    ((1 << 18) + 5, 3, True),  # the k = 18 block is two chunks, the k = 17 block one
    ((1 << 18) + 5, 2, False),
    ((1 << 17) + 5, 0, False),
])
def test_shuffle_reads_the_deadline_after_each_chunk(monkeypatch, m, reads, complete):
    """Readings before the deadline (1.0) passes; the next one reads 2.0.  A
    shuffle that ends is random.shuffle's, steps and generator state alike."""
    monkeypatch.setattr(search, "time", Clock(*[0.0] * reads, 2.0))
    reference, rng = random.Random(7), random.Random(7)
    expected, order = list(range(m)), list(range(m))
    reference.shuffle(expected)
    assert _shuffle(order, rng.getrandbits, 1.0) is complete
    if complete:
        assert order == expected
        assert rng.getstate() == reference.getstate()


def test_greedy_budget_stops_in_a_long_shuffle(monkeypatch):
    """Past the deadline at the end of the first shuffle chunk, greedy mode
    returns vertex 0 alone, before the first restart has drawn 2^k numbers."""
    draws = 0

    class Counting(random.Random):
        def getrandbits(self, k):
            nonlocal draws
            draws += 1
            return super().getrandbits(k)

    k = 17
    graph = CompatibilityGraph(k, frozenset({1}))
    config = SearchConfig(ring_graph(5), 2, 3, mode="greedy", seed=1, time_budget=1.0)
    monkeypatch.setattr(search.random, "Random", Counting)
    # the deadline (0 + 1.0) has not passed before the first restart
    monkeypatch.setattr(search, "time", Clock(0.0, 0.0, 2.0))
    assert find_max_clique(graph, config) == ([0], False)
    assert 1 << 16 < draws < 1 << k


def test_budget_ending_in_the_root_coloring_returns_the_walk(monkeypatch):
    graph = _ring_graph(9, 0, 3)
    walk = _reference_walk(_reference_rows(graph))
    # the raise beats the walk, so the search goes on past the root coloring
    assert len(walk) < search_code(SearchConfig(ring_graph(9), 0, 3))[0].K
    config = SearchConfig(ring_graph(9), 0, 3, time_budget=1.0)

    def unreachable(*args):
        raise AssertionError("the root coloring ran past the deadline")

    monkeypatch.setattr(search, "_exists_clique", unreachable)
    # the deadline (0 + 1.0) passes after the first color class of the root pool
    monkeypatch.setattr(search, "time", Clock(0.0, 0.0, 2.0))
    assert find_max_clique(graph, config) == (walk, False)


def _pairwise_greedy(graph, seed):
    """Greedy multistart with a pairwise adjacency test per clique member."""
    rng = random.Random(seed)
    best = []
    order = list(range(len(graph)))
    for _ in range(_GREEDY_RESTARTS):
        rng.shuffle(order)
        clique = []
        for v in order:
            if all(v != u and (v ^ u) not in graph.forbidden for u in clique):
                clique.append(v)
        low = min(clique)
        clique = sorted(c ^ low for c in clique)
        if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
            best = clique
    return best


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_inline_shuffle_matches_random_shuffle(seed):
    for m in (1, 2, 3, 5, 6, *(1 << k for k in range(1, 13))):
        reference, rng = random.Random(seed), random.Random(seed)
        expected, order = list(range(m)), list(range(m))
        for _ in range(4):  # consecutive restarts start from the last permutation
            reference.shuffle(expected)
            _shuffle(order, rng.getrandbits)
            assert order == expected, m
            assert rng.getstate() == reference.getstate(), m


def _greedy_graphs():
    for n, r, d in ((8, 1, 3), (9, 1, 3), (10, 2, 3), (9, 0, 4), (7, 1, 2)):
        yield _ring_graph(n, r, d)
    rng = random.Random(3)
    for k in (2, 4, 6, 7):
        yield CompatibilityGraph(k, frozenset(rng.sample(range(1, 1 << k), k)))
    yield CompatibilityGraph(4, frozenset())
    yield CompatibilityGraph(4, frozenset(range(1, 16)))


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_greedy_matches_pairwise_reference(seed):
    config = SearchConfig(ring_graph(5), 2, 3, mode="greedy", seed=seed)
    for graph in _greedy_graphs():
        clique, complete = find_max_clique(graph, config)
        assert not complete
        assert clique == _pairwise_greedy(graph, seed)


def _unabandoned_greedy(graph, seed):
    """Greedy multistart that scans every restart to its end.

    Orders come from random.shuffle; no restart stops early, so every
    maximal clique found competes for the best, ties on the least list.
    """
    rng = random.Random(seed)
    rows = search._Rows(graph)
    best = []
    order = list(range(len(graph)))
    for _ in range(_GREEDY_RESTARTS):
        rng.shuffle(order)
        clique, pool = [], (1 << len(graph)) - 1
        for v in order:
            if pool >> v & 1:
                clique.append(v)
                pool &= rows.translate(rows.base, v)
        low = min(clique)
        clique = sorted(c ^ low for c in clique)
        if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
            best = clique
    return best


def _abandoning_cases():
    """The greedy bench rings at seeds 0, 1 and 5, then 40 random graphs, one seed each."""
    for n, r in sorted({(n, r) for n, r, _, _ in load_workloads().GREEDY_RINGS}):
        for seed in (0, 1, 5):
            yield f"ring{n}_r{r}", _ring_graph(n, r, 3), seed
    for i in range(40):
        rng = random.Random(i)
        r, d, s = i % 3, 2 + i // 3 % 3, rng.randrange(5, 9)
        skel = new_code(random_graph(rng, s + r), r, (0,))
        yield f"random{i}", CompatibilityGraph(s, forbidden_differences(skel, d - 1)), i


def test_abandoned_restarts_keep_the_greedy_clique():
    """Stopping a restart that cannot reach the best size changes no result.

    A restart that can only tie is scanned on, since the least clique wins
    a tie.
    """
    for name, graph, seed in _abandoning_cases():
        config = SearchConfig(ring_graph(5), 2, 3, mode="greedy", seed=seed)
        want = _unabandoned_greedy(graph, seed)
        assert find_max_clique(graph, config) == (want, False), (name, seed)
