"""Clique search over candidate word sets."""

import itertools
import random
from pathlib import Path

import pytest

from ocws import (
    CompatibilityGraph,
    Graph,
    SearchConfig,
    SearchError,
    candidate_words,
    certify_distance,
    compatible,
    corrects_weight,
    enumerate_paulis,
    find_max_clique,
    forbidden_differences,
    gauge_reduce,
    induce,
    induced_error_set,
    new_code,
    ring_graph,
    search_code,
    write_code_file,
)
from ocws.search import _parity_kernel
from conftest import WORDS_8_1, WORDS_9_3, bits


def _skeleton(n, r):
    return new_code(ring_graph(n), r, (0,))


def _weight1_classes(code):
    return [c.bits for c in induced_error_set(code, 1)]


def test_candidate_words_counts():
    assert len(candidate_words(SearchConfig(ring_graph(5), 2, 1))) == 8
    assert len(candidate_words(SearchConfig(ring_graph(9), 1, 3))) == 256


def test_candidate_words_zero_first_ascending():
    cands = candidate_words(SearchConfig(ring_graph(5), 2, 1))
    assert list(cands) == sorted(cands)
    assert cands[0] == 0


def test_exact_mode_candidate_space_bound():
    with pytest.raises(ValueError, match="too large"):
        SearchConfig(ring_graph(26), 1, 3, mode="exact")


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


def test_fixture_word_pairs_are_compatible():
    skel8 = _skeleton(8, 1)
    sweep8 = _weight1_classes(skel8)
    assert compatible(skel8, bits(WORDS_8_1[0]), bits(WORDS_8_1[1]), sweep8)

    skel9 = _skeleton(9, 1)
    sweep9 = _weight1_classes(skel9)
    words = [bits(w) for w in WORDS_9_3]
    for ci, cj in itertools.combinations(words, 2):
        assert compatible(skel9, ci, cj, sweep9)


def test_constructed_violation_is_incompatible():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    # any single class difference from a valid word is confusable
    violating = bits(WORDS_8_1[1]) ^ sweep[0]
    assert not compatible(skel, bits(WORDS_8_1[1]), violating, sweep)


def test_compatible_is_symmetric_and_needs_distinct_candidates():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    a, b = bits(WORDS_8_1[0]), bits(WORDS_8_1[1])
    assert compatible(skel, a, b, sweep) == compatible(skel, b, a, sweep)
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


def test_max_clique_on_complete_graph():
    graph = CompatibilityGraph(range(8), frozenset())
    clique, complete = find_max_clique(graph, SearchConfig(ring_graph(5), 2, 1))
    assert complete
    assert sorted(clique) == list(range(8))


def test_max_clique_on_edgeless_graph():
    graph = CompatibilityGraph(range(8), frozenset(range(1, 8)))
    clique, complete = find_max_clique(graph, SearchConfig(ring_graph(5), 2, 1))
    assert complete
    assert len(clique) == 1


def test_max_clique_nine_ring_reaches_eight():
    skel = _skeleton(9, 1)
    config = SearchConfig(ring_graph(9), 1, 3)
    graph = CompatibilityGraph(candidate_words(config), forbidden_differences(skel, 2))
    clique, complete = find_max_clique(graph, config)
    assert complete
    assert len(clique) == 8
    assert 0 in clique


def test_budget_exhaustion_flags_incomplete():
    skel = _skeleton(9, 1)
    config = SearchConfig(ring_graph(9), 1, 3, time_budget=1e-9)
    graph = CompatibilityGraph(candidate_words(config), forbidden_differences(skel, 2))
    _clique, complete = find_max_clique(graph, config)
    assert not complete


def test_exact_beats_or_matches_greedy():
    skel = _skeleton(9, 1)
    forbidden = forbidden_differences(skel, 2)
    cands = candidate_words(SearchConfig(ring_graph(9), 1, 3))
    graph = CompatibilityGraph(cands, forbidden)
    exact, _ = find_max_clique(graph, SearchConfig(ring_graph(9), 1, 3))
    greedy, _ = find_max_clique(graph, SearchConfig(ring_graph(9), 1, 3, mode="greedy"))
    assert len(exact) >= len(greedy)


def test_greedy_is_deterministic_for_a_seed():
    skel = _skeleton(8, 1)
    forbidden = forbidden_differences(skel, 2)
    cands = candidate_words(SearchConfig(ring_graph(8), 1, 3))
    graph = CompatibilityGraph(cands, forbidden)
    config = SearchConfig(ring_graph(8), 1, 3, mode="greedy", seed=5)
    first, _ = find_max_clique(graph, config)
    second, _ = find_max_clique(graph, config)
    assert first == second


def test_search_code_eight_ring():
    code = search_code(SearchConfig(ring_graph(8), 1, 3))
    assert code.K >= 2
    assert code.claimed_distance == 3
    assert certify_distance(code) == 3
    assert corrects_weight(code, 1)


def test_search_code_nine_ring():
    code = search_code(SearchConfig(ring_graph(9), 1, 3))
    assert code.K >= 8
    assert certify_distance(code) >= 3


def test_search_code_distance_one_keeps_all_candidates():
    code = search_code(SearchConfig(ring_graph(5), 2, 1))
    assert code.K == 8
    assert sorted(code.words) == list(range(8))


def test_search_code_greedy_mode():
    code = search_code(SearchConfig(ring_graph(9), 1, 3, mode="greedy"))
    assert code.K == 8


def test_search_code_unreachable_target_K():
    with pytest.raises(SearchError) as info:
        search_code(SearchConfig(ring_graph(8), 1, 3, target_K=100))
    assert info.value.best_k >= 2


def test_search_output_is_reproducible():
    config = SearchConfig(ring_graph(9), 1, 3)
    assert search_code(config).words == search_code(config).words


def test_translation_invariance_of_compatibility():
    skel = _skeleton(8, 1)
    sweep = _weight1_classes(skel)
    rng = random.Random(17)
    mask = (1 << skel.s) - 1
    for _ in range(200):
        a, b, t = (rng.randrange(mask + 1) for _ in range(3))
        if a == b:
            continue
        assert compatible(skel, a, b, sweep) == compatible(skel, a ^ t, b ^ t, sweep)


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
    basis = _parity_kernel(skel, (d - 1) // 2)
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


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
@pytest.mark.parametrize("mode", ["exact", "greedy"])
def test_parity_search_matches_pinned_code_files(name, mode):
    graph, r, d = PARITY_CASES[name]
    code = search_code(SearchConfig(graph, r, d, mode=mode))
    assert write_code_file(code) == (_DATA / f"{name}_{mode}.ocws").read_text()


# cases with at most 2^8 filtered candidates, where the reference is quick
@pytest.mark.parametrize("name", ["par10_r2_d3", "par11_r2_d3", "ring10_r3_d3", "ring11_r3_d3"])
def test_parity_search_k_equals_reference_max_clique(name):
    nx = pytest.importorskip("networkx")
    graph, r, d = PARITY_CASES[name]
    skel = new_code(graph, r, (0,))
    candidates = _filtered_candidates(skel, (d - 1) // 2)
    forbidden = forbidden_differences(skel, d - 1)
    reference = nx.Graph()
    reference.add_nodes_from(candidates)
    reference.add_edges_from(
        (u, v) for u, v in itertools.combinations(candidates, 2) if u ^ v not in forbidden
    )
    _clique, size = nx.max_weight_clique(reference, weight=None)
    assert search_code(SearchConfig(graph, r, d)).K == size


def test_compatibility_graph_needs_a_power_of_two_range():
    for candidates in ((0, 1, 2, 3), range(1, 9), range(0, 16, 2), range(6), range(0)):
        with pytest.raises(ValueError, match="range"):
            CompatibilityGraph(candidates, frozenset())
    assert len(CompatibilityGraph(range(1), frozenset())) == 1
