"""Code construction, gauge group membership, and the code file format."""

import itertools
import random

import pytest

from ocws import (
    CodeFileError,
    Graph,
    PauliOperator,
    detects_set,
    format_pauli,
    gauge_decomposition,
    gauge_generators,
    identity,
    induce,
    multiply,
    new_code,
    oqec_check,
    parse_code_file,
    parse_pauli,
    ring_graph,
    write_code_file,
)
from ocws.code import _echelon, _gauge_product
from conftest import (
    PERFBENCH,
    _GF2Basis,
    bits,
    gauge_elimination,
    random_code,
    random_graph,
    symplectic,
)


def test_basic_properties(code_8_1_1_3):
    code = code_8_1_1_3
    assert code.n == 8
    assert code.r == 1
    assert code.s == 7
    assert code.K == 2
    assert code.claimed_distance == 3


def test_word_operator_is_z_type(code_8_1_1_3):
    w = code_8_1_1_3.word_operator(1)
    assert format_pauli(w) == "IZZIIZZI"


def test_rejects_word_on_gauge_qubit():
    with pytest.raises(ValueError, match="gauge qubit 8"):
        new_code(ring_graph(8), 1, (0, bits("00000001")))
    for word in (1 << 8, -1):
        with pytest.raises(ValueError, match="^word 2 out of range for n=8$"):
            new_code(ring_graph(8), 1, (0, word))


def test_rejects_duplicate_words():
    with pytest.raises(ValueError, match="positions 1 and 3"):
        new_code(ring_graph(5), 1, (0, 1, 0))


def test_rejects_empty_word_list():
    with pytest.raises(ValueError, match="at least one word"):
        new_code(ring_graph(5), 1, ())


def test_rejects_bad_gauge_count():
    with pytest.raises(ValueError):
        new_code(ring_graph(5), 5, (0,))
    with pytest.raises(ValueError):
        new_code(ring_graph(5), -1, (0,))
    with pytest.raises(ValueError, match="^claimed distance 0 must be >= 1$"):
        new_code(ring_graph(5), 1, (0,), claimed_distance=0)


def test_gauge_generators_labels_and_count(code_8_1_1_3):
    group = gauge_generators(code_8_1_1_3)
    assert len(group.generators) == 9
    assert group.labels == ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "g1")
    assert gauge_elimination(code_8_1_1_3).rank == 9
    assert format_pauli(group.generators[0]) == "XZIIIIIZ"
    assert format_pauli(group.generators[8]) == "IIIIIIIZ"


def test_gauge_basis_is_the_basis_of_the_generators():
    """The generators are already an echelon basis.

    Eliminating them only clears the gauge bits of each S_q, by the g_j at those bits.
    """
    rng = random.Random(61)
    for n in range(3, 13):
        for r in range(n):
            code = random_code(rng, random_graph(rng, n), r, 1)
            s, basis = n - r, gauge_elimination(code)
            rows = [1 << (s + j) for j in range(r)]
            rows += [1 << (q + n) | row & ((1 << s) - 1) for q, row in enumerate(code.graph.rows)]
            assert basis.rows() == rows
            assert [basis.decompose(v) for v in rows] == [1 << (n + j) for j in range(r)] + [
                1 << q | row >> s << n for q, row in enumerate(code.graph.rows)
            ]


def _span(code):
    """All gauge group elements modulo phase, by explicit enumeration."""
    gens = gauge_generators(code).generators
    elements = set()
    for picks in itertools.product((0, 1), repeat=len(gens)):
        x = z = 0
        for take, g in zip(picks, gens):
            if take:
                x ^= g.x
                z ^= g.z
        elements.add((x, z))
    return elements


def _every_small_code():
    """Every graph on n <= 4 vertices with every r, as a one-word code."""
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for edges in itertools.product((0, 1), repeat=len(pairs)):
            rows = [0] * n
            for (i, j), take in zip(pairs, edges):
                rows[i] |= take << j
                rows[j] |= take << i
            for r in range(n):
                yield new_code(Graph(n, rows), r, (0,))


def test_membership_matches_brute_force_span():
    """Membership and the product named, against the span and the reference elimination.

    Random codes on 3..6 qubits draw 200 Paulis each; every code on n <= 4
    qubits is checked on all 4^n Paulis.
    """
    rng = random.Random(7)
    cases = []
    for _ in range(10):
        n = rng.randint(3, 6)
        r = rng.randint(0, 2)
        code = random_code(rng, random_graph(rng, n), r, 1)
        draws = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(200)]
        cases.append((code, draws))
    for code in _every_small_code():
        cases.append((code, list(itertools.product(range(1 << code.n), repeat=2))))
    assert len(cases) == 10 + 1 + 2 * 2 + 8 * 3 + 64 * 4
    for code, draws in cases:
        span = _span(code)
        assert len(span) == 1 << (code.n + code.r)
        reference = gauge_elimination(code)
        for x, z in draws:
            p = PauliOperator(code.n, x=x, z=z)
            label = gauge_decomposition(code, p)
            assert (label is not None) == ((x, z) in span)
            combo = reference.decompose(symplectic(p))
            assert label == (None if combo is None else _gauge_product(code, combo))


def test_gf2_basis_matches_brute_force_span():
    rng = random.Random(23)
    for _ in range(100):
        width = rng.randint(1, 8)
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 10))]
        basis = _GF2Basis()
        span = {0}
        for k, v in enumerate(vectors):
            assert basis.add(v, 1 << k) == (v not in span)
            span |= {u ^ v for u in span}
        rows = basis.rows()
        pivots = [row.bit_length() - 1 for row in rows]
        assert pivots == sorted(set(pivots)) and len(span) == 1 << basis.rank
        # fully reduced: each pivot bit is set in its own row only
        assert all(sum(row >> p & 1 for row in rows) == 1 for p in pivots)
        pivot_mask = sum(1 << p for p in pivots)
        for a in range(1 << width):
            b = rng.randrange(1 << width)
            residue = basis.reduce(a)[0]
            assert basis.reduce(a ^ b)[0] == residue ^ basis.reduce(b)[0]
            assert residue & pivot_mask == 0
            assert residue ^ a in span
            combo = basis.decompose(a)
            assert (combo is not None) == (a in span)
            if combo is not None:
                rebuilt = 0
                for k, v in enumerate(vectors):
                    if combo >> k & 1:
                        rebuilt ^= v
                assert rebuilt == a


def test_echelon_matches_brute_force_span():
    rng = random.Random(29)
    for _ in range(200):
        width = rng.randint(1, 8)
        vectors = [rng.randrange(1 << width) for _ in range(rng.randint(0, 10))]
        rows = _echelon(iter(vectors))
        span = {0}
        for v in vectors:
            span |= {u ^ v for u in span}
        row_span = {0}
        for row in rows.values():
            row_span |= {u ^ row for u in row_span}
        assert row_span == span and len(span) == 1 << len(rows)
        # each key is its row's lowest bit, and clear in every other row
        assert all(row & -row == 1 << p for p, row in rows.items())
        assert all(row >> p & 1 == (p == q) for p in rows for q, row in rows.items())


def test_decomposition_reproduces_element(code_8_1_1_3):
    code = code_8_1_1_3
    group = gauge_generators(code)
    by_label = dict(zip(group.labels, group.generators))
    rng = random.Random(11)
    for _ in range(50):
        picks = [g for g in group.labels if rng.random() < 0.5]
        p = identity(code.n)
        for label in picks:
            p = multiply(p, by_label[label])
        decomposition = gauge_decomposition(code, p)
        assert decomposition is not None
        rebuilt = identity(code.n)
        if decomposition != "identity":
            for label in decomposition.split("*"):
                rebuilt = multiply(rebuilt, by_label[label])
        assert rebuilt == p


def test_decomposition_outside_group_is_none(code_8_1_1_3):
    assert gauge_decomposition(code_8_1_1_3, parse_pauli("ZIIIIIII")) is None


def test_identity_decomposition(code_8_1_1_3):
    assert gauge_decomposition(code_8_1_1_3, identity(8)) == "identity"


def test_length_mismatch_rejected(code_8_1_1_3):
    for check in (
        lambda e: gauge_decomposition(code_8_1_1_3, e),
        lambda e: induce(code_8_1_1_3, e),
        lambda e: detects_set(code_8_1_1_3, [e]),
        lambda e: oqec_check(code_8_1_1_3, [identity(8), e]),
    ):
        with pytest.raises(ValueError) as info:
            check(identity(5))
        assert str(info.value) == "operator length 5 does not match code n=8"


def test_code_file_round_trip(code_8_1_1_3, code_9_3_1_3, code_ring5_r2):
    for code in (code_8_1_1_3, code_9_3_1_3, code_ring5_r2):
        text = write_code_file(code)
        assert parse_code_file(text) == code
        # canonical output is stable under a second round trip
        assert write_code_file(parse_code_file(text)) == text


def test_code_file_accepts_zstring_words_and_comments():
    text = "\n".join(
        [
            "# a comment",
            "n = 5",
            "r = 2",
            "graph = ring",
            "word = IIIII  # zero word",
            "word = ZZIII",
        ]
    )
    code = parse_code_file(text)
    assert code.words == (0, 0b00011)


def test_code_file_adjacency_block():
    text = "\n".join(
        [
            "n = 3",
            "r = 0",
            "graph = adjacency:",
            "011",
            "101",
            "110",
            "word = 000",
        ]
    )
    assert parse_code_file(text).graph == ring_graph(3)
    # only n must come before the block; r may follow it
    late_r = "n = 3\ngraph = adjacency:\n011\n101\n110\nr = 1\nword = 000\n"
    assert parse_code_file(late_r) == new_code(ring_graph(3), 1, (0,))


def test_code_file_adjacency_block_messages():
    head = "n = 3\nr = 0\ngraph = adjacency:\n"
    for block, message in (
        ("0 1 1\n101\n110\n", "invalid adjacency entry ' ' at (1,2)"),
        ("011\n201\n110\n", "invalid adjacency entry '2' at (2,1)"),
        ("011\n101\n11x\n", "invalid adjacency entry 'x' at (3,3)"),
        ("0110\n101\n110\n", "non-square adjacency: row 1 has 4 entries, expected 3"),
        ("011\n10\n110\n", "non-square adjacency: row 2 has 2 entries, expected 3"),
        ("011\n100\n110\n", "asymmetric at (2,3)"),
    ):
        with pytest.raises(CodeFileError) as info:
            parse_code_file(head + block + "word = 000\n")
        assert str(info.value) == "bad adjacency block: " + message


def test_code_file_errors():
    with pytest.raises(CodeFileError, match="missing required key 'n'"):
        parse_code_file("r = 1\n")
    with pytest.raises(CodeFileError, match="'n' must precede"):
        parse_code_file("graph = ring\n")
    with pytest.raises(CodeFileError, match="line 2"):
        parse_code_file("n = 5\nwat\n")
    with pytest.raises(CodeFileError, match="unknown key"):
        parse_code_file("n = 5\nbogus = 1\n")
    with pytest.raises(CodeFileError, match="duplicate key 'n'"):
        parse_code_file("n = 5\nn = 5\n")
    with pytest.raises(CodeFileError, match="length"):
        parse_code_file("n = 5\nr = 1\ngraph = ring\nword = 0000\n")
    with pytest.raises(CodeFileError, match="adjacency block ended"):
        parse_code_file("n = 3\nr = 0\ngraph = adjacency:\n011\n")
    with pytest.raises(CodeFileError, match=r"invalid adjacency entry ' ' at \(1,2\)"):
        parse_code_file("n = 3\nr = 0\ngraph = adjacency:\n0 1 1\n101\n110\nword = 000\n")
    with pytest.raises(CodeFileError, match=r"invalid adjacency entry '2' at \(2,1\)"):
        parse_code_file("n = 3\nr = 0\ngraph = adjacency:\n011\n201\n110\nword = 000\n")
    adjacency = "graph = adjacency:\n011\n101\n110\n"
    for text, message in (
        # n < 1 fails on its own line, before an adjacency block can take the next one
        ("n = 0\ngraph = adjacency:\nword = 0\n", "line 1: n must be >= 1, got 0"),
        ("n = -2\nr = 0\n", "line 1: n must be >= 1, got -2"),
        ("n = 3\nr = 0\nr = 1\n", "line 3: duplicate key 'r'"),
        ("n = 3\ndistance = 1\ndistance = 2\n", "line 3: duplicate key 'distance'"),
        ("n = 3\ngraph = ring\ngraph = ring\n", "line 3: duplicate key 'graph'"),
        ("n = 3\n" + adjacency + "graph = ring\n", "line 6: duplicate key 'graph'"),
        ("n = 3\ngraph = star\n", "line 2: graph must be 'ring' or 'adjacency:', got 'star'"),
        ("graph = adjacency:\n", "line 1: 'n' must precede 'graph'"),
        ("word = 000\n", "line 1: 'n' must precede 'word'"),
        ("n = 3\ngraph = ring\nword = 000\n", "missing required key 'r'"),
        ("n = 3\nr = 0\nword = 000\n", "missing required key 'graph'"),
        ("n = 3\nr = 0\n" + adjacency, "missing required key 'word'"),
        ("n = three\n", "line 1: n must be an integer, got 'three'"),
        ("n = 3\nr = 1.5\n", "line 2: r must be an integer, got '1.5'"),
        ("n = 3\nr = 0\ngraph = ring\nword = IZ0\n",
         "line 4: word 'IZ0' is neither a bit string nor an I/Z string"),
        ("n = 3\nr = 0\ngraph = ring\nword =\n", "line 4: empty bit string"),
        ("n = 2\nr = 0\ngraph = ring\n", "line 3: ring graph needs n >= 3, got n=2"),
        ("n = 3\nr = 0\ngraph = ring\ndistance = 0\nword = 000\n",
         "line 4: claimed distance 0 must be >= 1"),
        # a negative distance fails on its own line, before any word is read
        ("n = 3\ndistance = -1\nword = 0\n", "line 2: claimed distance -1 must be >= 1"),
        # new_code's own checks come through with its message
        ("n = 3\nr = 5\ngraph = ring\nword = 000\n", "gauge count r=5 out of range for n=3"),
    ):
        with pytest.raises(CodeFileError) as info:
            parse_code_file(text)
        assert str(info.value) == message, text


def test_word_values_outside_the_file_format_keep_their_messages():
    # int(_, 2) would take some of these, reversed or not: each must fail as before
    head = "n = 5\nr = 0\ngraph = ring\nword = "
    neither = "line 4: word {!r} is neither a bit string nor an I/Z string"
    for value, message in (
        ("0_101", neither), ("101_0", neither),
        ("+0101", neither), ("0101+", neither), ("-0101", neither),
        ("0b101", neither), ("101b0", neither),
        ("01201", neither), ("0Z101", neither), ("0 101", neither),
        ("0101", "line 4: word '0101' has length 4, expected 5"),
        ("010110", "line 4: word '010110' has length 6, expected 5"),
        ("IZI", "line 4: word 'IZI' has length 3, expected 5"),
    ):
        with pytest.raises(CodeFileError) as info:
            parse_code_file(head + value + "\n")
        assert str(info.value) == message.format(value), value
    # whole words, 0/1 and I/Z alike, qubit 1 leftmost
    for value, word in (("00000", 0), ("10000", 1), ("01101", 0b10110), ("11111", 31),
                        ("IIIII", 0), ("ZIIIZ", 0b10001), ("IZZIZ", 0b10110)):
        assert parse_code_file(head + value + "\n").words == (word,), value


def test_k216_code_file_words_match_a_per_character_parse():
    text = (PERFBENCH / "data" / "ring16_r1_d3_greedy.ocws").read_text()
    values = [line.split("=", 1)[1].strip() for line in text.splitlines()
              if line.startswith("word")]
    reference = [sum(1 << i for i, char in enumerate(value) if char == "1") for value in values]
    assert len(reference) == 216
    assert list(parse_code_file(text).words) == reference


def test_fixture_files_parse(code_8_1_1_3, code_9_3_1_3, code_9_4_1_3, code_ring5_r2):
    from pathlib import Path

    from conftest import fixture_path

    expected = {
        "8_1_1_3.ocws": code_8_1_1_3,
        "9_3_1_3.ocws": code_9_3_1_3,
        "9_4_1_3.ocws": code_9_4_1_3,
        "ring5_r2.ocws": code_ring5_r2,
    }
    for name, code in expected.items():
        text = Path(fixture_path(name)).read_text()
        assert parse_code_file(text) == code
        assert write_code_file(code) == text
