"""Induced errors and their gauge reduction.

The single-qubit tables for the 5-ring with two gauge qubits are frozen
here in full; they are the reference values the induce subcommand must
reproduce byte for byte.
"""

import itertools
import random

import pytest

from ocws import (
    enumerate_paulis,
    format_pauli,
    format_zstring,
    gauge_generators,
    gauge_reduce,
    induce,
    induced_error_set,
    induced_images,
    multiply,
    new_code,
    parse_pauli,
    pauli_at,
    pauli_images,
    paulis_of_weight,
    ring_graph,
    weight,
)
from conftest import random_code, random_graph

# raw and reduced induced Z-strings for every single-qubit Pauli on the
# 5-ring with r = 2 (gauge qubits 4 and 5)
RING5_R2_TABLE = {
    "XIIII": ("IZIIZ", "IZIII"),
    "IXIII": ("ZIZII", "ZIZII"),
    "IIXII": ("IZIZI", "IZIII"),
    "IIIXI": ("IIZIZ", "IIZII"),
    "IIIIX": ("ZIIZI", "ZIIII"),
    "YIIII": ("ZZIIZ", "ZZIII"),
    "IYIII": ("ZZZII", "ZZZII"),
    "IIYII": ("IZZZI", "IZZII"),
    "IIIYI": ("IIZZZ", "IIZII"),
    "IIIIY": ("ZIIZZ", "ZIIII"),
    "ZIIII": ("ZIIII", "ZIIII"),
    "IZIII": ("IZIII", "IZIII"),
    "IIZII": ("IIZII", "IIZII"),
    "IIIZI": ("IIIZI", "IIIII"),
    "IIIIZ": ("IIIIZ", "IIIII"),
}


@pytest.fixture
def skeleton5():
    return new_code(ring_graph(5), 2, (0,))


def test_single_qubit_table_raw_and_reduced(skeleton5):
    for text, (raw_want, reduced_want) in RING5_R2_TABLE.items():
        e = parse_pauli(text)
        raw = induce(skeleton5, e)
        assert format_zstring(raw, 5) == raw_want, text
        assert format_zstring(gauge_reduce(skeleton5, raw), 5) == reduced_want, text


def test_induce_z_error_is_its_own_image(skeleton5):
    assert induce(skeleton5, parse_pauli("ZZIII")) == 0b00011


def test_induce_x_error_xors_adjacency_rows(skeleton5):
    # X on vertices 1 and 2 collects both neighbor rows
    e = parse_pauli("XXIII")
    assert induce(skeleton5, e) == skeleton5.graph.rows[0] ^ skeleton5.graph.rows[1]


def test_induce_is_linear_under_multiplication(skeleton5):
    a = parse_pauli("XYIIZ")
    b = parse_pauli("IZXIY")
    assert induce(skeleton5, multiply(a, b)) == induce(skeleton5, a) ^ induce(skeleton5, b)


def test_gauge_reduce_clears_only_gauge_bits(skeleton5):
    assert gauge_reduce(skeleton5, 0b11111) == 0b00111
    assert gauge_reduce(skeleton5, 0b11000) == 0


def test_enumerate_paulis_count_and_order():
    paulis = enumerate_paulis(4, 2)
    # 4*3 single-qubit + C(4,2)*9 two-qubit
    assert len(paulis) == 12 + 54
    assert [format_pauli(p) for p in paulis[:6]] == [
        "XIII",
        "YIII",
        "ZIII",
        "IXII",
        "IYII",
        "IZII",
    ]
    assert weight(paulis[11]) == 1
    assert weight(paulis[12]) == 2
    assert format_pauli(paulis[12]) == "XXII"


def test_enumerate_paulis_identity_flag():
    with_id = enumerate_paulis(3, 1, include_identity=True)
    assert format_pauli(with_id[0]) == "III"
    assert len(with_id) == 1 + 9


def test_enumerate_paulis_rejects_bad_weight():
    with pytest.raises(ValueError):
        enumerate_paulis(3, 4)
    with pytest.raises(ValueError):
        enumerate_paulis(3, -1)
    for w in (-1, 4):
        with pytest.raises(ValueError) as info:
            next(paulis_of_weight(3, w))
        assert str(info.value) == f"weight {w} out of range for n=3"


def test_paulis_of_weight_matches_enumeration():
    assert list(paulis_of_weight(5, 2)) == enumerate_paulis(5, 2)[15:]


def test_class_count_8_ring(code_8_1_1_3):
    classes = induced_error_set(code_8_1_1_3, 1)
    assert len(classes) == 21
    assert sum(len(c.sources) for c in classes) == 24


def test_class_count_9_ring(code_9_3_1_3):
    classes = induced_error_set(code_9_3_1_3, 1)
    assert len(classes) == 24
    assert sum(len(c.sources) for c in classes) == 27


def test_classes_partition_the_sweep(skeleton5):
    classes = induced_error_set(skeleton5, 2)
    seen = {}
    for c in classes:
        for e in c.sources:
            key = (e.x, e.z)
            assert key not in seen
            seen[key] = c.bits
            assert gauge_reduce(skeleton5, induce(skeleton5, e)) == c.bits
    assert len(seen) == len(enumerate_paulis(5, 2))


def test_zero_class_collects_gauge_like_errors(skeleton5):
    classes = induced_error_set(skeleton5, 1)
    zero = [c for c in classes if c.bits == 0]
    assert len(zero) == 1
    assert {format_pauli(e) for e in zero[0].sources} == {"IIIZI", "IIIIZ"}


def test_induced_error_set_rejects_zero_weight(skeleton5):
    with pytest.raises(ValueError):
        induced_error_set(skeleton5, 0)


def _reference_paulis(n, w):
    """The canonical order written out: supports in combinations order, then
    the letters X, Y, Z on each support qubit, the last qubit fastest."""
    for support in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            text = ["I"] * n
            for q, letter in zip(support, letters):
                text[q] = letter
            yield parse_pauli("".join(text))


def _rebuilt(n, sweep):
    """Each image of a sweep with the Pauli that pauli_at puts at its position."""
    out = []
    position = {}
    for support, offset, images in sweep:
        assert offset == position.get(support, 0)
        assert 1 <= len(images) <= 3**6
        position[support] = offset + len(images)
        out += [(pauli_at(n, support, i), v) for i, v in enumerate(images, offset)]
    return out


# (n, w) pairs: every weight for n <= 6, and supports wider than one list for n = 8
_ORDER_CASES = [(n, w) for n in range(1, 7) for w in range(n + 1)] + [(8, 7), (8, 8)]


@pytest.mark.parametrize("n, w", _ORDER_CASES)
def test_pauli_images_follow_the_canonical_order(n, w):
    symplectic = pauli_images([1 << (q + n) for q in range(n)], [1 << q for q in range(n)], w)
    rebuilt = _rebuilt(n, symplectic)
    paulis = [e for e, _ in rebuilt]
    assert paulis == list(paulis_of_weight(n, w)) == list(_reference_paulis(n, w))
    assert all(v == (e.x << n) | e.z for e, v in rebuilt)


def _image_codes():
    rng = random.Random(5)
    codes = [new_code(ring_graph(8), 2, (0,))]
    for _ in range(12):
        n = rng.randint(2, 6)
        codes.append(new_code(random_graph(rng, n), rng.randint(0, n - 1), (0,)))
    return codes


def test_images_equal_the_per_pauli_maps():
    for code in _image_codes():
        n = code.n
        basis = gauge_generators(code).basis
        residues = (
            [basis.canonical(1 << (q + n)) for q in range(n)],
            [basis.canonical(1 << q) for q in range(n)],
        )
        raw = induced_images(code)
        reduced = induced_images(code, (1 << code.s) - 1)
        for w in range(n + 1) if n <= 6 else (7,):
            for e, v in _rebuilt(n, pauli_images(*residues, w)):
                assert v == basis.canonical((e.x << n) | e.z)
            for e, v in _rebuilt(n, pauli_images(*raw, w)):
                assert v == induce(code, e)
            for e, v in _rebuilt(n, pauli_images(*reduced, w)):
                assert v == gauge_reduce(code, induce(code, e))


def test_gauge_residues_are_the_reduced_induced_images():
    """The operator sweep's per-qubit residues equal the search's reduced images.

    Every pivot of the fully reduced gauge basis is an X bit or a gauge Z
    bit, so reducing a Pauli clears its X part through the graph rows and
    then the gauge bits, which leaves its reduced induced image; a word has
    no pivot bit and is its own residue.
    """
    rng = random.Random(88)
    codes = [new_code(ring_graph(5), 0, (0,)), new_code(ring_graph(6), 2, (0,))]
    for _ in range(40):
        n = rng.randint(2, 9)
        r = rng.choice([0, 0, rng.randint(0, n - 1)])
        K = rng.choice([1, rng.randint(1, min(8, 1 << (n - r)))])
        codes.append(random_code(rng, random_graph(rng, n), r, K))
    assert any(c.r == 0 for c in codes) and any(c.K == 1 for c in codes)
    for code in codes:
        n = code.n
        canonical = gauge_generators(code).basis.canonical
        residues = (
            [canonical(1 << (q + n)) for q in range(n)],
            [canonical(1 << q) for q in range(n)],
        )
        assert residues == induced_images(code, (1 << code.s) - 1)
        assert [canonical(c) for c in code.words] == list(code.words)
