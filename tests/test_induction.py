"""Induced errors and their gauge reduction.

The single-qubit tables for the 5-ring with two gauge qubits are frozen
here in full; they are the reference values the induce subcommand must
reproduce byte for byte.
"""

import itertools
import math
import random

import pytest

from ocws import (
    enumerate_paulis,
    format_pauli,
    format_zstring,
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
from ocws.induction import _zero_class
from conftest import gauge_elimination, random_code, random_graph, symplectic

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


def test_zero_class_scan_is_the_per_pauli_zero_class_in_order():
    rng = random.Random(3421)
    past_n = with_x = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        code = random_code(rng, random_graph(rng, n), rng.randint(0, n - 1), 1)
        t = rng.randint(0, n + 2) if n <= 5 else rng.randint(0, 3)
        past_n += t > n
        expected = [
            e.x for e in enumerate_paulis(n, min(t, n))
            if gauge_reduce(code, induce(code, e)) == 0
        ]
        assert list(_zero_class(code, t)) == expected, (code, t)
        with_x += any(expected)
    assert past_n >= 20 and with_x >= 20, (past_n, with_x)


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


def _fresh_images(n, x_images, z_images, support, index):
    """The image of the Pauli at a position, rebuilt from its own letters."""
    e = pauli_at(n, support, index)
    image = 0
    for q in range(n):
        image ^= (x_images[q] if e.x >> q & 1 else 0) ^ (z_images[q] if e.z >> q & 1 else 0)
    return e, image


def test_pauli_images_lists_stand_alone():
    """Every list of a finished sweep still holds its own support's images.

    The sweep is materialized first, so a list that shares storage with its
    prefix's list, or that a later support changed, would fail here; n = 9
    at every weight runs the supports wider than one list (w = 7, 8, 9).
    """
    rng = random.Random(27)
    cases = [(9, w, [1 << (q + 9) for q in range(9)], [1 << q for q in range(9)])
             for w in range(10)]
    cases.append((12, 3, [rng.getrandbits(12) for _ in range(12)],
                  [rng.getrandbits(12) for _ in range(12)]))
    for n, w, x_images, z_images in cases:
        sweep = list(pauli_images(x_images, z_images, w))
        paulis = []
        for support, offset, images in sweep:
            for i, v in enumerate(images, offset):
                e, image = _fresh_images(n, x_images, z_images, support, i)
                assert v == image, (n, w, support, i)
                paulis.append(e)
        if n == 9:
            assert paulis == list(paulis_of_weight(n, w))
        assert len(paulis) == len(set(paulis)) == 3**w * math.comb(n, w)


@pytest.mark.parametrize("n", range(9, 13))
def test_pauli_images_run_across_supports_below_weight_six(n):
    """Below weight 6 each list is one run of at most 3^(6 - w) supports that share
    all but the last qubit, from the run's first support at offset 0."""
    for w in range(1, 6):
        runs = []
        for _prefix, group in itertools.groupby(
            itertools.combinations(range(n), w), key=lambda support: support[:-1]
        ):
            group = list(group)
            runs += [(group[i], 0, len(group[i:i + 3 ** (6 - w)]) * 3**w)
                     for i in range(0, len(group), 3 ** (6 - w))]
        sweep = pauli_images([1 << (q + n) for q in range(n)], [1 << q for q in range(n)], w)
        assert [(support, offset, len(images)) for support, offset, images in sweep] == runs
        assert max(size for _support, _offset, size in runs) <= 3**6


@pytest.mark.parametrize("n", [7, 9])
def test_pauli_at_reads_positions_past_a_support_on_the_raised_support(n):
    """Position i >= 3^w on a support names the Pauli at i mod 3^w on the support
    whose last qubit is raised by i // 3^w."""
    for w in range(1, 6):
        reference = list(_reference_paulis(n, w))
        rank = {support: i for i, support in enumerate(itertools.combinations(range(n), w))}
        for support in rank:
            for i in range(3**w, (n - support[-1]) * 3**w):
                raised = (*support[:-1], support[-1] + i // 3**w)
                assert pauli_at(n, support, i) == reference[rank[raised] * 3**w + i % 3**w]


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
        basis = gauge_elimination(code)
        residues = (
            [basis.reduce(1 << (q + n))[0] for q in range(n)],
            [basis.reduce(1 << q)[0] for q in range(n)],
        )
        raw = induced_images(code)
        reduced = induced_images(code, (1 << code.s) - 1)
        for w in range(n + 1) if n <= 6 else (7,):
            for e, v in _rebuilt(n, pauli_images(*residues, w)):
                assert v == basis.reduce(symplectic(e))[0]
            for e, v in _rebuilt(n, pauli_images(*raw, w)):
                assert v == induce(code, e)
            for e, v in _rebuilt(n, pauli_images(*reduced, w)):
                assert v == gauge_reduce(code, induce(code, e))


def test_gauge_residues_are_the_reduced_induced_images():
    """The operator sweep's per-qubit residues equal the search's reduced images.

    Every pivot of the eliminated gauge generators is an X bit or a gauge Z
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
        basis = gauge_elimination(code)
        residues = (
            [basis.reduce(1 << (q + n))[0] for q in range(n)],
            [basis.reduce(1 << q)[0] for q in range(n)],
        )
        assert residues == induced_images(code, (1 << code.s) - 1)
        assert [basis.reduce(c)[0] for c in code.words] == list(code.words)
