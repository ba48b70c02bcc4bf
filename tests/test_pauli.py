"""Pauli bit-mask algebra."""

import random

import pytest

from ocws import (
    PauliOperator,
    commutes,
    format_bits,
    format_pauli,
    format_zstring,
    identity,
    multiply,
    parse_bits,
    parse_pauli,
    parse_zstring,
    weight,
)


def test_parse_format_round_trip():
    for text in ["IXYZ", "XXXX", "IIII", "ZIYX", "X", "ZZ"]:
        p = parse_pauli(text)
        assert format_pauli(p) == text
        assert str(p) == text


def test_parse_sets_expected_masks():
    p = parse_pauli("XIZY")
    # qubit 1 is the leftmost character and the least significant bit
    assert p.x == 0b1001
    assert p.z == 0b1100
    assert p.n == 4


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_pauli("")
    with pytest.raises(ValueError):
        parse_pauli("XIQ")


def test_parse_error_positions_are_one_based():
    with pytest.raises(ValueError, match="position 3"):
        parse_pauli("XIQ")


def test_identity():
    p = identity(5)
    assert p.is_identity
    assert format_pauli(p) == "IIIII"
    assert weight(p) == 0


def test_out_of_range_masks_rejected():
    with pytest.raises(ValueError):
        PauliOperator(2, x=4)
    with pytest.raises(ValueError):
        PauliOperator(2, z=-1)
    with pytest.raises(ValueError, match="at least one qubit, got n=0"):
        PauliOperator(0)


def test_multiply_is_phase_free_xor():
    a = parse_pauli("XYZI")
    b = parse_pauli("YXIZ")
    ab = multiply(a, b)
    assert ab.x == a.x ^ b.x
    assert ab.z == a.z ^ b.z
    assert multiply(a, a).is_identity


def test_multiply_length_mismatch():
    for op in (multiply, commutes):
        with pytest.raises(ValueError, match="Pauli length mismatch: 3 vs 4"):
            op(identity(3), identity(4))


def test_commutes_basic_cases():
    assert commutes(parse_pauli("XI"), parse_pauli("IX"))
    assert commutes(parse_pauli("XX"), parse_pauli("ZZ"))
    assert not commutes(parse_pauli("XI"), parse_pauli("ZI"))
    assert not commutes(parse_pauli("YI"), parse_pauli("ZI"))
    assert commutes(parse_pauli("YI"), parse_pauli("YI"))


def test_weight_counts_non_identity_positions():
    assert weight(parse_pauli("IXYZ")) == 3
    assert weight(parse_pauli("XXXX")) == 4


def test_bit_string_round_trip():
    n, mask = parse_bits("0110")
    assert n == 4
    assert mask == 0b0110
    assert format_bits(mask, 4) == "0110"


def test_zstring_round_trip():
    n, mask = parse_zstring("IZZI")
    assert (n, mask) == (4, 0b0110)
    assert format_zstring(mask, 4) == "IZZI"
    with pytest.raises(ValueError):
        parse_zstring("IZX")


def test_formats_equal_the_per_bit_rendering():
    rng = random.Random(9)
    for n in range(1, 41):
        for mask in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n + 8)):
            assert format_bits(mask, n) == "".join(
                "1" if mask >> i & 1 else "0" for i in range(n)
            )
            assert format_zstring(mask, n) == "".join(
                "Z" if mask >> i & 1 else "I" for i in range(n)
            )
