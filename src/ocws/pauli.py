"""Symplectic bit-mask representation of n-qubit Pauli operators.

An operator is a pair of bit masks ``(x, z)`` packed into Python integers,
with qubit ``i`` stored at bit position ``i - 1``.  Qubit 1 is therefore the
least significant bit and the leftmost character of a Pauli string.  A set
bit in ``x`` contributes an X factor, a set bit in ``z`` a Z factor, and a
bit set in both a Y.  Global phase is not tracked; products and commutation
reduce to word-parallel XOR/AND plus popcounts.

PauliOperator is the named tuple ``(n, x, z)``: immutable, hashable, and
equal to the plain tuple of the same three ints.  Every record of the
package is a named tuple like it, so importing ocws generates no code.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "PauliOperator",
    "identity",
    "parse_pauli",
    "format_pauli",
    "multiply",
    "commutes",
    "weight",
    "parse_bits",
    "format_bits",
    "parse_zstring",
    "format_zstring",
]

_CHAR_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_CHAR = {bits: char for char, bits in _CHAR_BITS.items()}
_ZSTRING = str.maketrans("01", "IZ")


class PauliOperator(namedtuple("PauliOperator", "n x z")):
    """An n-qubit Pauli operator modulo global phase.

    Attributes:
        n: number of qubits (>= 1).
        x: X-part bit mask, qubit i at bit i - 1.
        z: Z-part bit mask, same layout.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__

    def __new__(cls, n: int, x: int = 0, z: int = 0) -> PauliOperator:
        if n < 1:
            raise ValueError(f"Pauli needs at least one qubit, got n={n}")
        mask = (1 << n) - 1
        if not 0 <= x <= mask:
            raise ValueError(f"x mask {x:#x} out of range for n={n}")
        if not 0 <= z <= mask:
            raise ValueError(f"z mask {z:#x} out of range for n={n}")
        return super().__new__(cls, n, x, z)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliOperator:
    """The n-qubit identity operator."""
    return PauliOperator(n)


def parse_pauli(text: str) -> PauliOperator:
    """Parse a Pauli string such as ``"XZIIZ"`` (leftmost character = qubit 1).

    Raises ValueError on empty input or characters outside I, X, Y, Z.
    """
    if not text:
        raise ValueError("empty Pauli string")
    x = z = 0
    for pos, char in enumerate(text):
        try:
            xb, zb = _CHAR_BITS[char]
        except KeyError:
            raise ValueError(
                f"invalid Pauli character {char!r} at position {pos + 1}"
            ) from None
        x |= xb << pos
        z |= zb << pos
    return PauliOperator(len(text), x, z)


def format_pauli(p: PauliOperator) -> str:
    """Inverse of parse_pauli; round-trips exactly."""
    return "".join(
        _BITS_CHAR[(p.x >> i & 1, p.z >> i & 1)] for i in range(p.n)
    )


def multiply(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Group product modulo phase: component-wise XOR of the masks."""
    if a.n != b.n:
        raise ValueError(f"Pauli length mismatch: {a.n} vs {b.n}")
    return PauliOperator(a.n, a.x ^ b.x, a.z ^ b.z)


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic form (a.x . b.z) + (a.z . b.x) vanishes mod 2."""
    if a.n != b.n:
        raise ValueError(f"Pauli length mismatch: {a.n} vs {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def weight(p: PauliOperator) -> int:
    """Number of qubits acted on non-trivially."""
    return (p.x | p.z).bit_count()


def parse_bits(text: str) -> tuple[int, int]:
    """Parse a 0/1 string into ``(n, mask)`` with qubit 1 at the leftmost char."""
    return _parse_letters(text, "01", "bit string", "bit")


def format_bits(bits: int, n: int) -> str:
    """Render the low n bits of a mask as a 0/1 string, qubit 1 leftmost."""
    return format(bits & ((1 << n) - 1), f"0{n}b")[::-1]


def parse_zstring(text: str) -> tuple[int, int]:
    """Parse an I/Z string into ``(n, mask)`` of Z positions."""
    return _parse_letters(text, "IZ", "Z string", "Z-string character")


def _parse_letters(text: str, letters: str, name: str, unit: str) -> tuple[int, int]:
    """``(n, mask)`` of a string over two letters, with the second one's positions set."""
    if not text:
        raise ValueError(f"empty {name}")
    zero, one = letters
    mask = 0
    for pos, char in enumerate(text):
        if char == one:
            mask |= 1 << pos
        elif char != zero:
            raise ValueError(f"invalid {unit} {char!r} at position {pos + 1}")
    return len(text), mask


def format_zstring(bits: int, n: int) -> str:
    """Render the low n bits of a mask as an I/Z string, qubit 1 leftmost."""
    return format(bits & ((1 << n) - 1), f"0{n}b")[::-1].translate(_ZSTRING)
