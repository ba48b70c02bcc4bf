"""Induced errors: the Z-type image of a Pauli error on a graph state.

Multiplying an error E into the graph-state generators shows E acts on the
code space exactly like a Z-type operator whose bit-vector is

    ind(E) = z(E) XOR (XOR of adjacency rows at the X-support of E).

Reducing that vector modulo the Z-type gauge generators (clearing the last
r bits) yields the effective classical error the words must discriminate.
Both maps are GF(2)-linear: pauli_images sweeps Paulis as XORs of per-qubit
images, image_positions picks out the images in a key set, and pauli_at
rebuilds one operator only when it is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import xor

from .code import OcwsCode
from .pauli import PauliOperator

__all__ = [
    "InducedError",
    "induce",
    "gauge_reduce",
    "induced_images",
    "pauli_images",
    "pauli_at",
    "image_positions",
    "paulis_of_weight",
    "enumerate_paulis",
    "induced_error_set",
]


@dataclass(frozen=True)
class InducedError:
    """A reduced induced-error class and every swept Pauli mapping to it."""

    bits: int
    sources: tuple[PauliOperator, ...]


def induce(code: OcwsCode, e: PauliOperator) -> int:
    """Raw induced Z bit-vector of e (before gauge reduction)."""
    if e.n != code.n:
        raise ValueError(f"operator length {e.n} does not match code n={code.n}")
    bits = e.z
    x = e.x
    rows = code.graph.rows
    while x:
        low = x & -x
        bits ^= rows[low.bit_length() - 1]
        x ^= low
    return bits


def gauge_reduce(code: OcwsCode, bits: int) -> int:
    """Clear the gauge-qubit bits (positions s+1..n)."""
    return bits & ((1 << code.s) - 1)


def induced_images(code: OcwsCode, mask: int = -1) -> tuple[list[int], list[int]]:
    """Induced images of X and of Z on each qubit, ANDed with mask."""
    return [row & mask for row in code.graph.rows], [(1 << q) & mask for q in range(code.n)]


_TAIL = 6  # qubits whose letters one list of pauli_images spans: at most 3^6 images


def _letters(x: int, z: int) -> tuple[int, int, int]:
    """Images of X, Y and Z from those of X and Z, in canonical letter order."""
    return x, x ^ z, z


def pauli_images(x_images: list[int], z_images: list[int], w: int):
    """Images of the weight-w Paulis under a GF(2)-linear map, in canonical order.

    x_images[q] and z_images[q] are the images of X and Z on qubit q.  Yields
    (support, offset, images); images runs on from position offset within
    the support and spans the letters of its last min(w, 6) qubits.
    """
    letters = [_letters(x, z) for x, z in zip(x_images, z_images)]
    for support in itertools.combinations(range(len(letters)), w):
        tail = [0]
        for q in support[-_TAIL:]:
            tail = [t ^ image for t in tail for image in letters[q]]
        for i, choice in enumerate(itertools.product(*(letters[q] for q in support[:-_TAIL]))):
            prefix = reduce(xor, choice, 0)
            yield support, i * len(tail), [prefix ^ t for t in tail] if prefix else tail


def pauli_at(n: int, support: tuple[int, ...], index: int) -> PauliOperator:
    """The Pauli at position index on a support, in pauli_images order."""
    v = 0
    for q in reversed(support):
        index, letter = divmod(index, 3)
        v ^= _letters(1 << (q + n), 1 << q)[letter]
    return PauliOperator(n, x=v >> n, z=v & ((1 << n) - 1))


def image_positions(sweep, keys):
    """(support, index, image) of each image of a pauli_images sweep in keys, in order."""
    for support, offset, images in sweep:
        if not keys.isdisjoint(images):
            yield from ((support, i, v) for i, v in enumerate(images, offset) if v in keys)


def paulis_of_weight(n: int, w: int):
    """Yield the Paulis of weight exactly w in canonical order.

    Supports run in lexicographic order of ascending qubit index; within a
    support, letters run through X, Y, Z per qubit in product order: this
    is pauli_images on the symplectic vectors (x << n) | z.
    """
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for n={n}")
    sweep = pauli_images([1 << (q + n) for q in range(n)], [1 << q for q in range(n)], w)
    for _support, _offset, images in sweep:
        for v in images:
            yield PauliOperator(n, x=v >> n, z=v & ((1 << n) - 1))


def enumerate_paulis(
    n: int, max_weight: int, include_identity: bool = False
) -> list[PauliOperator]:
    """All Paulis of weight <= max_weight, ordered by weight then support."""
    if not 0 <= max_weight <= n:
        raise ValueError(f"max_weight {max_weight} out of range for n={n}")
    first = 0 if include_identity else 1
    return [e for w in range(first, max_weight + 1) for e in paulis_of_weight(n, w)]


def induced_error_set(code: OcwsCode, max_weight: int) -> list[InducedError]:
    """Distinct reduced induced-error classes over all Paulis of weight <= max_weight.

    Classes appear in order of first appearance during the enumeration;
    each class lists its source Paulis in enumeration order.  The zero
    class is included when some swept Pauli reduces to it.
    """
    if max_weight < 1:
        raise ValueError(f"max_weight {max_weight} must be >= 1")
    classes: dict[int, list[PauliOperator]] = {}
    for e in enumerate_paulis(code.n, max_weight):
        bits = gauge_reduce(code, induce(code, e))
        classes.setdefault(bits, []).append(e)
    return [InducedError(bits, tuple(sources)) for bits, sources in classes.items()]
