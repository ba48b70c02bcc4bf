"""Dense state-vector oracle for small codes.

Everything here is brute force on purpose: the code space is materialized
as explicit vectors and the correctability condition is checked by direct
matrix arithmetic, independently of the symbolic GF(2) machinery.  Memory
bounds the qubit count at 14 and the codeword basis at 2^22 entries.

For every pair of swept errors, the matrix of E_a E_b in the codeword
basis must vanish between logical sectors and act identically (up to a
global phase) on the gauge factor of every sector.

The graph state, `apply_pauli` and the basis build apply a Pauli through
`_act`.  The residual sweep does not: it groups the products by Z part,
fills one buffer per group with the conjugated basis times that part's
signs, and gathers each X part into a second, so a product costs one
gather and one gemm.  Both buffers are reused, so no product allocates a
new 2^n-wide array: gathering and then multiplying into fresh arrays cost
over 10^5 minor page faults per sweep on a ring-10 code, against a few
hundred.  On the benchmark's codes the products have about 8 times fewer
Z parts, so the sign pass almost vanishes.

Each product's K diagonal gauge blocks are copied into a second buffer of
at most an eighth of the basis entries, and a full buffer is compared in a
few array operations per sector, for all its products at once: a `vdot`
and a norm per sector pair per product were 40% of an `oracle-check` run
on a ring-10 code with K = 8.  The comparison still subtracts the phase-aligned
blocks and takes the norm of their difference, never a closed-form norm
identity, for the reason `oqec_check` gives.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Collection, Iterable

import numpy as np

from .code import OcwsCode
from .graph import Graph, edges, stabilizer_generator
from .pauli import PauliOperator

__all__ = [
    "DenseState",
    "OqecCheckReport",
    "check_dense_size",
    "build_graph_state",
    "apply_pauli",
    "codeword_basis",
    "oqec_check",
]

_MAX_DENSE_QUBITS = 14
_MAX_BASIS_ENTRIES = 1 << 22


def _act(vectors: np.ndarray, x: int, z: int) -> np.ndarray:
    """Z^z X^x on the last axis: gather at index xor x, then flip signs."""
    idx = np.arange(vectors.shape[-1], dtype=np.uint32)
    out = np.take(vectors, idx ^ np.uint32(x), axis=-1)
    out *= 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1)
    return out


class DenseState(namedtuple("DenseState", "n amplitudes")):
    """A normalized pure state on n qubits as 2^n complex amplitudes."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__

    def __new__(cls, n: int, amplitudes: np.ndarray) -> DenseState:
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (1 << n,):
            raise ValueError(f"amplitude vector has shape {amp.shape}, expected ({1 << n},)")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-12")
        return super().__new__(cls, n, amp)


class OqecCheckReport(
    namedtuple(
        "OqecCheckReport", "max_off_block max_block_deviation tolerance passed products"
    )
):
    """Residuals of the correctability condition over an error sweep.

    passed is whether both residuals are within tolerance; products counts
    the distinct error products measured.
    """

    __slots__ = ()


def check_dense_size(n: int, rows: int = 1) -> None:
    """Reject dense states, or a basis of `rows` of them, too large for memory.

    A residual sweep holds the basis and two work arrays of its size, each
    64 MiB at the limit of 2^22 complex values.  Beyond the basis, its
    traced peak on the benchmark's codes is 2.6 to 3.1 basis sizes: the two
    work arrays, the block buffer and per-column index and sign vectors.
    """
    if n > _MAX_DENSE_QUBITS:
        raise ValueError(f"n={n} too large for dense states (limit {_MAX_DENSE_QUBITS})")
    if rows << n > _MAX_BASIS_ENTRIES:
        raise ValueError(
            f"codeword basis of shape ({rows}, {1 << n}) too large for dense states "
            f"(limit {_MAX_BASIS_ENTRIES} entries)"
        )


def build_graph_state(graph: Graph) -> DenseState:
    """The unique common +1 eigenstate of the graph's stabilizer generators.

    Built from the uniform superposition by a controlled-phase per edge,
    then checked against every generator to 1e-12.
    """
    n = graph.n
    check_dense_size(n)
    dim = 1 << n
    amp = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    idx = np.arange(dim, dtype=np.uint32)
    for i, j in edges(graph):
        both = np.uint32((1 << (i - 1)) | (1 << (j - 1)))
        amp[(idx & both) == both] *= -1.0
    state = DenseState(n, amp)
    for i in range(1, n + 1):
        fixed = apply_pauli(stabilizer_generator(graph, i), state)
        if np.max(np.abs(fixed.amplitudes - amp)) > 1e-12:
            raise AssertionError(f"graph state is not fixed by generator {i}")
    return state


def apply_pauli(p: PauliOperator, state: DenseState) -> DenseState:
    """Apply Z^z X^x as an index permutation with sign flips.

    The result can differ from other operator orderings by a global phase
    only, which no check here depends on.
    """
    if p.n != state.n:
        raise ValueError(f"operator length {p.n} does not match state n={state.n}")
    return DenseState(state.n, _act(state.amplitudes, p.x, p.z))


def _basis_matrix(code: OcwsCode, base: np.ndarray | None = None) -> np.ndarray:
    """Rows are the codeword basis states, logical index major.

    Row l * 2^r + b holds Z^(c_l xor pattern(b)) applied to the base state,
    where pattern(b) places b on the gauge qubits.  Orthonormality is
    enforced to 1e-10.
    """
    check_dense_size(code.n, code.K << code.r)
    if base is None:
        base = build_graph_state(code.graph).amplitudes
    basis = np.array(
        [_act(base, 0, w ^ (b << code.s)) for w in code.words for b in range(1 << code.r)]
    )
    gram = np.conj(basis) @ basis.T
    if np.max(np.abs(gram - np.eye(len(basis)))) > 1e-10:
        raise ValueError("codeword basis is not orthonormal; the code is invalid")
    return basis


def codeword_basis(code: OcwsCode) -> list[DenseState]:
    """Orthonormal basis of the code space, indexed by (logical, gauge)."""
    return [DenseState(code.n, row) for row in _basis_matrix(code)]


def _products(errors: list[PauliOperator]) -> set[tuple[int, int]]:
    """The (x, z) of E_a E_b for every ordered pair, phase dropped."""
    return {(a.x ^ b.x, a.z ^ b.z) for a in errors for b in errors}


def _block_deviation(blocks: np.ndarray) -> float:
    """Largest phase-aligned distance between two sectors' blocks of one product.

    blocks[p, l] is the gauge block of sector l for buffered product p.  For
    each sector l, all later sectors mm of all products are compared at
    once, as `np.vdot(D_mm, D_l)` per pair would: the phase is inner/|inner|,
    or 1 when |inner| is 0, and the result is the norm of D_l - phase * D_mm.
    """
    count, K, g, _ = blocks.shape
    flat = blocks.reshape(count, K, g * g)
    worst = 0.0
    for l in range(K - 1):
        own = flat[:, l, None, :]
        rest = flat[:, l + 1 :, :]
        inner = np.vecdot(rest, own)
        size = np.abs(inner)
        phase = np.divide(inner, size, out=np.ones_like(inner), where=size > 0.0)
        diff = (own - phase[..., None] * rest).view(float)
        worst = max(worst, float(np.vecdot(diff, diff).max(initial=0.0)))
    return float(np.sqrt(worst))


def _residuals(
    code: OcwsCode, basis: np.ndarray, products: Collection[tuple[int, int]]
) -> tuple[float, float]:
    """Largest off-block entry and largest block deviation over the products.

    products holds distinct (x, z) pairs, as `_products` gives them, in
    any order.  They are swept grouped by z: per group, `signed` is the
    conjugated basis times the signs of Z^z, and per product `moved` is the
    basis gathered at index xor x, so one gemm gives the product's matrix in
    the codeword basis.  A sign of +-1 is exact on either side of the gemm,
    so every term, and every residual, is the same bit for bit as with the
    signs on the gathered side.  Each matrix's diagonal gauge blocks go to
    a buffer of at most an eighth of the basis entries, compared by
    `_block_deviation` whenever it is full and once more at the end, so no
    temporary grows as K^2 g^2.  The blocks are
    subtracted explicitly after phase alignment, as `oqec_check` requires.
    """
    K = code.K
    g = 1 << code.r
    by_z: dict[int, list[int]] = {}
    for x, z in products:
        by_z.setdefault(z, []).append(x)
    idx = np.arange(basis.shape[-1], dtype=np.uint32)
    signed = np.empty_like(basis)
    moved = np.empty_like(basis)
    off_block = ~np.eye(K, dtype=bool)[:, None, :, None]
    capacity = min(max(1, basis.size // (8 * K * g * g)), len(products))
    blocks = np.empty((capacity, K, g, g), dtype=complex)
    filled = 0
    max_off = 0.0
    max_dev = 0.0
    for z, xs in by_z.items():
        np.conjugate(basis, out=signed)
        signed *= 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(z)) & 1)
        for x in xs:
            if x:
                # every index is in range; "clip" keeps np.take from staging a copy
                np.take(basis, idx ^ np.uint32(x), axis=-1, out=moved, mode="clip")
            m = (signed @ (moved if x else basis).T).reshape(K, g, K, g)
            max_off = max(max_off, float(np.abs(m).max(where=off_block, initial=0.0)))
            blocks[filled] = m.diagonal(axis1=0, axis2=2).transpose(2, 0, 1)
            filled += 1
            if filled == len(blocks):
                max_dev = max(max_dev, _block_deviation(blocks))
                filled = 0
    return max_off, max(max_dev, _block_deviation(blocks[:filled]))


def oqec_check(
    code: OcwsCode, errors: Iterable[PauliOperator], tol: float = 1e-9
) -> OqecCheckReport:
    """Check correctability of an error set directly on dense states.

    For every ordered pair from the sweep the product operator is formed
    (deduplicated up to phase, which cancels in both residuals) and its
    matrix in the codeword basis is measured for leakage between logical
    sectors and for disagreement between per-sector gauge blocks after
    aligning their global phases.  Blocks are compared by explicit
    alignment and subtraction; a closed-form norm identity loses about
    eight digits to cancellation exactly in the all-pass case it matters.
    """
    if not tol > 0:
        raise ValueError(f"tolerance {tol} must be positive")
    errors = list(errors)
    for e in errors:
        if e.n != code.n:
            raise ValueError(f"operator length {e.n} does not match code n={code.n}")
    basis = _basis_matrix(code)
    products = _products(errors)
    max_off, max_dev = _residuals(code, basis, products)
    return OqecCheckReport(
        max_off_block=max_off,
        max_block_deviation=max_dev,
        tolerance=tol,
        passed=max_off <= tol and max_dev <= tol,
        products=len(products),
    )
