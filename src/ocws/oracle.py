"""Dense state-vector oracle for small codes.

Everything here is brute force on purpose: the code space is materialized
as explicit vectors and the correctability condition is checked by direct
matrix arithmetic, independently of the symbolic GF(2) machinery.  Memory
bounds the qubit count at 14.

For every pair of swept errors, the matrix of E_a E_b in the codeword
basis must vanish between logical sectors and act identically (up to a
global phase) on the gauge factor of every sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import OcwsCode
from .graph import Graph, edges, stabilizer_generator
from .pauli import PauliOperator, multiply

__all__ = [
    "DenseState",
    "OqecCheckReport",
    "build_graph_state",
    "apply_pauli",
    "codeword_basis",
    "oqec_check",
]

_MAX_DENSE_QUBITS = 14

_idx16 = np.arange(1 << 16, dtype=np.uint32)
_t = _idx16.copy()
for _shift in (8, 4, 2, 1):
    _t ^= _t >> _shift
_PARITY16 = (_t & 1).astype(np.uint8)
del _idx16, _t, _shift


def _parity(values: np.ndarray) -> np.ndarray:
    """Bit-count parity per entry for masks below 2^32."""
    return _PARITY16[values & 0xFFFF] ^ _PARITY16[(values >> 16) & 0xFFFF]


@dataclass(frozen=True)
class DenseState:
    """A normalized pure state on n qubits as 2^n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude vector has shape {amp.shape}, expected ({1 << self.n},)"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class OqecCheckReport:
    """Residuals of the correctability condition over an error sweep."""

    max_off_block: float
    max_block_deviation: float
    tolerance: float
    passed: bool


def build_graph_state(graph: Graph) -> DenseState:
    """The unique common +1 eigenstate of the graph's stabilizer generators.

    Built from the uniform superposition by a controlled-phase per edge,
    then checked against every generator to 1e-12.
    """
    n = graph.n
    if n > _MAX_DENSE_QUBITS:
        raise ValueError(f"n={n} too large for dense states (limit {_MAX_DENSE_QUBITS})")
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
    idx = np.arange(1 << state.n, dtype=np.uint32)
    signs = 1.0 - 2.0 * _parity(idx & np.uint32(p.z)).astype(float)
    return DenseState(state.n, state.amplitudes[idx ^ np.uint32(p.x)] * signs)


def _basis_matrix(code: OcwsCode, base: np.ndarray | None = None) -> np.ndarray:
    """Rows are the codeword basis states, logical index major.

    Row l * 2^r + b holds Z^(c_l xor pattern(b)) applied to the base state,
    where pattern(b) places b on the gauge qubits.  Orthonormality is
    enforced to 1e-10.
    """
    if base is None:
        base = build_graph_state(code.graph).amplitudes
    dim = 1 << code.n
    idx = np.arange(dim, dtype=np.uint32)
    rows = []
    for word in code.words:
        for b in range(1 << code.r):
            zmask = np.uint32(word ^ (b << code.s))
            signs = 1.0 - 2.0 * _parity(idx & zmask).astype(float)
            rows.append(base * signs)
    basis = np.array(rows)
    gram = np.conj(basis) @ basis.T
    if np.max(np.abs(gram - np.eye(len(rows)))) > 1e-10:
        raise ValueError("codeword basis is not orthonormal; the code is invalid")
    return basis


def codeword_basis(code: OcwsCode) -> list[DenseState]:
    """Orthonormal basis of the code space, indexed by (logical, gauge)."""
    return [DenseState(code.n, row) for row in _basis_matrix(code)]


def _residuals(
    code: OcwsCode, basis: np.ndarray, errors: list[PauliOperator]
) -> tuple[float, float]:
    K = code.K
    g = 1 << code.r
    dim = 1 << code.n
    idx = np.arange(dim, dtype=np.uint32)
    products: dict[tuple[int, int], PauliOperator] = {}
    for ea in errors:
        for eb in errors:
            q = multiply(ea, eb)
            products.setdefault((q.x, q.z), q)
    max_off = 0.0
    max_dev = 0.0
    for q in products.values():
        signs = 1.0 - 2.0 * _parity(idx & np.uint32(q.z)).astype(float)
        moved = basis[:, idx ^ np.uint32(q.x)] * signs
        m = (np.conj(basis) @ moved.T).reshape(K, g, K, g)
        off = m.copy()
        for l in range(K):
            off[l, :, l, :] = 0.0
        if K > 1:
            max_off = max(max_off, float(np.max(np.abs(off))))
        for l in range(K):
            for mm in range(l + 1, K):
                inner = np.vdot(m[mm, :, mm, :], m[l, :, l, :])
                phase = inner / abs(inner) if abs(inner) > 0.0 else 1.0
                dev = np.linalg.norm(m[l, :, l, :] - phase * m[mm, :, mm, :])
                max_dev = max(max_dev, float(dev))
    return max_off, max_dev


def oqec_check(
    code: OcwsCode, errors: list[PauliOperator], tol: float = 1e-9
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
    for e in errors:
        if e.n != code.n:
            raise ValueError(f"operator length {e.n} does not match code n={code.n}")
    basis = _basis_matrix(code)
    max_off, max_dev = _residuals(code, basis, list(errors))
    return OqecCheckReport(
        max_off_block=max_off,
        max_block_deviation=max_dev,
        tolerance=tol,
        passed=max_off <= tol and max_dev <= tol,
    )
