"""Dense state-vector oracle, cross-checked against explicit matrices."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ocws import (
    DenseState,
    Graph,
    apply_pauli,
    build_graph_state,
    codeword_basis,
    corrects_weight,
    enumerate_paulis,
    format_pauli,
    gauge_generators,
    identity,
    multiply,
    new_code,
    oqec_check,
    parse_code_file,
    parse_pauli,
    paulis_of_weight,
    ring_graph,
    stabilizer_generator,
)
from ocws import oracle
from ocws.oracle import _basis_matrix, _products, _residuals
from conftest import PERFBENCH, random_code, random_graph

_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_LETTERS = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _pauli_matrix(p):
    """Exact tensor-product matrix; qubit 1 varies fastest in the index."""
    m = np.eye(1)
    for ch in format_pauli(p):
        m = np.kron(_LETTERS[ch], m)
    return m


def test_single_edge_graph_state():
    g = Graph(2, (0b10, 0b01))
    state = build_graph_state(g)
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2)


def test_edgeless_single_vertex():
    state = build_graph_state(Graph(1, (0,)))
    assert np.allclose(state.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_graph_state_is_stabilized_matrixwise():
    rng = random.Random(5)
    for n in (3, 4, 5):
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        g = Graph(n, tuple(rows))
        amp = build_graph_state(g).amplitudes
        for i in range(1, n + 1):
            m = _pauli_matrix(stabilizer_generator(g, i))
            assert np.allclose(m @ amp, amp, atol=1e-12)


def test_ring5_graph_state_expectations():
    state = build_graph_state(ring_graph(5))
    for i in range(1, 6):
        m = _pauli_matrix(stabilizer_generator(ring_graph(5), i))
        assert abs(np.vdot(state.amplitudes, m @ state.amplitudes) - 1) < 1e-12


def test_apply_pauli_matches_matrix_action():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 5)
        amp = rng_random_state(rng, n)
        p = parse_pauli("".join(rng.choice("IXYZ") for _ in range(n)))
        got = apply_pauli(p, DenseState(n, amp)).amplitudes
        want = _pauli_matrix(p) @ amp
        # ZX = iY per qubit, so the library action is a global phase off
        y_count = format_pauli(p).count("Y")
        assert np.allclose(got, (1j**y_count) * want, atol=1e-12)


def rng_random_state(rng, n):
    dim = 1 << n
    amp = np.array(
        [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    )
    return amp / np.linalg.norm(amp)


def test_apply_pauli_length_mismatch():
    with pytest.raises(ValueError):
        apply_pauli(identity(3), build_graph_state(ring_graph(4)))


def test_dense_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        DenseState(1, np.array([1.0, 1.0]))


def test_dense_state_rejects_wrong_length():
    with pytest.raises(ValueError, match=r"shape \(3,\), expected \(4,\)"):
        DenseState(2, np.array([1.0, 0.0, 0.0]))


def test_codeword_basis_counts(code_8_1_1_3, code_9_3_1_3):
    basis = codeword_basis(code_8_1_1_3)
    assert len(basis) == 4
    assert basis[0].amplitudes.shape == (256,)
    assert len(codeword_basis(code_9_3_1_3)) == 16


def test_codeword_basis_single_word_no_gauge():
    code = new_code(ring_graph(4), 0, (0,))
    basis = codeword_basis(code)
    assert len(basis) == 1
    assert np.allclose(basis[0].amplitudes, build_graph_state(ring_graph(4)).amplitudes)


def test_codeword_basis_is_orthonormal(code_9_4_1_3):
    basis = np.array([s.amplitudes for s in codeword_basis(code_9_4_1_3)])
    gram = np.conj(basis) @ basis.T
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10


def test_basis_stabilizer_eigenvalue_pattern(code_8_1_1_3):
    """S_i fixes or flips each basis state by the Z-word bit at vertex i."""
    code = code_8_1_1_3
    states = codeword_basis(code)
    for l, word in enumerate(code.words):
        for b in range(1 << code.r):
            amp = states[l * (1 << code.r) + b].amplitudes
            pattern = word ^ (b << code.s)
            for i in range(1, code.n + 1):
                m = _pauli_matrix(stabilizer_generator(code.graph, i))
                sign = -1.0 if pattern >> (i - 1) & 1 else 1.0
                assert np.allclose(m @ amp, sign * amp, atol=1e-12)


def test_oqec_check_passes_fixtures(code_8_1_1_3, code_9_4_1_3):
    for code in (code_8_1_1_3, code_9_4_1_3):
        errors = enumerate_paulis(code.n, 1, include_identity=True)
        report = oqec_check(code, errors)
        assert report.passed
        assert report.max_off_block <= 1e-9
        assert report.max_block_deviation <= 1e-9


def test_oqec_check_identity_only_gives_identity_blocks(code_8_1_1_3):
    report = oqec_check(code_8_1_1_3, [identity(8)])
    assert report.passed
    assert report.max_off_block == 0.0
    assert report.max_block_deviation == 0.0


def test_oqec_check_flags_broken_toy(broken_toy):
    # a generator is swept, not used up by the length check before the sweep
    for errors in (enumerate_paulis(5, 1, include_identity=True), paulis_of_weight(5, 1)):
        report = oqec_check(broken_toy, errors)
        assert not report.passed
        assert report.max_off_block >= 0.5


def test_oqec_check_rejects_bad_tolerance(code_8_1_1_3):
    with pytest.raises(ValueError):
        oqec_check(code_8_1_1_3, [identity(8)], tol=0)
    with pytest.raises(ValueError) as info:
        oqec_check(code_8_1_1_3, [identity(8)], tol=float("nan"))
    assert str(info.value) == "tolerance nan must be positive"


def test_gauge_transformed_base_leaves_residuals(code_8_1_1_3):
    """Rebasing on g|G> for gauge g moves no residual by more than 1e-10."""
    code = code_8_1_1_3
    errors = enumerate_paulis(code.n, 1, include_identity=True)
    base = build_graph_state(code.graph)
    off0, dev0 = _residuals(code, _basis_matrix(code), _products(errors))
    gens = gauge_generators(code).generators
    rng = random.Random(13)
    for _ in range(5):
        g = identity(code.n)
        for gen in gens:
            if rng.random() < 0.5:
                g = multiply(g, gen)
        moved = apply_pauli(g, base)
        off1, dev1 = _residuals(code, _basis_matrix(code, moved.amplitudes), _products(errors))
        assert abs(off1 - off0) <= 1e-10
        assert abs(dev1 - dev0) <= 1e-10


def test_oracle_agrees_with_verifier_on_ring_codes():
    """Pass/fail of the dense check matches corrects_weight at t = 1.

    Sampling stays on ring graphs with r <= 2, where no vertex has all its
    neighbors on gauge qubits; codes outside that family can carry
    degenerate sector-signed errors that the block test, which compares
    sectors only up to a phase, cannot see (covered separately below).
    """
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        n = rng.randint(5, 10)
        r = rng.randint(0, 2)
        K = rng.randint(1, 4)
        code = random_code(rng, ring_graph(n), r, K)
        errors = enumerate_paulis(n, 1, include_identity=True)
        assert oqec_check(code, errors).passed == corrects_weight(code, 1)
        checked += 1


def _split9_code():
    rows = [0] * 9
    for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 8), (7, 9)]:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return new_code(Graph(9, tuple(rows)), 2, (0, 0b1001001))


def test_oracle_scope_on_sector_signed_degenerate_errors():
    """A degenerate error with uneven word overlap defeats phase alignment.

    The verifier's correction clause rejects the code; the dense pairwise
    block comparison cannot, since each sector block differs only by a
    sign that alignment absorbs.  This pins the documented scope split.
    """
    code = _split9_code()
    errors = enumerate_paulis(9, 1, include_identity=True)
    assert oqec_check(code, errors).passed
    assert not corrects_weight(code, 1)


def _reference_residuals(code, basis, errors):
    """The residual sweep with its own sign-and-gather and block masking.

    Signs come from int.bit_count per index, products are deduplicated
    through multiply, and the off-block maximum is taken over a copy with
    the sector blocks zeroed, skipped when there is one sector.
    """
    K = code.K
    g = 1 << code.r
    dim = 1 << code.n
    idx = np.arange(dim, dtype=np.uint32)
    parity = np.array([i.bit_count() & 1 for i in range(dim)])
    products = {}
    for ea in errors:
        for eb in errors:
            q = multiply(ea, eb)
            products.setdefault((q.x, q.z), q)
    max_off = 0.0
    max_dev = 0.0
    for q in products.values():
        signs = 1.0 - 2.0 * parity[idx & np.uint32(q.z)].astype(float)
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


def _residual_cases():
    """Three codes per (n, r) at weight 1; the first also at weight 2 if n <= 7.

    Weight 2 on all three would take about 20 s, mostly at n = 6 and 7.
    """
    rng = random.Random(47)
    cases = [(_split9_code(), 1)]
    for n in range(3, 10):
        for r in range(3):
            for i in range(3):
                K = rng.randint(1, min(6, 1 << (n - r)))
                code = random_code(rng, random_graph(rng, n), r, K)
                cases += [(code, 1)] + [(code, 2)] * (i == 0 and n <= 7)
    return cases


def _bench_code(name, words=None):
    """A code file the oracle-dense benchmark checks, optionally cut to its first words."""
    code = parse_code_file((PERFBENCH / "data" / f"{name}.ocws").read_text())
    return code if words is None else new_code(code.graph, code.r, code.words[:words])


def test_residuals_equal_reference_exactly():
    cases = _residual_cases()
    assert sum(code.K == 1 for code, _ in cases) >= 5
    # the benchmark's slowest shape: a 32 x 1024 basis and 436 products
    cases.append((_bench_code("ring10_r2_d3_exact"), 1))
    for code, w in cases:
        basis = _basis_matrix(code)
        errors = enumerate_paulis(code.n, w, include_identity=True)
        got = _residuals(code, basis, _products(errors))
        assert got == _reference_residuals(code, basis, errors), (code, w)


def _complex_basis(nprng, code):
    """Random orthonormal complex rows, logical index major like _basis_matrix.

    Sector 0 lives on the even indices only, so its gauge block vanishes
    for every product with an X on qubit 1, and that product's pairs with
    sector 0 have |inner| = 0.
    """
    g = 1 << code.r
    dim = 1 << code.n

    def orthonormal(a):
        return np.linalg.qr(a.T)[0].T

    def normal(rows, cols):
        return nprng.normal(size=(rows, cols)) + 1j * nprng.normal(size=(rows, cols))

    basis = np.zeros((code.K * g, dim), dtype=complex)
    basis[:g, ::2] = orthonormal(normal(g, dim // 2))
    rest = normal(code.K * g - g, dim)
    rest -= (rest @ basis[:g].conj().T) @ basis[:g]
    basis[g:] = orthonormal(rest)
    return basis


def test_residuals_match_reference_on_complex_bases(monkeypatch):
    """Phase alignment on non-zero deviations, checked to 1e-12.

    Graph-state bases give real blocks and zero deviations on every case
    above; random complex bases give deviations near 1, phases of both
    signs and, for X1, pairs of inner 0.  With K = 2 and the identity
    swept beside X1, the deviation is that of X1's one pair: the norm of
    sector 1's block.  The batched comparison sums in another order than
    vdot and norm, so the two can differ in the last ulp.
    """
    buffers = []
    block_deviation = oracle._block_deviation

    def recording(blocks):
        buffers.append(len(blocks))
        return block_deviation(blocks)

    monkeypatch.setattr(oracle, "_block_deviation", recording)
    rng = random.Random(61)
    nprng = np.random.default_rng(61)
    partial = 0
    for n, r, K in [(4, 1, 2), (5, 0, 5), (6, 1, 2), (6, 2, 4), (7, 1, 6)]:
        code = random_code(rng, random_graph(rng, n), r, K)
        basis = _complex_basis(nprng, code)
        assert not np.any(basis[: 1 << r, 1::2])
        x1 = parse_pauli("X" + "I" * (n - 1))
        for errors in ([identity(n), x1], enumerate_paulis(n, 1, include_identity=True)):
            buffers.clear()
            got = _residuals(code, basis, _products(errors))
            want = _reference_residuals(code, basis, errors)
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want)), (
                code, len(errors), got, want
            )
            assert got[1] > 0.01
        # the weight-1 sweep fills several buffers, then compares what is left
        assert len(buffers) >= 3 and buffers[-1] < buffers[0], buffers
        partial += buffers[-1] > 0
    assert partial >= 2


def _sweep_orders(products):
    """The products ascending and descending by (z, x), and grouped by x."""
    by_z = sorted(products, key=lambda p: (p[1], p[0]))
    return [dict.fromkeys(order) for order in (by_z, by_z[::-1], sorted(products))]


def test_residuals_do_not_depend_on_the_sweep_order(monkeypatch):
    """Every insertion order of the products gives the same residuals, bit for bit.

    The sweep groups the products by Z part in the order they arrive, so
    the three orders group them alike but visit groups, and products within
    a group, differently, and move every buffer flush.  On the complex
    bases, whose deviations are non-zero, a Z group is larger than one
    buffer, so it crosses a flush.
    """
    buffers = []
    block_deviation = oracle._block_deviation

    def recording(blocks):
        buffers.append(len(blocks))
        return block_deviation(blocks)

    monkeypatch.setattr(oracle, "_block_deviation", recording)
    rng = random.Random(71)
    nprng = np.random.default_rng(71)
    graph_state_codes = (_split9_code(), _bench_code("ring10_r2_d3_exact"))
    cases = [(code, _basis_matrix(code)) for code in graph_state_codes]
    for n, r, K in [(5, 0, 5), (6, 1, 2), (6, 2, 4), (7, 1, 6)]:
        code = random_code(rng, random_graph(rng, n), r, K)
        cases.append((code, _complex_basis(nprng, code)))
    crossed = 0
    for code, basis in cases:
        products = _products(enumerate_paulis(code.n, 1, include_identity=True))
        buffers.clear()
        results = [_residuals(code, basis, order) for order in _sweep_orders(products)]
        assert results[0] == results[1] == results[2], (code, results)
        if results[0][1] > 0.01:
            largest_group = max(Counter(z for _, z in products).values())
            crossed += len(buffers) > 3 and largest_group > buffers[0]
    assert crossed == 4


def _residuals_peak_ratio(code):
    """The tracemalloc peak of one weight-1 sweep over the basis's own bytes."""
    basis = _basis_matrix(code)
    products = _products(enumerate_paulis(code.n, 1, include_identity=True))
    tracemalloc.start()
    try:
        _residuals(code, basis, products)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / basis.nbytes


def test_residual_sweep_holds_two_basis_sized_buffers():
    """The sweep's peak stays under 3.25 bases: two work buffers and small change.

    Ring-10 r=2 is the benchmark's slowest shape (32 x 1024); ring-12 r=1
    cut to two words (4 x 4096) has the fewest rows, so the per-column sign
    and index vectors weigh most there.  A third basis-sized array, per
    product or per Z group, would reach 3.5 or more on both.
    """
    for code in (_bench_code("ring10_r2_d3_exact"), _bench_code("ring12_r1_d4_exact", 2)):
        assert _residuals_peak_ratio(code) < 3.25, code


def test_block_deviation_aligns_complex_phases():
    """Random complex blocks, compared pair by pair with vdot and norm.

    A Pauli product's blocks are all Hermitian or all anti-Hermitian, so
    through _residuals every inner product is real and the phase is +1 or
    -1 on any basis.  Only blocks like these have complex inner products,
    on which conjugating the wrong side would show.
    """
    nprng = np.random.default_rng(67)
    for count, K, g in [(1, 2, 1), (3, 3, 2), (2, 5, 4)]:
        shape = (count, K, g, g)
        blocks = nprng.normal(size=shape) + 1j * nprng.normal(size=shape)
        blocks[0, 1] = 0.0
        devs = []
        for d in blocks:
            for l in range(K):
                for mm in range(l + 1, K):
                    inner = np.vdot(d[mm], d[l])
                    phase = inner / abs(inner) if abs(inner) > 0.0 else 1.0
                    devs.append(float(np.linalg.norm(d[l] - phase * d[mm])))
                    got = oracle._block_deviation(d[None, [l, mm]])
                    assert math.isclose(got, devs[-1], rel_tol=1e-12), (shape, l, mm)
        assert math.isclose(oracle._block_deviation(blocks), max(devs), rel_tol=1e-12)
    assert oracle._block_deviation(np.empty((0, 3, 2, 2), dtype=complex)) == 0.0


def test_basis_size_limit_applies_to_the_library(monkeypatch, code_8_1_1_3, code_9_4_1_3):
    """oqec_check refuses a basis over the limit before it builds anything."""
    monkeypatch.setattr(oracle, "_MAX_BASIS_ENTRIES", 4 << 8)
    assert oqec_check(code_8_1_1_3, [identity(8)]).passed  # 4 x 256 entries
    with pytest.raises(ValueError, match=r"basis of shape \(\d+, 512\) too large"):
        oqec_check(code_9_4_1_3, [identity(9)])
