"""Randomized invariants.

Each suite is a plain function taking (count, seed) so the acceptance
tests can rerun them at their required sizes; the wrappers below run the
same sizes in the normal suite.
"""

import random

from ocws import (
    commutes,
    forbidden_differences,
    gauge_generators,
    gauge_reduce,
    induce,
    induced_error_set,
    multiply,
    new_code,
    parse_pauli,
    ring_graph,
    stabilizer_generator,
)
from conftest import compatible, random_graph


def random_pauli(rng, n):
    return parse_pauli("".join(rng.choice("IXYZ") for _ in range(n)))


def run_pauli_bilinearity(count, seed):
    """Commutation with a product is the XOR of pairwise commutations."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        a, b, c = (random_pauli(rng, n) for _ in range(3))
        assert commutes(multiply(a, b), c) == (commutes(a, c) == commutes(b, c))
        square = multiply(a, a)
        assert square.x == 0 and square.z == 0
        assert commutes(a, b) == commutes(b, a)


def run_induced_class_invariance(count, seed):
    """Induction is stable on gauge-group cosets.

    Multiplying an error by any S_i leaves the raw image unchanged;
    multiplying by any g_j moves only gauge bits, so the reduced image is
    unchanged either way.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        graph = random_graph(rng, n)
        r = rng.randint(0, min(2, n - 1))
        code = new_code(graph, r, (0,))
        e = random_pauli(rng, n)
        raw = induce(code, e)
        i = rng.randint(1, n)
        shifted = multiply(e, stabilizer_generator(graph, i))
        assert induce(code, shifted) == raw
        if r > 0:
            j = rng.randint(0, r - 1)
            g = gauge_generators(code).generators[n + j]
            moved = induce(code, multiply(e, g))
            assert gauge_reduce(code, moved) == gauge_reduce(code, raw)
            assert moved ^ raw == 1 << (code.s + j)


def run_gauge_reduce_idempotence(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        r = rng.randint(0, min(2, n - 1))
        code = new_code(random_graph(rng, n), r, (0,))
        bits = rng.getrandbits(n)
        once = gauge_reduce(code, bits)
        assert gauge_reduce(code, once) == once
        assert once == bits & ((1 << code.s) - 1)


def run_compatibility_translation_invariance(count, seed):
    """XOR-translating both candidate words preserves compatibility.

    The reference verdict on weight-1 classes also matches the library's
    forbidden set of weight-2 differences.
    """
    rng = random.Random(seed)
    cached = {}
    for _ in range(count):
        n = rng.randint(4, 8)
        r = rng.randint(0, 2)
        key = (n, r)
        if key not in cached:
            graph = ring_graph(n)
            skeleton = new_code(graph, r, (0,))
            sweep = [c.bits for c in induced_error_set(skeleton, 1)]
            cached[key] = (skeleton, sweep, forbidden_differences(skeleton, 2))
        skeleton, sweep, forbidden = cached[key]
        s = skeleton.s
        a = rng.getrandbits(s)
        b = rng.getrandbits(s)
        t = rng.getrandbits(s)
        if a == b:
            continue
        assert compatible(skeleton, a, b, sweep) == compatible(
            skeleton, a ^ t, b ^ t, sweep
        )
        assert compatible(skeleton, a, b, sweep) == (a ^ b not in forbidden)


def test_pauli_bilinearity():
    run_pauli_bilinearity(1000, 101)


def test_induced_class_invariance():
    run_induced_class_invariance(1000, 102)


def test_gauge_reduce_idempotence():
    run_gauge_reduce_idempotence(500, 103)


def test_compatibility_translation_invariance():
    run_compatibility_translation_invariance(1000, 104)
