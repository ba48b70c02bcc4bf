"""Shared builders and reference checks for the test suite.

Word strings are written qubit 1 first, matching the library's text
convention, so bits("01100110") sets qubit 2, 3, 6 and 7.

compatible and detects state the detection rule a second way, by brute
force; tests compare them with the library's routes, forbidden_differences
and detects_set.
"""

import itertools
import random
from pathlib import Path

import pytest

from ocws import (
    Graph,
    OcwsCode,
    PauliOperator,
    gauge_decomposition,
    multiply,
    new_code,
    ring_graph,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

WORDS_8_1 = ["00000000", "01100110"]
WORDS_9_3 = [
    "000000000",
    "010011010",
    "011111000",
    "100101110",
    "101001100",
    "110110100",
    "111010110",
    "001100010",
]
WORDS_9_4 = ["000000000", "010001100", "100011010", "101100110"]


def bits(text: str) -> int:
    return int(text[::-1], 2)


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / name)


@pytest.fixture
def code_8_1_1_3() -> OcwsCode:
    return new_code(ring_graph(8), 1, tuple(bits(w) for w in WORDS_8_1), 3)


@pytest.fixture
def code_9_3_1_3() -> OcwsCode:
    return new_code(ring_graph(9), 1, tuple(bits(w) for w in WORDS_9_3), 3)


@pytest.fixture
def code_9_4_1_3() -> OcwsCode:
    return new_code(ring_graph(9), 1, tuple(bits(w) for w in WORDS_9_4), 3)


@pytest.fixture
def code_ring5_r2() -> OcwsCode:
    return new_code(ring_graph(5), 2, (0,))


@pytest.fixture
def broken_toy() -> OcwsCode:
    """K=2 on the 5-ring with words confusable by the single error Z_1."""
    return new_code(ring_graph(5), 2, (0, 1))


def random_graph(rng: random.Random, n: int) -> Graph:
    """Random simple graph, resampled until no vertex is isolated."""
    while True:
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        if all(rows):
            return Graph(n, tuple(rows))


def random_code(rng: random.Random, graph: Graph, r: int, K: int) -> OcwsCode:
    """Valid code with K distinct random words; no distance is promised."""
    s = graph.n - r
    words = rng.sample(range(1 << s), K)
    if 0 in words:
        words.remove(0)
        words.insert(0, 0)
    return new_code(graph, r, tuple(words))


def compatible(code_skeleton: OcwsCode, c_i: int, c_j: int, error_sweep) -> bool:
    """True iff no two sweep errors (or one and the identity) confuse c_i, c_j.

    error_sweep is an iterable of gauge-reduced induced-error bit vectors;
    the zero class is always included.  The test depends only on c_i xor
    c_j, so it is symmetric and translation invariant.
    """
    if c_i == c_j:
        raise ValueError("candidates must be distinct")
    word_mask = (1 << code_skeleton.s) - 1
    for c in (c_i, c_j):
        if not 0 <= c <= word_mask:
            raise ValueError(f"candidate {c} is not supported on qubits 1..{code_skeleton.s}")
    sweep = set(error_sweep) | {0}
    diff = c_i ^ c_j
    return all(diff != ea ^ eb for ea, eb in itertools.combinations(sweep, 2))


def detects(code: OcwsCode, e: PauliOperator) -> bool:
    """The paper's definition: w_i e w_j is outside the gauge group for every i != j."""
    words = [code.word_operator(i) for i in range(code.K)]
    return all(
        gauge_decomposition(code, multiply(multiply(wi, e), wj)) is None
        for wi, wj in itertools.permutations(words, 2)
    )


class Clock:
    """Stands in for the time module: monotonic() returns the given readings, then the last."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def monotonic(self):
        return self.readings.pop(0) if len(self.readings) > 1 else self.readings[0]
