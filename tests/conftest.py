"""Shared builders and reference checks for the test suite.

Word strings are written qubit 1 first, matching the library's text
convention, so bits("01100110") sets qubit 2, 3, 6 and 7.

compatible and detects state the detection rule a second way, by brute
force; tests compare them with the library's routes, forbidden_differences
and detects_set.  gauge_elimination is the reference for gauge membership:
a GF(2) elimination of the generators, which shares no code with the
library's closed form for a Pauli's gauge residue.
"""

import argparse
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from ocws import (
    Graph,
    OcwsCode,
    PauliOperator,
    adjacency_lines,
    gauge_generators,
    multiply,
    new_code,
    ring_graph,
)
from ocws.cli import _load_graph

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"
PERFBENCH = ROOT / "perfbench"

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


def load_workloads():
    """The benchmark's workload module, loaded from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def relabeled(graph: Graph, perm) -> Graph:
    """The graph with new vertex bit i standing for old bit perm[i]."""

    def move(mask):
        return sum(1 << i for i, old in enumerate(perm) if mask >> old & 1)

    return Graph(graph.n, tuple(move(graph.rows[old]) for old in perm))


def read_graph_file(tmp_path: Path, graph: Graph) -> Graph:
    """The graph written as a 0/1 adjacency file and read back as --graph file: reads it."""
    path = tmp_path / "graph.adj"
    path.write_text("".join(line + "\n" for line in adjacency_lines(graph)))
    return _load_graph(argparse.Namespace(graph=f"file:{path}", n=None))


# ring-9 with its vertices shuffled, as a benchmark seed relabels a graph file
RING9_SHUFFLE = (4, 7, 0, 8, 2, 5, 1, 6, 3)


def complete_minus_matching(n: int) -> Graph:
    """K_n without the edges {2i, 2i + 1}: the cocktail-party graph, n even."""
    return Graph(n, tuple(((1 << n) - 1) ^ (1 << i) ^ (1 << (i ^ 1)) for i in range(n)))


def joined_copies(seed: int, m: int) -> Graph:
    """Two copies of one G(m, 1/2) with each vertex joined to its copy.

    Swapping the copies is an automorphism; whatever else the random half
    has comes on top.
    """
    rng = random.Random(seed)
    while True:
        half = [0] * m
        for i, j in itertools.combinations(range(m), 2):
            if rng.random() < 0.5:
                half[i] |= 1 << j
                half[j] |= 1 << i
        if all(half):
            break
    rows = [half[i] | 1 << (i + m) for i in range(m)] + [half[i] << m | 1 << i for i in range(m)]
    return Graph(2 * m, tuple(rows))


def symmetric_searches(tmp_path: Path):
    """(graph, r, d) with nontrivial gauge-block automorphisms, and rings."""
    for n, r in itertools.product((8, 9, 10), (0, 1, 2)):
        # ring-10 r=0 at d=3 does not finish, so it is searched at d=4
        yield ring_graph(n), r, 4 if (n, r) == (10, 0) else 3
    yield read_graph_file(tmp_path, relabeled(ring_graph(9), RING9_SHUFFLE)), 0, 3
    for n, r in itertools.product((6, 8), (0, 1)):
        yield complete_minus_matching(n), r, 3
    yield complete_minus_matching(6), 0, 2
    yield complete_minus_matching(8), 1, 2
    for seed in range(3):
        yield joined_copies(seed, 4), 0, 3
        yield joined_copies(seed, 4), 0, 2
        yield joined_copies(seed, 5), 0, 4


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


class _GF2Basis:
    """Fully reduced row-echelon basis over GF(2) with combination tracking.

    Vectors are plain integers.  Each row is keyed by its top bit, its
    pivot, and every pivot bit is clear in every other row, so the pivot
    bits of a vector alone name the rows that reduce it, each once.  Each
    stored row remembers which original generators combine to it, so
    membership tests can also produce a decomposition witness.  The library's
    own elimination, code._echelon, keeps no combinations.
    """

    def __init__(self) -> None:
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, combo)
        self._pivots = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[int]:
        """The row vectors in ascending pivot order."""
        return [self._rows[p][0] for p in sorted(self._rows)]

    def add(self, vector: int, combo: int = 0) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        residue, combo = self.reduce(vector, combo)
        if residue == 0:
            return False
        pivot = residue.bit_length() - 1
        for p, (row, row_combo) in self._rows.items():
            if row >> pivot & 1:
                self._rows[p] = (row ^ residue, row_combo ^ combo)
        self._rows[pivot] = (residue, combo)
        self._pivots |= 1 << pivot
        return True

    def decompose(self, vector: int) -> int | None:
        """Combination mask expressing the vector, or None if outside the span."""
        residue, combo = self.reduce(vector)
        return combo if residue == 0 else None

    def reduce(self, vector: int, combo: int = 0) -> tuple[int, int]:
        """The residue clear of every pivot, and combo XOR the combination of the rows taken off."""
        # a row changes no pivot bit but its own, so the hits are fixed up front
        hits = vector & self._pivots
        while hits:
            p = hits.bit_length() - 1
            row, row_combo = self._rows[p]
            vector ^= row
            combo ^= row_combo
            hits ^= 1 << p
        return vector, combo


def symplectic(p: PauliOperator) -> int:
    """p as the GF(2) vector (x << n) | z."""
    return p.x << p.n | p.z


def gauge_elimination(code: OcwsCode) -> _GF2Basis:
    """Reference: the gauge generators' symplectic vectors, eliminated one by one.

    Combo bit k stands for generator k, in gauge_generators' order.
    """
    basis = _GF2Basis()
    for k, g in enumerate(gauge_generators(code).generators):
        basis.add(symplectic(g), 1 << k)
    assert basis.rank == code.n + code.r
    return basis


def detects(code: OcwsCode, e: PauliOperator) -> bool:
    """The paper's definition: w_i e w_j is outside the gauge group for every i != j."""
    basis = gauge_elimination(code)
    words = [code.word_operator(i) for i in range(code.K)]
    return all(
        basis.decompose(symplectic(multiply(multiply(wi, e), wj))) is None
        for wi, wj in itertools.permutations(words, 2)
    )


class Clock:
    """Stands in for the time module: monotonic() returns the given readings, then the last."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def monotonic(self):
        return self.readings.pop(0) if len(self.readings) > 1 else self.readings[0]
