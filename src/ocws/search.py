"""Word-set search: maximum-clique discovery of classical codes on a graph.

Candidate words are the Z bit-vectors supported on the non-gauge qubits
that have even overlap with the word-block X support of every degenerate
error of weight <= t = (d - 1) // 2.  Those words form the parity kernel,
a k-dimensional subspace of GF(2)^s.  Two candidates can coexist in a
code of target distance d exactly when their XOR difference avoids every
gauge-reduced induced error of weight <= d - 1.  In the coordinates of a
fully reduced echelon basis of the kernel, the compatibility graph is
therefore a Cayley graph over GF(2)^k, and a maximum clique is a
maximum-size word set.  The coordinate map preserves order, so the
lexicographically least clique maps to the least word set.  Every found
code is re-checked by one verifier sweep before it is returned.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache

from .code import OcwsCode, _GF2Basis, new_code
from .graph import Graph
from .induction import enumerate_paulis, induced_error_set
# certify_distance and corrects_weight stay bound here for perfbench/spans.py
from .verify import _parity_mask, analyze, certify_distance, corrects_weight  # noqa: F401

__all__ = [
    "SearchError",
    "SearchConfig",
    "candidate_words",
    "compatible",
    "forbidden_differences",
    "CompatibilityGraph",
    "find_max_clique",
    "search_code",
]

_GREEDY_RESTARTS = 128


class SearchError(Exception):
    """Search finished without an acceptable code; best_k is the size reached."""

    def __init__(self, message: str, best_k: int = 0):
        super().__init__(message)
        self.best_k = best_k


@dataclass(frozen=True)
class SearchConfig:
    graph: Graph
    r: int
    target_distance: int
    target_K: int | None = None
    mode: str = "exact"
    time_budget: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.r < self.graph.n:
            raise ValueError(f"gauge count r={self.r} out of range for n={self.graph.n}")
        if self.target_distance < 1:
            raise ValueError(f"target distance {self.target_distance} must be >= 1")
        if self.target_K is not None and self.target_K < 1:
            raise ValueError(f"target K {self.target_K} must be >= 1")
        if self.mode not in ("exact", "greedy"):
            raise ValueError(f"mode must be 'exact' or 'greedy', got {self.mode!r}")
        if self.mode == "exact" and self.s > 24:
            raise ValueError(f"s={self.s} too large for exact mode (limit 24)")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time budget {self.time_budget} must be positive")

    @property
    def s(self) -> int:
        return self.graph.n - self.r


def candidate_words(config: SearchConfig) -> range:
    """All 2^s words supported on the non-gauge qubits, zero first, ascending."""
    return range(1 << config.s)


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


def forbidden_differences(code_skeleton: OcwsCode, max_error_weight: int) -> frozenset[int]:
    """Nonzero reduced induced errors of every Pauli with weight <= the bound.

    A candidate pair whose XOR difference lands in this set is confusable
    by some error of that weight, so cliques avoiding it have certified
    distance > max_error_weight.
    """
    if max_error_weight < 0:
        raise ValueError(f"max error weight {max_error_weight} must be >= 0")
    if max_error_weight == 0:
        return frozenset()
    classes = induced_error_set(code_skeleton, max_error_weight)
    return frozenset(c.bits for c in classes) - {0}


@dataclass(frozen=True)
class CompatibilityGraph:
    """Cayley graph on range(2^k); edges join pairs with an allowed difference.

    The graph is vertex-transitive, with every neighborhood an XOR
    translate of the neighborhood of 0.
    """

    candidates: range
    forbidden: frozenset[int]

    def __post_init__(self) -> None:
        m = len(self.candidates) if isinstance(self.candidates, range) else 0
        if m == 0 or m & (m - 1) or self.candidates != range(m):
            raise ValueError(f"candidates must be range(2**k), got {self.candidates!r}")

    def __len__(self) -> int:
        return len(self.candidates)

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and (u ^ v) not in self.forbidden


@lru_cache(maxsize=None)
def _low_half_pattern(bit: int, width_bits: int) -> int:
    """Mask over 2^width_bits positions whose index has the given bit clear."""
    step = 1 << bit
    period = 2 * step
    count = (1 << width_bits) // period
    block = (1 << step) - 1
    spaced_ones = ((1 << (period * count)) - 1) // ((1 << period) - 1)
    return block * spaced_ones


def _xor_translate(mask: int, t: int, width_bits: int) -> int:
    """Permute a bitmask over 2^width_bits positions by p -> p xor t."""
    for b in range(width_bits):
        if t >> b & 1:
            step = 1 << b
            low = _low_half_pattern(b, width_bits)
            mask = ((mask & low) << step) | ((mask >> step) & low)
    return mask


class _Deadline(Exception):
    pass


class _RowCache:
    """Neighborhood bitmasks, built lazily as translates of the one of 0."""

    def __init__(self, graph: CompatibilityGraph):
        self._rows: dict[int, int] = {}
        m = len(graph)
        base = ((1 << m) - 1) ^ 1
        for f in graph.forbidden:
            if f < m:
                base &= ~(1 << f)
        self._base = base
        self._width_bits = (m - 1).bit_length()

    def row(self, index: int) -> int:
        mask = self._rows.get(index)
        if mask is None:
            mask = self._rows[index] = _xor_translate(self._base, index, self._width_bits)
        return mask


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Deadline


def _color_order(rows: _RowCache, pool: int) -> list[tuple[int, int]]:
    """Greedy coloring of the pool; returns (vertex, color) sorted by color.

    The color number of a vertex bounds the largest clique containing it
    within the pool, so iterating in descending color order lets the
    branch-and-bound prune whole suffixes.
    """
    order: list[tuple[int, int]] = []
    remaining = pool
    color = 0
    while remaining:
        color += 1
        available = remaining
        while available:
            v = (available & -available).bit_length() - 1
            order.append((v, color))
            remaining &= ~(1 << v)
            available &= ~((1 << v) | rows.row(v))
    return order


def _expand(
    rows: _RowCache,
    clique: list[int],
    pool: int,
    best: list[int],
    deadline: float | None,
) -> None:
    _check_deadline(deadline)
    if not pool:
        if len(clique) > len(best):
            best[:] = clique
        return
    order = _color_order(rows, pool)
    for v, bound in reversed(order):
        if len(clique) + bound <= len(best):
            return
        clique.append(v)
        _expand(rows, clique, pool & rows.row(v), best, deadline)
        clique.pop()
        pool &= ~(1 << v)


def _exists_clique(rows: _RowCache, pool: int, size: int, deadline: float | None) -> bool:
    """True iff the pool contains a clique of the given size."""
    if size <= 0:
        return True
    _check_deadline(deadline)
    if pool.bit_count() < size:
        return False
    order = _color_order(rows, pool)
    if order[-1][1] < size:
        return False
    for v, bound in reversed(order):
        if bound < size:
            return False
        if _exists_clique(rows, pool & rows.row(v), size - 1, deadline):
            return True
        pool &= ~(1 << v)
    return False


def _lex_least_clique(
    rows: _RowCache, m: int, size: int, deadline: float | None
) -> list[int]:
    """Lexicographically least index clique of a size known to exist."""
    clique: list[int] = []
    pool = (1 << m) - 1
    while len(clique) < size:
        available = pool
        while available:
            v = (available & -available).bit_length() - 1
            above = ~((1 << (v + 1)) - 1)
            narrowed = pool & rows.row(v) & above
            if _exists_clique(rows, narrowed, size - len(clique) - 1, deadline):
                clique.append(v)
                pool = narrowed
                break
            available &= ~(1 << v)
        else:
            raise AssertionError("clique of known size not found")
    return clique


def _exact_max_clique(
    graph: CompatibilityGraph, deadline: float | None
) -> tuple[list[int], bool]:
    m = len(graph)
    rows = _RowCache(graph)
    best: list[int] = []
    complete = True
    try:
        # some maximum clique contains vertex 0 by vertex transitivity
        _expand(rows, [0], rows.row(0), best, deadline)
    except _Deadline:
        complete = False
    if complete and best:
        try:
            best = _lex_least_clique(rows, m, len(best), deadline)
        except _Deadline:
            pass
    return sorted(best), complete


def _greedy_cliques(
    graph: CompatibilityGraph, seed: int, deadline: float | None
) -> tuple[list[int], bool]:
    rng = random.Random(seed)
    best: list[int] = []
    order = list(graph.candidates)
    for _ in range(_GREEDY_RESTARTS):
        if deadline is not None and time.monotonic() > deadline and best:
            break
        rng.shuffle(order)
        clique: list[int] = []
        for v in order:
            if all(graph.adjacent(v, u) for u in clique):
                clique.append(v)
        low = min(clique)
        clique = sorted(c ^ low for c in clique)
        if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
            best = clique
    return best, False


def find_max_clique(
    compatibility: CompatibilityGraph, config: SearchConfig
) -> tuple[list[int], bool]:
    """Largest clique of candidate words plus a completeness flag.

    Exact mode proves maximality with a branch-and-bound using a greedy
    coloring bound and returns the lexicographically least clique of that
    size; if the time budget runs out the best clique so far is returned
    flagged incomplete.  Greedy mode takes the best of seeded randomized
    restarts and is never flagged complete.  Output is deterministic for a
    given mode and seed.
    """
    if len(compatibility) == 0:
        raise ValueError("empty candidate set")
    deadline = None
    if config.time_budget is not None:
        deadline = time.monotonic() + config.time_budget
    if config.mode == "exact":
        return _exact_max_clique(compatibility, deadline)
    return _greedy_cliques(compatibility, config.seed, deadline)


def _echelon(vectors) -> dict[int, int]:
    """Fully reduced echelon basis of the span, keyed by each row's top bit.

    The top bit of every row is clear in every other row.
    """
    rows: dict[int, int] = {}
    for v in vectors:
        for top in sorted(rows, reverse=True):
            v = min(v, v ^ rows[top])
        if v:
            top = v.bit_length() - 1
            for p, row in rows.items():
                if row >> top & 1:
                    rows[p] = row ^ v
            rows[top] = v
    return rows


def _parity_kernel(skeleton: OcwsCode, t: int) -> list[int]:
    """Ascending, fully reduced echelon basis of the parity kernel.

    The kernel holds the words on qubits 1..s with even overlap with the
    word-block X support of every degenerate error of weight <= t; zero
    supports constrain nothing and drop out of the echelon form.  With
    pivots at the top bits, the word of coordinate vector a (the XOR of
    the basis rows at the set bits of a) carries a's bits at the pivots,
    so the map a -> word preserves order.
    """
    sweep = enumerate_paulis(skeleton.n, min(t, skeleton.n))
    constraints = _echelon(_parity_mask(skeleton, e) for e in sweep)
    kernel = []
    for j in range(skeleton.s):
        if j not in constraints:
            # free bit j, plus each pivot whose constraint row also holds bit j
            v = 1 << j
            for p, row in constraints.items():
                if row >> j & 1:
                    v |= 1 << p
            kernel.append(v)
    rows = _echelon(kernel)
    return [rows[p] for p in sorted(rows)]


def search_code(config: SearchConfig) -> OcwsCode:
    """Find a maximum-size word set at the target distance and verify it.

    Raises SearchError when a requested size is not reached or the
    assembled code fails re-verification; the exception carries the best
    clique size achieved.
    """
    skeleton = new_code(config.graph, config.r, (0,))
    forbidden = forbidden_differences(skeleton, config.target_distance - 1)
    t = (config.target_distance - 1) // 2
    basis = _parity_kernel(skeleton, t)
    coordinates = _GF2Basis()
    for i, row in enumerate(basis):
        coordinates.add(row, 1 << i)
    in_kernel = (coordinates.decompose(f) for f in forbidden)
    graph = CompatibilityGraph(
        range(1 << len(basis)), frozenset(a for a in in_kernel if a is not None)
    )
    clique, _complete = find_max_clique(graph, config)
    if not clique:
        raise SearchError("no candidate clique found", best_k=0)
    k = len(clique)
    if config.target_K is not None and k < config.target_K:
        raise SearchError(
            f"no word set of size >= {config.target_K} found; best is {k}",
            best_k=k,
        )
    words = []
    for a in clique:
        word = 0
        for i, row in enumerate(basis):
            if a >> i & 1:
                word ^= row
        words.append(word)
    code = new_code(config.graph, config.r, tuple(words))
    result = analyze(code, t)
    if result.distance < config.target_distance or result.degenerate is not None:
        raise SearchError(
            f"found word set of size {k} failed verification at distance "
            f"{config.target_distance}",
            best_k=k,
        )
    return new_code(config.graph, config.r, tuple(words), result.distance)
