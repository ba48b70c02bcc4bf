"""Word-set search: maximum-clique discovery of classical codes on a graph.

Candidate words are the Z bit-vectors supported on the non-gauge qubits
that have even overlap with the word-block X support of every degenerate
error of weight <= t = (d - 1) // 2.  Those words form the parity kernel,
a k-dimensional subspace of GF(2)^s.  Two candidates can coexist in a
code of target distance d exactly when their XOR difference avoids every
gauge-reduced induced error of weight <= d - 1.  In the coordinates of a
fully reduced echelon basis of the kernel, the compatibility graph is
therefore a Cayley graph over GF(2)^k, and a maximum clique is a
maximum-size word set.  The parity constraints, the kernel basis and the
coordinates all come from code._GF2Basis.  The coordinate map preserves
order, so the lexicographically least clique maps to the least word set.
Both search modes work on the same neighborhood bitmasks.  The exact one
raises the greedy clique at vertex 0 by a decision branch-and-bound that
branches only on vertices colored at least the size sought and drops, by
translation, each difference that fails to extend; the lex-least pass
keeps every difference.  One verifier sweep re-checks each found code.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from functools import lru_cache

from .code import OcwsCode, _GF2Basis, new_code
from .graph import Graph
# enumerate_paulis, induced_error_set, certify_distance and corrects_weight
# stay bound here for perfbench/spans.py
from .induction import enumerate_paulis, induced_error_set  # noqa: F401
from .induction import induced_images, pauli_images
from .verify import _degenerate_errors, analyze, certify_distance, corrects_weight  # noqa: F401

__all__ = [
    "SearchError",
    "SearchConfig",
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
        if not 1 <= self.target_distance <= self.graph.n + 1:
            raise ValueError(
                f"target distance {self.target_distance} out of range 1..{self.graph.n + 1}"
                f" for n={self.graph.n}"
            )
        if self.target_K is not None and self.target_K < 1:
            raise ValueError(f"target K {self.target_K} must be >= 1")
        if self.mode not in ("exact", "greedy"):
            raise ValueError(f"mode must be 'exact' or 'greedy', got {self.mode!r}")
        if self.s > 24:
            raise ValueError(f"s={self.s} too large for search (limit 24)")
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError(f"time budget {self.time_budget} must be positive")

    @property
    def s(self) -> int:
        return self.graph.n - self.r


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
    if not 0 <= max_error_weight <= code_skeleton.n:
        raise ValueError(f"max error weight {max_error_weight} out of range 0..{code_skeleton.n}")
    images = induced_images(code_skeleton, (1 << code_skeleton.s) - 1)
    found: set[int] = set()
    for w in range(1, max_error_weight + 1):
        for _support, _offset, errors in pauli_images(*images, w):
            found.update(errors)
    return frozenset(found - {0})


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


class _Rows(dict):
    """Neighborhood bitmasks by vertex; a missing row is the translate of the one of 0."""

    def __init__(self, graph: CompatibilityGraph):
        super().__init__()
        m = len(graph)
        self.width_bits = (m - 1).bit_length()
        forbidden = sum(1 << f for f in graph.forbidden if f < m)
        self[0] = ((1 << m) - 2) & ~forbidden

    def __missing__(self, index: int) -> int:
        row = self[index] = _xor_translate(self[0], index, self.width_bits)
        return row


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise _Deadline


def _branch_order(rows: _Rows, pool: int, size: int) -> list[int]:
    """Vertices that a greedy coloring of the pool puts in color `size` or above.

    The list runs in ascending color and callers branch from its end.  The
    vertices left off fill size - 1 color classes, so once every listed
    vertex is branched on and dropped, the pool is refuted.
    """
    order: list[int] = []
    color = 1
    while pool:
        available = pool
        while available:
            bit = available & -available
            v = bit.bit_length() - 1
            if color >= size:
                order.append(v)
            pool ^= bit
            available &= ~(rows[v] | bit)
        color += 1
    return order


def _exists_clique(
    rows: _Rows, pool: int, size: int, deadline: float | None
) -> list[int] | None:
    """A clique of the given size within the pool, or None if there is none."""
    if size <= 0:
        return []
    _check_deadline(deadline)
    if pool.bit_count() < size:
        return None
    for v in reversed(_branch_order(rows, pool, size)):
        found = _exists_clique(rows, pool & rows[v], size - 1, deadline)
        if found is not None:
            found.append(v)
            return found
        pool &= ~(1 << v)
    return None


def _lex_least_clique(
    rows: _Rows, m: int, size: int, deadline: float | None
) -> list[int]:
    """Lexicographically least index clique of a size known to exist."""
    clique: list[int] = []
    pool = (1 << m) - 1
    while len(clique) < size:
        available = pool
        while available:
            v = (available & -available).bit_length() - 1
            above = ~((1 << (v + 1)) - 1)
            narrowed = pool & rows[v] & above
            if _exists_clique(rows, narrowed, size - len(clique) - 1, deadline) is not None:
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
    rows = _Rows(graph)
    # some maximum clique contains vertex 0 by vertex transitivity
    allowed = rows[0]
    best = [0]
    pool = allowed
    while pool:
        v = (pool & -pool).bit_length() - 1
        best.append(v)
        pool &= rows[v]
    walk = len(best)
    try:
        # the root coloring alone may refute a raise, so check the budget before it
        _check_deadline(deadline)
        order = _branch_order(rows, allowed, len(best))
        while order:
            v = order.pop()
            pool = allowed & _xor_translate(allowed, v, rows.width_bits)
            found = _exists_clique(rows, pool, len(best) - 1, deadline)
            if found is None:
                # translated by a, a larger clique with a ^ b = v would hold 0 and v
                allowed &= ~(1 << v)
            else:
                best = [0, v, *found]
                order = _branch_order(rows, allowed, len(best))
    except _Deadline:
        return sorted(best), False
    # the ascending walk is the lex-least maximal clique; if maximum, it is the answer
    if len(best) > walk:
        try:
            best = _lex_least_clique(rows, len(graph), len(best), deadline)
        except _Deadline:
            pass
    return sorted(best), True


def _greedy_cliques(
    graph: CompatibilityGraph, seed: int, deadline: float | None
) -> tuple[list[int], bool]:
    rng = random.Random(seed)
    rows = _Rows(graph)
    everything = (1 << len(graph)) - 1
    best: list[int] = []
    order = list(graph.candidates)
    for _ in range(_GREEDY_RESTARTS):
        if deadline is not None and time.monotonic() > deadline and best:
            break
        rng.shuffle(order)
        clique: list[int] = []
        pool = everything
        for v in order:
            if pool >> v & 1:
                clique.append(v)
                # uncached, so large s does not fill the row dict
                pool &= _xor_translate(rows[0], v, rows.width_bits)
                if not pool:
                    break
        low = min(clique)
        clique = sorted(c ^ low for c in clique)
        if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
            best = clique
    return best, False


def find_max_clique(
    compatibility: CompatibilityGraph, config: SearchConfig
) -> tuple[list[int], bool]:
    """Largest clique of candidate words plus a completeness flag.

    Exact mode raises the greedy clique at vertex 0 one vertex at a time
    with a decision branch-and-bound that branches only on vertices whose
    greedy color reaches the size sought; the first size it refutes proves
    the last one maximum.  A neighbor v of 0 on no larger clique through 0
    is a difference no larger clique holds, so the raise drops it for good.
    The ascending walk (take the lowest vertex left in the pool) gives the
    least maximal clique, returned when no raise succeeds; otherwise the
    lex-least pass, which keeps every difference, picks the least clique of
    the raised size.  A run out of time returns the largest clique proven so
    far, flagged incomplete.  Greedy mode takes the best of seeded
    randomized restarts on the same neighborhood bitmasks and is never
    flagged complete.  Output is deterministic for a given mode and seed.
    """
    deadline = None
    if config.time_budget is not None:
        deadline = time.monotonic() + config.time_budget
    if config.mode == "exact":
        return _exact_max_clique(compatibility, deadline)
    return _greedy_cliques(compatibility, config.seed, deadline)


def _parity_kernel(skeleton: OcwsCode, t: int) -> list[int]:
    """Ascending, fully reduced echelon basis of the parity kernel.

    The kernel holds the words on qubits 1..s with even overlap with the
    word-block X support of every degenerate error of weight <= t; zero
    supports constrain nothing and drop out of the echelon form.  With
    pivots at the top bits, the word of coordinate vector a (the XOR of
    the basis rows at the set bits of a) carries a's bits at the pivots,
    so the map a -> word preserves order.
    """
    constraints = _GF2Basis()
    for w in range(1, min(t, skeleton.n) + 1):
        for _position, e in _degenerate_errors(skeleton, w):
            constraints.add(e.x & ((1 << skeleton.s) - 1))
    rows = {row.bit_length() - 1: row for row in constraints.rows()}
    kernel = _GF2Basis()
    for j in range(skeleton.s):
        if j not in rows:
            # free bit j, plus each pivot whose constraint row also holds bit j
            v = 1 << j
            for p, row in rows.items():
                if row >> j & 1:
                    v |= 1 << p
            kernel.add(v)
    return kernel.rows()


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
