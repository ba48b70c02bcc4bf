"""Word-set search: maximum-clique discovery of classical codes on a graph.

Candidate words are the Z bit-vectors supported on the non-gauge qubits
that have even overlap with the word-block X support of every degenerate
error of weight <= t = (d - 1) // 2.  Those words form the parity kernel,
a k-dimensional subspace of GF(2)^s; the kernel's scan for those errors,
the zero class of the reduced induced images, is induction._zero_class,
which the classical route of verify reads too.  Two candidates can
coexist in a code of target distance d exactly when their XOR difference
avoids every gauge-reduced induced error of weight <= d - 1.
In the coordinates of a fully reduced echelon basis of the kernel, the
compatibility graph is therefore CompatibilityGraph(k, forbidden), a
named tuple of just those fields read as a Cayley graph on the ints
0..2^k - 1, and a maximum clique is a maximum-size word set; SearchConfig
is a named tuple too.  The coordinate map preserves order, so the
lexicographically least clique maps to the least word set.

The exact mode raises the ascending walk from vertex 0, which is the
lexicode and is built a coset at a time, by a decision branch-and-bound
that branches only on vertices colored at least the size sought.  That
engine, the coloring, the decision routine, the raise and the lex-least
pass, runs on bit positions p = v xor (2^k - 1): vertex 0 is the top bit,
so the lowest open vertex of a mask is mask.bit_length() - 1.  The XOR is
a translation, an automorphism of the Cayley graph, so rows, translates
and twins read the same in positions, and ascending vertex order is
descending position order: every coloring, branch and output is the one
that vertex order gives.  A pick reads its row and bit from two lists
built once over the root pool, which holds every pool met, so it builds
no integer (San Segundo et al., 2011); see _Rows.positions.  Vertex ids
meet positions only in the raise:
at its root pool, at the difference p xor (2^k - 1) of each root branch,
in its orbit action and in the cliques it hands back.  The
raise drops each difference that fails to extend, with its whole orbit
under the graph's automorphisms that keep the gauge block, carried to
kernel coordinates (orbit pruning as in Kaski & Östergård,
"Classification Algorithms for Codes and Designs", 2006).  The group
comes from the qubit graph, not from the Cayley graph, so search_code
hands find_max_clique a call that builds it, as generators, beside the
graph; the raise makes that call only when it first refutes a difference.
In the root branch on v, each refuted child drops with its twin, the
child xor v.  The lex-least pass keeps every difference, prunes no twin,
uses no group and resumes at vertex 0.  Greedy restarts draw the same
permutations as random.shuffle on random.Random(seed), drawn inline, and
a restart stops once its clique and pool together fall short of the best
size, which leaves the result unchanged.  A budget cuts a restart at a
member; its clique so far competes.  One verifier sweep re-checks each
found code.
"""

from __future__ import annotations

import random
import sys
import time
from collections import namedtuple
from collections.abc import Callable, Iterable

from .code import OcwsCode, _combine, _echelon
from .graph import Graph, _orbit_of, automorphism_generators
# enumerate_paulis, induced_error_set, certify_distance and corrects_weight
# stay bound here for perfbench/spans.py
from .induction import enumerate_paulis, induced_error_set  # noqa: F401
from .induction import _zero_class, induced_images, pauli_images
from .verify import analyze, certify_distance, corrects_weight  # noqa: F401

__all__ = [
    "SearchError",
    "SearchConfig",
    "forbidden_differences",
    "CompatibilityGraph",
    "find_max_clique",
    "search_code",
]

_GREEDY_RESTARTS = 128
_SHUFFLE_CHUNK = 1 << 16  # shuffle steps between two readings of the deadline
_ROW_CACHE_BYTES = 64 << 20


class SearchError(Exception):
    """Search finished without an acceptable code; best_k is the size reached."""

    def __init__(self, message: str, best_k: int = 0):
        super().__init__(message)
        self.best_k = best_k


class SearchConfig(
    namedtuple("SearchConfig", "graph r target_distance target_K mode time_budget seed")
):
    """One search: the graph, r gauge qubits, the target distance and how to search.

    target_K is a required word count; mode is "exact" or "greedy";
    time_budget is in seconds; seed drives greedy mode's restarts.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__

    def __new__(
        cls,
        graph: Graph,
        r: int,
        target_distance: int,
        target_K: int | None = None,
        mode: str = "exact",
        time_budget: float | None = None,
        seed: int = 0,
    ) -> SearchConfig:
        if not 0 <= r < graph.n:
            raise ValueError(f"gauge count r={r} out of range for n={graph.n}")
        if not 1 <= target_distance <= graph.n + 1:
            raise ValueError(
                f"target distance {target_distance} out of range 1..{graph.n + 1}"
                f" for n={graph.n}"
            )
        if target_K is not None and target_K < 1:
            raise ValueError(f"target K {target_K} must be >= 1")
        if mode not in ("exact", "greedy"):
            raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
        if graph.n - r > 24:
            raise ValueError(f"s={graph.n - r} too large for search (limit 24)")
        if time_budget is not None and not time_budget > 0:
            raise ValueError(f"time budget {time_budget} must be positive")
        return super().__new__(cls, graph, r, target_distance, target_K, mode, time_budget, seed)

    @property
    def s(self) -> int:
        return self.graph.n - self.r


def forbidden_differences(code_skeleton: OcwsCode, max_error_weight: int) -> frozenset[int]:
    """Nonzero reduced induced errors of every Pauli with weight <= the bound.

    A candidate pair whose XOR difference lands in this set is confusable
    by some error of that weight, so cliques avoiding it have certified
    distance > max_error_weight.  The sweep stops once the set is the whole
    word space.
    """
    if not 0 <= max_error_weight <= code_skeleton.n:
        raise ValueError(f"max error weight {max_error_weight} out of range 0..{code_skeleton.n}")
    images = induced_images(code_skeleton, (1 << code_skeleton.s) - 1)
    sweep = (c for w in range(1, max_error_weight + 1) for c in pauli_images(*images, w))
    found = {0}
    for _support, _offset, errors in sweep:
        found.update(errors)
        if len(found) >> code_skeleton.s:  # all 2^s vectors: no later error adds one
            break
    return frozenset(found - {0})


class CompatibilityGraph(namedtuple("CompatibilityGraph", "k forbidden")):
    """Cayley graph on the 2^k vectors of GF(2)^k, as the ints 0..2^k - 1.

    Edges join pairs whose XOR difference is not forbidden.  The graph is
    vertex-transitive, with every neighborhood an XOR translate of the
    neighborhood of 0.  len() is its vertex count 2^k, not its field count.
    """

    __slots__ = ()
    # namedtuple's own _make checks len() against the field count
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, k: int, forbidden: Iterable[int]) -> CompatibilityGraph:
        return super().__new__(cls, k, frozenset(forbidden))

    def __len__(self) -> int:
        return 1 << self.k

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild from the fields; namedtuple's own would size
        # a tuple from len(), 2^k slots
        return (self.k, self.forbidden)


class _Deadline(Exception):
    pass


class _Rows(dict):
    """Closed non-neighborhood masks, all vertices but v and its row, by vertex v.

    Coloring clears a vertex and its neighbors from a class with one AND of
    its mask.  Every row is an XOR translate of `base`, the row of vertex 0.
    Bit u of a mask is vertex u.  Since u is a non-neighbor of v exactly
    when u xor v is forbidden, the mask of p is also the exact engine's in
    positions p = v xor (2^k - 1), bit q standing for position q; only
    `base`, a pool, needs translate(base, 2^k - 1) there.  Masks are kept up
    to _ROW_CACHE_BYTES; past that they are recomputed.  positions() lists
    the exact engine's rows and bits instead while they fit that bound.
    """

    def __init__(self, graph: CompatibilityGraph):
        super().__init__()
        m = len(graph)
        # half-mask b, of the vertices with bit b clear, is the one above XOR its shift by 2^b
        halves = [(1 << (m >> 1)) - 1]
        for b in reversed(range((m - 1).bit_length() - 1)):
            halves.append(halves[-1] ^ halves[-1] << (1 << b))
        self._halves = halves[::-1] if m > 1 else []
        forbidden = sum(1 << f for f in graph.forbidden if f < m)
        self._everything = (1 << m) - 1
        self.base = (self._everything ^ 1) & ~forbidden
        self._room = _ROW_CACHE_BYTES // (m // 8 + 1)

    def __missing__(self, index: int) -> int:
        # kept nonnegative: an AND with a negative int copies it first
        mask = self._everything ^ (self.translate(self.base, index) | 1 << index)
        if len(self) < self._room:
            self[index] = mask
        return mask

    def translate(self, mask: int, t: int) -> int:
        """Permute a bitmask over the vertices by p -> p xor t, with 0 <= t < 2^k.

        One swap of half-masks per set bit of t, from the highest down.
        """
        halves = self._halves
        while t:
            b = t.bit_length() - 1
            t ^= 1 << b
            low, step = halves[b], 1 << b
            mask = ((mask & low) << step) | ((mask >> step) & low)
        return mask

    def positions(self, root: int) -> tuple[list | _Rows, list | _Bits]:
        """Rows cut to the root pool, and bits 1 << p, listed at its positions.

        Each row is the last one translated by a position XOR, a bit or two
        on average.  Past _ROW_CACHE_BYTES, this mapping and _Bits serve.
        """
        width = root.bit_length()
        # a row and a bit take at most width // 8 + 1 bytes each
        if 16 * width + 2 * root.bit_count() * (width // 8 + 1) > _ROW_CACHE_BYTES:
            return self, _Bits()
        rows: list = [None] * width
        bits: list = [None] * width
        mask, at, rest = self.base, 0, root
        while rest:
            p = rest.bit_length() - 1
            bits[p] = bit = 1 << p
            rest ^= bit
            mask = self.translate(mask, at ^ p)
            at = p
            rows[p] = root ^ (root & (mask | bit))
        return rows, bits


class _Bits(dict):
    """1 << p by position p, built on each read."""

    def __missing__(self, p: int) -> int:
        return 1 << p


def _branch_order(
    rows: list | _Rows, bits: list | _Bits, pool: int, size: int, deadline: float | None
) -> list[int]:
    """Positions that a greedy coloring of the pool puts in color `size` or above.

    The pool is a mask over positions p = v xor (2^k - 1), so vertex 0 is
    the top bit and a class takes its lowest open vertex, its highest set
    bit, with one bit_length(); each class picks vertices in ascending
    order.  The list runs in ascending color and callers branch from its
    end.  The vertices left off fill size - 1 color classes, so once every
    listed vertex is branched on and dropped, the pool is refuted.  A pool
    of fewer than `size` vertices is refuted without touching a row.  Each
    class clears its members' closed neighborhoods with one AND of their
    rows, and checks the deadline once before it starts.
    """
    if pool.bit_count() < size:
        return []
    order: list[int] = []
    color = 1
    while pool:
        if deadline is not None and time.monotonic() > deadline:
            raise _Deadline
        available = pool
        if color < size:
            while available:
                p = available.bit_length() - 1
                pool ^= bits[p]
                available &= rows[p]
        else:
            while available:
                p = available.bit_length() - 1
                order.append(p)
                pool ^= bits[p]
                available &= rows[p]
        color += 1
    return order


def _exists_clique(
    rows: list | _Rows, bits: list | _Bits, pool: int, size: int, deadline: float | None,
    twin: int = 0,
) -> list[int] | None:
    """A clique of the given size within the pool, or None if there is none.

    Pool and clique are in positions, as in _branch_order.  A nonzero twin
    t says that p -> p xor t maps the pool onto itself and keeps its edges,
    so a position on no clique of the size has a twin on none: both drop,
    and a listed position already dropped is skipped.  The children get no
    twin, since the map moves each narrowed pool.
    """
    if size <= 0:
        return []
    for p in reversed(_branch_order(rows, bits, pool, size, deadline)):
        bit = bits[p]
        if not pool & bit:
            # dropped as the twin of a refuted position
            continue
        pool ^= bit
        found = _exists_clique(rows, bits, pool ^ (pool & rows[p]), size - 1, deadline)
        if found is not None:
            found.append(p)
            return found
        if twin:
            pool ^= pool & bits[p ^ twin]
    return None


def _lex_least_clique(
    rows: list | _Rows, bits: list | _Bits, pool: int, size: int, deadline: float | None
) -> list[int]:
    """Lexicographically least index clique of a size known to exist, less its vertex 0.

    pool is the neighborhood of vertex 0, and the members come back, in
    ascending vertex order, as positions p = v xor (2^k - 1).  Translated by
    its least member, any clique holds 0 and sorts no later, so the least
    one holds 0.  Each step takes the pool's lowest vertex, its highest
    set bit, if a clique of the size left extends it there, and drops it
    otherwise.
    """
    clique: list[int] = []
    while len(clique) < size - 1:
        p = pool.bit_length() - 1
        pool ^= bits[p]
        narrowed = pool ^ (pool & rows[p])
        if _exists_clique(rows, bits, narrowed, size - len(clique) - 2, deadline) is not None:
            clique.append(p)
            pool = narrowed
    return clique


def _exact_max_clique(
    graph: CompatibilityGraph,
    symmetries: Callable[[], list[tuple[int, ...]]],
    deadline: float | None,
) -> tuple[list[int], bool]:
    rows = _Rows(graph)
    # some maximum clique contains vertex 0 by vertex transitivity
    allowed = rows.base
    # the ascending walk from 0 is the lexicode (Conway & Sloane, "Lexicographic
    # codes", 1986), a subspace, so it grows a coset at a time
    best, pool = [0], allowed
    while pool:
        v = (pool & -pool).bit_length() - 1
        best += [b ^ v for b in best]
        pool &= rows.translate(pool, v)
    walk = len(best)
    maps = None
    # _exists_clique recurses once per vertex it adds, here and in the lex-least
    # pass, and a clique through 0 holds at most 1 + |row of 0| vertices
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + allowed.bit_count() + 1)
    # the raise runs on positions p = v xor top, vertex 0 at the top bit; a root
    # pool too small to raise the walk is refuted unbuilt, so a walk of every
    # vertex costs no translate
    top = len(graph) - 1
    root = rows.translate(allowed, top) if allowed.bit_count() >= walk else 0
    allowed = root
    table, bits = rows.positions(root)
    try:
        order = _branch_order(table, bits, allowed, walk, deadline)
        while order:
            p = order.pop()
            if not allowed & bits[p]:
                # dropped with the orbit of a refuted difference
                continue
            # q -> q xor v keeps this pool and its edges and swaps 0 with v
            v = p ^ top
            pool = allowed & rows.translate(allowed, v)
            found = _exists_clique(table, bits, pool, len(best) - 1, deadline, v)
            if found is None:
                # translated by a, a larger clique with a ^ b = v would hold 0 and
                # v; for a linear map A keeping the forbidden set, A^-1 maps one
                # through 0 and A(v) onto one through 0 and v: the orbit drops
                if maps is None:
                    maps = symmetries()
                allowed &= ~_orbit_of(p, maps, lambda g, q: _combine(g, q ^ top) ^ top)
            else:
                best = [0, v, *(q ^ top for q in found)]
                order = _branch_order(table, bits, allowed, len(best), deadline)
        # the walk is the lex-least maximal clique; if maximum, it is the answer
        if len(best) > walk:
            least = _lex_least_clique(table, bits, root, len(best), deadline)
            best = [0, *(p ^ top for p in least)]
    except _Deadline:
        return sorted(best), False
    finally:
        sys.setrecursionlimit(limit)
    return sorted(best), True


def _shuffle(
    order: list[int], getrandbits: Callable[[int], int], deadline: float | None = None
) -> bool:
    """random.Random.shuffle, drawing the same bits without a _randbelow per step.

    The stdlib's Fisher-Yates draws j below i + 1 as k = (i + 1).bit_length()
    random bits, drawn again while j > i.  Here k is held over each block of
    steps that share it, so the permutation and the generator's state after
    it equal the stdlib's.  The deadline is read after each chunk of
    _SHUFFLE_CHUNK steps within a block, so a shuffle of at most that many
    items never reads it; False means it had passed, leaving order part
    shuffled.
    """
    i = len(order) - 1
    while i > 0:
        k = (i + 1).bit_length()
        stop = (1 << (k - 1)) - 2  # the block ends at i = 2^(k-1) - 1
        chunk = i - stop >= _SHUFFLE_CHUNK
        if chunk:
            stop = i - _SHUFFLE_CHUNK
        for i in range(i, stop, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        i = stop
        if chunk and deadline is not None and time.monotonic() > deadline:
            return False
    return True


def _greedy_cliques(
    graph: CompatibilityGraph, seed: int, deadline: float | None
) -> tuple[list[int], bool]:
    getrandbits = random.Random(seed).getrandbits
    rows = _Rows(graph)
    everything = (1 << len(graph)) - 1
    best: list[int] = []
    order = list(range(len(graph)))
    for _ in range(_GREEDY_RESTARTS):
        if deadline is not None and time.monotonic() > deadline and best:
            break
        if not _shuffle(order, getrandbits, deadline):
            return best or [0], False
        clique: list[int] = []
        pool = everything
        for v in order:
            if pool >> v & 1:
                clique.append(v)
                # uncached, so large s does not fill the mask dict
                pool &= rows.translate(rows.base, v)
                # abandoned once it cannot reach best's size; a tie can still win
                if not pool or len(clique) + pool.bit_count() < len(best):
                    break
                # cut at a member, a restart offers its clique and the check above ends the run
                if deadline is not None and time.monotonic() > deadline:
                    break
        if len(clique) < len(best):
            continue
        low = min(clique)
        clique = sorted(c ^ low for c in clique)
        if len(clique) > len(best) or (len(clique) == len(best) and clique < best):
            best = clique
    return best, False


def find_max_clique(
    compatibility: CompatibilityGraph,
    config: SearchConfig,
    symmetries: Callable[[], list[tuple[int, ...]]] = lambda: [],
) -> tuple[list[int], bool]:
    """Largest clique of the compatibility graph plus a completeness flag.

    Reads config.mode, config.time_budget and, in greedy mode, config.seed.
    Exact mode returns the lexicographically least maximum clique, which
    holds vertex 0, flagged complete; cut by the budget, it returns the
    largest clique proven so far, flagged incomplete.  Greedy mode returns
    the best of seeded restarts and is never flagged complete.  The clique
    is sorted, and the output is deterministic for a given mode and seed.

    symmetries returns generators of linear maps of GF(2)^k that keep the
    forbidden set, each as its k column images; the default is no group.
    Exact mode calls it once, when the raise first refutes a difference,
    and greedy mode never does.  The budget is checked once per color class,
    or before each restart, after each 2^16 steps of its shuffle and at each
    member it adds; building the group is bounded by its node limit instead.
    """
    deadline = None
    if config.time_budget is not None:
        deadline = time.monotonic() + config.time_budget
    if config.mode == "exact":
        return _exact_max_clique(compatibility, symmetries, deadline)
    return _greedy_cliques(compatibility, config.seed, deadline)


def _coordinates(constraints: dict[int, int], vectors: Iterable[int]) -> Iterable[int]:
    """Kernel coordinates of the vectors in the kernel: their bits off the pivots.

    Vectors with odd parity against a constraint row drop out.  Each pass
    runs over the whole list, every filter before any shift, since dropping
    a bit moves the bits above it; pivots drop from the highest down, so
    each is still where its key says.  With no constraints the vectors pass
    through untouched.
    """
    for row in constraints.values():
        vectors = [v for v in vectors if not (v & row).bit_count() & 1]
    for p in sorted(constraints, reverse=True):
        low = (1 << p) - 1
        vectors = [v >> 1 & ~low | v & low for v in vectors]
    return vectors


def _kernel_maps(
    graph: Graph, s: int, basis: list[int], constraints: dict[int, int]
) -> list[tuple[int, ...]]:
    """The graph's automorphisms that keep the gauge block, on kernel coordinates.

    Such a qubit permutation sends each Pauli to one of the same weight and
    its reduced induced error to the permuted one, so it keeps the forbidden
    set and the parity kernel.  Each map lists the coordinates of the
    permuted basis rows; maps that fix every coordinate are left out.
    """
    identity = tuple(1 << i for i in range(len(basis)))
    maps = []
    for p in automorphism_generators(graph, s):
        units = [1 << p[q] for q in range(s)]
        columns = tuple(_coordinates(constraints, [_combine(units, row) for row in basis]))
        if columns != identity:
            maps.append(columns)
    return maps


def _compatibility(
    config: SearchConfig,
) -> tuple[CompatibilityGraph, Callable[[], list[tuple[int, ...]]], list[int]]:
    """The parity kernel's Cayley graph in coordinates, a call building its group, the basis.

    The constraint rows, an echelon basis of the zero class's word-block X
    parts, are keyed by their lowest bit, their pivot, and hold no other
    pivot.  The basis row for free bit j is bit j plus each pivot whose row
    holds bit j, so it has even parity against every row; those pivots lie
    below j, so its top bit is j, and it holds no other free bit.  The rows,
    ascending in j, are thus the kernel's unique fully reduced echelon basis
    with pivots at the top bits: the word of coordinate vector a (the XOR of
    the rows at the set bits of a) carries a's bits at the free bits and
    nothing else off the pivots, so the map a -> word preserves order and a
    word's coordinates are its bits off the pivots.
    """
    skeleton = OcwsCode(config.graph, config.r, (0,))
    forbidden = forbidden_differences(skeleton, config.target_distance - 1)
    word_mask = (1 << config.s) - 1
    constraints = _echelon(
        x & word_mask for x in _zero_class(skeleton, (config.target_distance - 1) // 2)
    )
    basis = [
        1 << j | sum(1 << p for p, row in constraints.items() if row >> j & 1)
        for j in range(config.s)
        if j not in constraints
    ]
    graph = CompatibilityGraph(len(basis), _coordinates(constraints, forbidden))
    return graph, lambda: _kernel_maps(config.graph, config.s, basis, constraints), basis


def search_code(config: SearchConfig) -> tuple[OcwsCode, bool]:
    """Find a maximum-size word set at the target distance and verify it.

    Returns the code and its completeness flag.  Raises SearchError when a
    requested size is not reached or the assembled code fails re-verification;
    the exception carries the best clique size achieved.
    """
    t = (config.target_distance - 1) // 2
    graph, symmetries, basis = _compatibility(config)
    clique, complete = find_max_clique(graph, config, symmetries)
    k = len(clique)
    if config.target_K is not None and k < config.target_K:
        raise SearchError(
            f"no word set of size >= {config.target_K} found; best is {k}",
            best_k=k,
        )
    words = [_combine(basis, a) for a in clique]
    code = OcwsCode(config.graph, config.r, words)
    result = analyze(code, t)
    if result.distance < config.target_distance or result.degenerate is not None:
        raise SearchError(
            f"found word set of size {k} failed verification at distance "
            f"{config.target_distance}",
            best_k=k,
        )
    return code._replace(claimed_distance=result.distance), complete
