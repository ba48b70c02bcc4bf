"""Simple undirected graphs and their graph-state stabilizer generators.

Adjacency is stored one bit-mask row per vertex, in the same bit layout as
the Pauli masks (vertex i at bit i - 1).  Row i is exactly the Z pattern of
the i-th stabilizer generator X_i Z^{row_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .pauli import PauliOperator, format_bits

__all__ = [
    "Graph",
    "ring_graph",
    "from_adjacency",
    "stabilizer_generator",
    "edges",
    "adjacency_lines",
    "automorphism_generators",
]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n as bit-mask adjacency rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        if len(self.rows) != self.n:
            raise ValueError(
                f"adjacency has {len(self.rows)} rows, expected {self.n}"
            )
        mask = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if not 0 <= row <= mask:
                raise ValueError(f"adjacency row {i + 1} out of range for n={self.n}")
            if row >> i & 1:
                raise ValueError(f"nonzero diagonal at ({i + 1},{i + 1})")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"asymmetric at ({i + 1},{j + 1})")


def ring_graph(n: int) -> Graph:
    """Cycle graph 1-2-...-n-1; requires n >= 3."""
    if n < 3:
        raise ValueError(f"ring graph needs n >= 3, got n={n}")
    rows = tuple(
        (1 << ((i - 1) % n)) | (1 << ((i + 1) % n)) for i in range(n)
    )
    return Graph(n, rows)


def from_adjacency(rows: Sequence[Iterable[int | str]]) -> Graph:
    """Build a graph from an explicit adjacency matrix.

    Accepts rows as "0"/"1" strings or as sequences of 0/1 entries.  Rejects
    non-square, asymmetric, or nonzero-diagonal input with a diagnostic that
    names the offending entry (1-based).
    """
    n = len(rows)
    masks = []
    for i, row in enumerate(rows):
        entries = list(row)
        for j, v in enumerate(entries):
            if v not in (0, 1, "0", "1"):
                raise ValueError(f"invalid adjacency entry {v!r} at ({i + 1},{j + 1})")
        if len(entries) != n:
            raise ValueError(
                f"non-square adjacency: row {i + 1} has {len(entries)} entries, expected {n}"
            )
        masks.append(sum(int(v) << j for j, v in enumerate(entries)))
    return Graph(n, tuple(masks))


def stabilizer_generator(graph: Graph, i: int) -> PauliOperator:
    """The graph-state generator S_i = X_i Z^{row_i} for 1 <= i <= n."""
    if not 1 <= i <= graph.n:
        raise ValueError(f"vertex index {i} out of range for n={graph.n}")
    return PauliOperator(graph.n, x=1 << (i - 1), z=graph.rows[i - 1])


def edges(graph: Graph) -> list[tuple[int, int]]:
    """All edges as 1-based (i, j) pairs with i < j."""
    return [
        (i + 1, j + 1)
        for i in range(graph.n)
        for j in range(i + 1, graph.n)
        if graph.rows[i] >> j & 1
    ]


def adjacency_lines(graph: Graph) -> list[str]:
    """Adjacency matrix as 0/1 text rows (row i describes vertex i)."""
    return [format_bits(row, graph.n) for row in graph.rows]


# refinements one automorphism search may make; a search cut here returns
# fewer generators, which still generate a group of true automorphisms
_AUTOMORPHISM_NODES = 4000


def _refine(rows: tuple[int, ...], cells: list[int]) -> tuple[list[int], tuple[int, ...]]:
    """Coarsest equitable refinement of an ordered partition, with its trace.

    Cells are vertex bitmasks.  Each pass splits every cell by its members'
    counts of neighbors in each cell, packed into one int key, in ascending
    key order, until no cell splits.  The trace lists the key and size of
    every part, so an isomorphism between two start partitions gives equal
    traces and corresponding cells.  Keys are ints rather than tuples: a
    tuple per vertex and pass made the cyclic garbage collector run more
    often and raised the peak RSS of long runs.
    """
    width = len(rows).bit_length()
    trace: list[int] = []
    while True:
        split: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                split.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                row = rows[bit.bit_length() - 1]
                key = 0
                for c in cells:
                    key = key << width | (row & c).bit_count()
                groups[key] = groups.get(key, 0) | bit
            for key in sorted(groups):
                trace += (key, groups[key].bit_count())
                split.append(groups[key])
        if len(split) == len(cells):
            return split, tuple(trace)
        cells = split


def _individualize(cells: list[int], index: int, v: int) -> list[int]:
    """The partition with vertex v split off in front of its cell."""
    return [*cells[:index], 1 << v, cells[index] & ~(1 << v), *cells[index + 1 :]]


def _first_open_cell(cells: list[int]) -> int | None:
    return next((i for i, c in enumerate(cells) if c & (c - 1)), None)


class _NodeLimit(Exception):
    pass


class _BasePath:
    """The base path of refinements, and maps of it onto other paths.

    Each level individualizes the first vertex of the first cell with more
    than one; the refinements it makes count against _AUTOMORPHISM_NODES.
    """

    def __init__(self, graph: Graph, s: int):
        self.rows = graph.rows
        self.nodes = _AUTOMORPHISM_NODES
        self.word = word = (1 << s) - 1
        self.path = [self.refine([c for c in (word, ((1 << graph.n) - 1) ^ word) if c])]
        self.bases: list[tuple[int, int]] = []  # (cell index, vertex) by level
        while (index := _first_open_cell(self.path[-1][0])) is not None:
            cell = self.path[-1][0][index]
            v = (cell & -cell).bit_length() - 1
            self.bases.append((index, v))
            self.path.append(self.refine(_individualize(self.path[-1][0], index, v)))

    def refine(self, cells: list[int]) -> tuple[list[int], tuple[int, ...]]:
        if self.nodes <= 0:
            raise _NodeLimit
        self.nodes -= 1
        return _refine(self.rows, cells)

    def map_onto(self, level: int, cells: list[int], u: int) -> tuple[int, ...] | None:
        """An automorphism taking the path below `level` to a path from cells via u.

        cells corresponds to the path's partition at `level`; u takes the
        place of that level's base vertex.
        """
        child, trace = self.refine(_individualize(cells, self.bases[level][0], u))
        if trace != self.path[level + 1][1]:
            return None
        if level + 1 == len(self.bases):
            return self._leaf(child)
        rest = child[self.bases[level + 1][0]]
        while rest:
            bit = rest & -rest
            rest ^= bit
            found = self.map_onto(level + 1, child, bit.bit_length() - 1)
            if found is not None:
                return found
        return None

    def _leaf(self, cells: list[int]) -> tuple[int, ...] | None:
        """The map from the base path's leaf to cells, if it keeps the graph and blocks."""
        rows = self.rows
        image = [0] * len(rows)
        for source, target in zip(self.path[-1][0], cells):
            image[source.bit_length() - 1] = target.bit_length() - 1
        if sum(1 << image[v] for v in range(self.word.bit_length())) != self.word:
            return None
        for v, row in enumerate(rows):
            moved = sum(1 << image[u] for u in range(len(rows)) if row >> u & 1)
            if rows[image[v]] != moved:
                return None
        return tuple(image)


def automorphism_generators(graph: Graph, s: int) -> list[tuple[int, ...]]:
    """Generators of the automorphisms that map vertices 1..s onto themselves.

    Each generator is a tuple p sending vertex bit i to bit p[i]; it keeps
    the adjacency and the blocks 1..s and s+1..n.  The search individualizes
    vertices along one base path of equitable refinements, with the two
    blocks as the start cells (McKay, "Practical graph isomorphism", 1981).
    Going up the path, it looks for one map per point of the base vertex's
    cell that the generators found so far do not reach; the maps found at a
    level and below then generate the stabilizer of the base vertices above
    it.  The search makes at most _AUTOMORPHISM_NODES refinements; past
    them it returns the generators it has, a subgroup.
    """
    if not 1 <= s <= graph.n:
        raise ValueError(f"word block size s={s} out of range 1..{graph.n}")
    base = _BasePath(graph, s)
    generators: list[tuple[int, ...]] = []
    try:
        for level in reversed(range(len(base.bases))):
            index, v = base.bases[level]
            cells = base.path[level][0]
            rest = cells[index] & ~_orbit_of(v, generators)
            while rest:
                bit = rest & -rest
                rest ^= bit
                found = base.map_onto(level, cells, bit.bit_length() - 1)
                if found is not None:
                    generators.append(found)
                    rest &= ~_orbit_of(v, generators)
    except _NodeLimit:
        pass
    return generators


def _orbit_of(v: int, permutations: list[tuple[int, ...]]) -> int:
    """Bitmask of the orbit of vertex v under the permutations."""
    orbit, frontier = 1 << v, [v]
    while frontier:
        u = frontier.pop()
        for p in permutations:
            if not orbit >> p[u] & 1:
                orbit |= 1 << p[u]
                frontier.append(p[u])
    return orbit
