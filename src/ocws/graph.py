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
