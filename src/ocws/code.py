"""Operator codeword-stabilized codes: construction, gauge group, file I/O.

A code is a graph (its state is the common +1 eigenstate of the generators
S_i = X_i Z^{row_i}), a count r of gauge qubits occupying the last r
positions, and K distinct word bit-vectors supported on the first
s = n - r qubits.  Word l encodes the Z-type word operator Z^{word_l}.
The gauge group is generated by S_1..S_n together with g_j = Z_{s+j}.

OcwsCode is the named tuple ``(graph, r, words, claimed_distance)`` and
GaugeGroup the named tuple ``(generators, labels)``; both are their fields
and nothing more.  The generators are already a reduced echelon basis: only
S_q has X on qubit q and only g_j has Z on qubit s + j.  So a Pauli's gauge
residue is its induced error z xor (the rows at its X support) on qubits
1..s, and the generators taken off are S_q at each X and g_j at each gauge
bit of that induced error; _gauge_residue reads both off.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .graph import Graph, adjacency_lines, from_adjacency, ring_graph, stabilizer_generator
from .pauli import PauliOperator, format_bits, parse_bits, parse_zstring

__all__ = [
    "OcwsCode",
    "GaugeGroup",
    "CodeFileError",
    "new_code",
    "gauge_generators",
    "gauge_decomposition",
    "parse_code_file",
    "write_code_file",
]


class CodeFileError(ValueError):
    """Raised for malformed code files."""


def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """Fully reduced echelon basis over GF(2) of the vectors' span.

    Vectors are plain integers.  Each row is keyed by its lowest set bit,
    its pivot, and every pivot bit is clear in every other row.  This is
    the package's one GF(2) elimination: the search's parity constraints
    and verify's rank of word differences use it.
    """
    rows: dict[int, int] = {}
    pivots = 0
    for v in vectors:
        # a row changes no pivot bit but its own, so the hits are fixed up front
        hits = v & pivots
        while hits:
            low = hits & -hits
            v ^= rows[low.bit_length() - 1]
            hits ^= low
        if v:
            low = v & -v
            for p, row in rows.items():
                if row & low:
                    rows[p] = row ^ v
            rows[low.bit_length() - 1] = v
            pivots |= low
    return rows


def _combine(columns: tuple[int, ...] | list[int], a: int) -> int:
    """XOR of the columns at the set bits of a: a's image under that linear map."""
    image = 0
    while a:
        low = a & -a
        image ^= columns[low.bit_length() - 1]
        a ^= low
    return image


class GaugeGroup(namedtuple("GaugeGroup", "generators labels")):
    """Generators S_1..S_n, g_1..g_r as PauliOperators, with their labels."""

    __slots__ = ()


class OcwsCode(namedtuple("OcwsCode", "graph r words claimed_distance")):
    """A validated code; errors name the offending word or position.

    new_code is this class under another name.  words is stored as a tuple.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace runs __new__

    def __new__(
        cls, graph: Graph, r: int, words: Iterable[int], claimed_distance: int | None = None
    ) -> OcwsCode:
        words = tuple(words)
        n = graph.n
        if not 0 <= r < n:
            raise ValueError(f"gauge count r={r} out of range for n={n}")
        if not words:
            raise ValueError("a code needs at least one word")
        if claimed_distance is not None and claimed_distance < 1:
            raise ValueError(f"claimed distance {claimed_distance} must be >= 1")
        word_mask = (1 << (n - r)) - 1
        seen: dict[int, int] = {}
        for pos, word in enumerate(words, start=1):
            if not 0 <= word < (1 << n):
                raise ValueError(f"word {pos} out of range for n={n}")
            if word & ~word_mask:
                qubit = (word & ~word_mask).bit_length()
                raise ValueError(
                    f"word {format_bits(word, n)} is supported on gauge qubit {qubit}"
                )
            if word in seen:
                raise ValueError(
                    f"duplicate word {format_bits(word, n)} at positions "
                    f"{seen[word]} and {pos}"
                )
            seen[word] = pos
        return super().__new__(cls, graph, r, words, claimed_distance)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def s(self) -> int:
        """Number of non-gauge qubits; words live on qubits 1..s."""
        return self.graph.n - self.r

    @property
    def K(self) -> int:
        return len(self.words)

    def word_operator(self, index: int) -> PauliOperator:
        """Z-type word operator for 0-based word index."""
        return PauliOperator(self.n, z=self.words[index])


new_code = OcwsCode


def _gauge_labels(code: OcwsCode) -> tuple[str, ...]:
    """S1..Sn, g1..gr: entry k labels generator k."""
    return (*(f"S{i}" for i in range(1, code.n + 1)), *(f"g{j}" for j in range(1, code.r + 1)))


def _gauge_residue(code: OcwsCode, p: PauliOperator) -> tuple[int, int]:
    """p's gauge residue, and the generators taken off as combo bits (bit k: generator k)."""
    if p.n != code.n:
        raise ValueError(f"operator length {p.n} does not match code n={code.n}")
    raw = p.z ^ _combine(code.graph.rows, p.x)
    return raw & ((1 << code.s) - 1), p.x | raw >> code.s << code.n


def gauge_generators(code: OcwsCode) -> GaugeGroup:
    """The n + r gauge generators S_1..S_n, g_1..g_r as PauliOperators, with their labels."""
    generators = [stabilizer_generator(code.graph, i) for i in range(1, code.n + 1)]
    generators += [PauliOperator(code.n, z=1 << (code.s + j)) for j in range(code.r)]
    return GaugeGroup(tuple(generators), _gauge_labels(code))


def gauge_decomposition(code: OcwsCode, p: PauliOperator) -> str | None:
    """Generator product equal to p up to phase (e.g. ``"S7*g1"``), or None."""
    residue, combo = _gauge_residue(code, p)
    return None if residue else _gauge_product(code, combo)


def _gauge_product(code: OcwsCode, combo: int) -> str:
    """The generators at the set bits of combo as a product ("S7*g1"), or "identity"."""
    return "*".join(g for k, g in enumerate(_gauge_labels(code)) if combo >> k & 1) or "identity"


# the integer keys, each with its message for a value below 1; OcwsCode checks r
_INT_KEYS = {
    "n": "n must be >= 1, got {}",
    "r": None,
    "distance": "claimed distance {} must be >= 1",
}


def parse_code_file(text: str) -> OcwsCode:
    """Parse the line-oriented code file format.

    Grammar: ``key = value`` lines with keys ``n``, ``r``, ``graph``,
    ``distance`` (optional) and ``word`` (repeatable); ``#`` starts a
    comment; blank lines are ignored.  ``graph`` is either ``ring`` or
    ``adjacency:`` followed by n rows of 0/1 text; ``n`` must come before
    ``graph`` and ``word`` lines, the other keys may come in any order.
    Words are 0/1 strings or I/Z strings of length n.  Round-trips exactly
    with write_code_file().
    """
    ints: dict[str, int] = {}
    seen: set[str] = set()
    graph: Graph | None = None
    words: list[int] = []
    pending_rows: list[str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if pending_rows is not None:
            pending_rows.append(line)
            if len(pending_rows) == ints["n"]:
                try:
                    graph = from_adjacency(pending_rows)
                except ValueError as exc:
                    raise CodeFileError(f"bad adjacency block: {exc}") from exc
                pending_rows = None
            continue
        if "=" not in line:
            raise CodeFileError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen and key != "word":
            raise CodeFileError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key in _INT_KEYS:
            number = ints[key] = _parse_int(value, lineno, key)
            if _INT_KEYS[key] is not None and number < 1:
                raise CodeFileError(f"line {lineno}: {_INT_KEYS[key].format(number)}")
        elif key not in ("graph", "word"):
            raise CodeFileError(f"line {lineno}: unknown key {key!r}")
        elif key == "graph" and value not in ("ring", "adjacency:"):
            raise CodeFileError(
                f"line {lineno}: graph must be 'ring' or 'adjacency:', got {value!r}"
            )
        elif "n" not in ints:
            raise CodeFileError(f"line {lineno}: 'n' must precede {key!r}")
        elif key == "word":
            words.append(_parse_word(value, ints["n"], lineno))
        elif value == "ring":
            try:
                graph = ring_graph(ints["n"])
            except ValueError as exc:
                raise CodeFileError(f"line {lineno}: {exc}") from exc
        else:
            pending_rows = []

    if pending_rows is not None:
        raise CodeFileError(
            f"adjacency block ended after {len(pending_rows)} of {ints['n']} rows"
        )
    for key in ("n", "r", "graph", "word"):
        if key not in seen:
            raise CodeFileError(f"missing required key {key!r}")
    try:
        return OcwsCode(graph, ints["r"], words, ints.get("distance"))
    except ValueError as exc:
        raise CodeFileError(str(exc)) from exc


def _parse_int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CodeFileError(f"line {lineno}: {key} must be an integer, got {value!r}") from None


def _parse_word(value: str, n: int, lineno: int) -> int:
    # a whole 0/1 word in one int(); the guard keeps out the "_", "0b", signs
    # and spaces that int() also takes, so they fail below with their messages
    if len(value) == n and not value.strip("01"):
        return int(value[::-1], 2)
    chars = set(value)
    try:
        if chars <= {"0", "1"}:
            length, bits = parse_bits(value)
        elif chars <= {"I", "Z"}:
            length, bits = parse_zstring(value)
        else:
            raise ValueError(f"word {value!r} is neither a bit string nor an I/Z string")
        if length != n:
            raise ValueError(f"word {value!r} has length {length}, expected {n}")
    except ValueError as exc:
        raise CodeFileError(f"line {lineno}: {exc}") from None
    return bits


def write_code_file(code: OcwsCode) -> str:
    """Canonical text form; parse_code_file(write_code_file(c)) == c."""
    lines = [f"n = {code.n}", f"r = {code.r}"]
    if code.n >= 3 and code.graph == ring_graph(code.n):
        lines.append("graph = ring")
    else:
        lines.append("graph = adjacency:")
        lines.extend(adjacency_lines(code.graph))
    if code.claimed_distance is not None:
        lines.append(f"distance = {code.claimed_distance}")
    for word in code.words:
        lines.append(f"word = {format_bits(word, code.n)}")
    return "\n".join(lines) + "\n"
