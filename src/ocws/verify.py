"""Detection and correction checks for operator codeword-stabilized codes.

An error E is detectable when no pair of distinct word operators can be
confused by it: w_i E w_j stays outside the gauge group for every i != j.
Correcting all weight <= t errors additionally requires the degenerate
errors, the gauge elements of weight <= t, to act alike on every codeword
sector.  A gauge element with X support x acts on the sector of word c
with sign (-1)^(x . c), so it acts alike exactly when it commutes with
every word operator; one that anticommutes with a word blocks correction.

Two independent routes are provided.  The operator route is one sweep,
analyze(), over the gauge residues of the Paulis (code._gauge_residue) by
ascending weight: a residue in the set of word differences marks an
undetectable error and a zero residue a gauge element, so detection and
degeneracy read the same sweep.  certify_distance, corrects_weight and the
CLI verdict all read its result, the named tuple Analysis(distance,
failure, degenerate).  The classical route reads the same sweep of
reduced induced images but keeps its own rule: it keys every translated
word c_i xor e by its word i, so a translate held by two words makes them
confusable, and tests the zero class (induction._zero_class) for odd
overlap with a word by itself.  They must agree on every code.
detects_set looks a given error list up in the same set of word
differences, so it is not a third independent route.
"""

from __future__ import annotations

from collections import namedtuple

from .code import OcwsCode, _echelon, _gauge_product, _gauge_residue
from .induction import _zero_class, image_positions, induced_images, pauli_at, pauli_images
# enumerate_paulis, induced_error_set and paulis_of_weight stay bound here for perfbench/spans.py
from .induction import enumerate_paulis, induced_error_set, paulis_of_weight  # noqa: F401
from .pauli import PauliOperator

__all__ = [
    "DetectionFailure",
    "DetectionReport",
    "DegenerateFailure",
    "Analysis",
    "detects_set",
    "analyze",
    "corrects_weight",
    "certify_distance",
    "classical_route_corrects",
]


class DetectionFailure(namedtuple("DetectionFailure", "error word_i word_j decomposition")):
    """An undetectable error with its first confusable word pair (1-based).

    decomposition names the gauge element w_i E w_j, as gauge_decomposition does.
    """

    __slots__ = ()


class DetectionReport(namedtuple("DetectionReport", "checked failures")):
    """The count of errors checked and a DetectionFailure for each undetectable one."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _differences(words: tuple[int, ...]) -> set[int]:
    """Every word-pair difference c_i xor c_j, i != j.

    w_i E w_j lies in the gauge group exactly when E's gauge residue is
    c_i xor c_j: a word is Z-type on qubits 1..s, so it is its own residue,
    and 0 is no difference.  The differences span what the c_1 xor c_j
    span, so rows stop once the set holds every nonzero vector of it.  Only a
    nonempty set of 2^j - 1 vectors can, so the rank is computed, once,
    when the set first reaches such a size.
    """
    nonzero = None  # 2^rank - 1, once computed
    differences: set[int] = set()
    for i, c in enumerate(words, start=1):
        size = len(differences)
        if size and not size & (size + 1):
            if nonzero is None:
                nonzero = (1 << len(_echelon(words[0] ^ d for d in words[1:]))) - 1
            if size == nonzero:
                break
        differences.update([c ^ d for d in words[i:]])
    return differences


def _first_failure(
    code: OcwsCode, e: PauliOperator, differences: set[int]
) -> DetectionFailure | None:
    """e's first confusable word pair: the least i, then its partner j.

    w_i E w_j is E with its residue c_i xor c_j XORed into Z: the gauge
    element that E's reduction took off, named by that reduction's combo.
    """
    residue, combo = _gauge_residue(code, e)
    if residue not in differences:
        return None
    index = {c: j for j, c in enumerate(code.words, start=1)}
    # the least i with a partner comes first, so its partner j follows it
    i, j = next((i, index[c ^ residue]) for c, i in index.items() if c ^ residue in index)
    return DetectionFailure(e, i, j, _gauge_product(code, combo))


def detects_set(code: OcwsCode, errors) -> DetectionReport:
    """Check every error; the report lists each failure with one witness pair."""
    errors = list(errors)
    differences = _differences(code.words)
    found = (_first_failure(code, e, differences) for e in errors)
    return DetectionReport(len(errors), tuple(f for f in found if f is not None))


class DegenerateFailure(namedtuple("DegenerateFailure", "error word")):
    """A degenerate error that anticommutes with word operator `word` (1-based)."""

    __slots__ = ()


class Analysis(namedtuple("Analysis", "distance failure degenerate")):
    """Result of one sweep: certified distance and the first witnesses.

    failure is the first undetectable error, a DetectionFailure, where the
    sweep stopped (None when every error up to weight n is detectable).
    degenerate is the first gauge element of weight <= t, up to and
    including that one, that anticommutes with a word operator, as a
    DegenerateFailure (or None).
    """

    __slots__ = ()


def analyze(code: OcwsCode, t: int) -> Analysis:
    """Sweep the gauge residues of the Paulis by ascending weight, once.

    The first residue in the set of word differences is the first
    undetectable error; the sweep stops there, and its weight is the
    certified distance (n + 1 when every nonidentity Pauli is detectable;
    with a single word no pair exists and only weights <= t are swept).
    Until a degenerate witness is found, a zero residue of weight <= t, up
    to and including that error, is a gauge element and is tested for odd
    overlap with a word.  A residue is GF(2)-linear in the Pauli, so the
    sweep XORs per-qubit residues, the reduced induced images, and builds
    only the Paulis it tests or reports.
    """
    if t < 0:
        raise ValueError(f"weight bound t={t} must be >= 0")
    n = code.n
    t = min(t, n)
    residues = induced_images(code, (1 << code.s) - 1)
    keys = _differences(code.words)
    keys.add(0)  # a gauge element: 0 is no word difference, so no failure
    degenerate = None
    for w in range(1, (n if code.K > 1 else t) + 1):
        for support, i, residue in image_positions(pauli_images(*residues, w), keys):
            if residue:
                failure = _first_failure(code, pauli_at(n, support, i), keys)
                return Analysis(w, failure, degenerate)
            if w <= t and degenerate is None:
                e = pauli_at(n, support, i)
                odd = (l for l, c in enumerate(code.words, start=1) if (e.x & c).bit_count() % 2)
                if word := next(odd, 0):
                    degenerate = DegenerateFailure(e, word)
    return Analysis(n + 1, None, degenerate)


def corrects_weight(code: OcwsCode, t: int) -> bool:
    """True iff every Pauli error of weight <= t is correctable.

    Requires detection of every nonidentity product of two such errors
    (weight <= 2t), and that no degenerate error (gauge element of weight
    <= t) anticommutes with a word operator.  Reads analyze(code, t),
    whose sweep runs on to the first undetectable error even past 2t.
    """
    a = analyze(code, t)
    return a.distance > min(2 * t, code.n) and a.degenerate is None


def certify_distance(code: OcwsCode) -> int:
    """Smallest weight of an undetectable nonidentity error, or n + 1.

    A return of d certifies every error of weight < d is detectable.  When
    every nonidentity Pauli is detectable (as with a single word, where no
    word pair exists) the sweep is vacuous beyond weight n and the value is
    capped at n + 1.
    """
    return analyze(code, 0).distance


def classical_route_corrects(code: OcwsCode, t: int) -> bool:
    """Correction test for weight <= t errors in classical bit form.

    Translates each word c_i by 0 and by every reduced induced image of a
    Pauli of weight <= t, and keys each translate c_i xor e by its word i:
    two words are confusable exactly when a translate is already held by
    another word.  The zero class must also act alike on every word, so
    none of its X parts may have odd overlap with one.
    """
    if t < 0:
        raise ValueError(f"weight bound t={t} must be >= 0")
    residues = induced_images(code, (1 << code.s) - 1)
    shifts = {0}
    for w in range(1, min(t, code.n) + 1):
        for _support, _offset, images in pauli_images(*residues, w):
            shifts.update(images)
    owner: dict[int, int] = {}
    for i, c in enumerate(code.words):
        for e in shifts:
            if owner.setdefault(c ^ e, i) != i:
                return False
    return not any((x & c).bit_count() % 2 for x in _zero_class(code, t) for c in code.words)
