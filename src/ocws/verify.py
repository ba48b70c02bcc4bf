"""Detection and correction checks for operator codeword-stabilized codes.

An error E is detectable when no pair of distinct word operators can be
confused by it: w_i E w_j stays outside the gauge group for every i != j.
Correcting all weight <= t errors additionally requires the degenerate
errors, the gauge elements of weight <= t, to act alike on every codeword
sector.  A gauge element with X support x acts on the sector of word c
with sign (-1)^(x . c), so it acts alike exactly when it commutes with
every word operator; one that anticommutes with a word blocks correction.

Two independent routes are provided.  The operator route is one sweep,
analyze(), over the canonical gauge residues of the Paulis by ascending
weight: a residue in the word-pair table marks an undetectable error and
a zero residue a gauge element, so detection and degeneracy read the same
sweep.  certify_distance, corrects_weight and the CLI verdict all read its
result; it XORs per-qubit residues and builds only the Paulis it tests or
reports.  The classical route reduces every error to its induced Z
bit-vector, one Pauli at a time, and compares translated word sets.  They
must agree on every code.  detects_set looks a given error list up in
the word-pair table of analyze, so it is not a third independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import OcwsCode, _GF2Basis, gauge_decomposition, gauge_generators
from .induction import image_positions, induced_error_set, pauli_at, pauli_images
# enumerate_paulis and paulis_of_weight stay bound here for perfbench/spans.py
from .induction import enumerate_paulis, paulis_of_weight  # noqa: F401
from .pauli import PauliOperator, multiply

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


@dataclass(frozen=True)
class DetectionFailure:
    """An undetectable error with its first confusable word pair (1-based)."""

    error: PauliOperator
    word_i: int
    word_j: int
    decomposition: str


@dataclass(frozen=True)
class DetectionReport:
    checked: int
    failures: tuple[DetectionFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _pair_table(code: OcwsCode) -> dict[int, tuple[int, int]]:
    """Canonical residue of each word-pair difference, keyed to its first pair.

    w_i E w_j lies in the gauge group exactly when the symplectic vector of
    E and the pure-Z vector c_i xor c_j share a canonical residue, so one
    residue lookup per error replaces the per-pair membership tests.  The
    canonical map is linear, so each word is reduced once and a pair's
    residue is the XOR of its two words' residues.  Every pair residue lies
    in the span of the word residues, so rows stop once the table has them all.
    """
    basis = gauge_generators(code).basis
    residues = [basis.canonical(c) for c in code.words]
    span = _GF2Basis()
    for r in residues:
        span.add(r)
    # 0 is a key only when two words share a residue
    keys = (1 << span.rank) - (len(set(residues)) == len(residues))
    table: dict[int, tuple[int, int]] = {}
    for i, ri in enumerate(residues, start=1):
        if len(table) == keys:
            break
        for j, rj in enumerate(residues[i:], start=i + 1):
            table.setdefault(ri ^ rj, (i, j))
    return table


def _first_failure(
    code: OcwsCode, e: PauliOperator, table: dict[int, tuple[int, int]]
) -> DetectionFailure | None:
    if e.n != code.n:
        raise ValueError(f"operator length {e.n} does not match code n={code.n}")
    basis = gauge_generators(code).basis
    residue = basis.canonical((e.x << code.n) | e.z)
    hit = table.get(residue)
    if hit is None:
        return None
    i, j = hit
    product = multiply(multiply(code.word_operator(i - 1), e), code.word_operator(j - 1))
    decomposition = gauge_decomposition(code, product)
    assert decomposition is not None
    return DetectionFailure(e, i, j, decomposition)


def detects_set(code: OcwsCode, errors) -> DetectionReport:
    """Check every error; the report lists each failure with one witness pair."""
    errors = list(errors)
    table = _pair_table(code)
    failures = []
    for e in errors:
        failure = _first_failure(code, e, table)
        if failure is not None:
            failures.append(failure)
    return DetectionReport(len(errors), tuple(failures))


@dataclass(frozen=True)
class DegenerateFailure:
    """A degenerate error that anticommutes with word operator `word` (1-based)."""

    error: PauliOperator
    word: int


@dataclass(frozen=True)
class Analysis:
    """Result of one sweep: certified distance and the first witnesses.

    failure is the first undetectable error, where the sweep stopped
    (None when every error up to weight n is detectable).  degenerate is
    the first gauge element of weight <= t, up to and including that one,
    that anticommutes with a word operator.
    """

    distance: int
    failure: DetectionFailure | None
    degenerate: DegenerateFailure | None


def analyze(code: OcwsCode, t: int) -> Analysis:
    """Sweep the canonical gauge residues of the Paulis by ascending weight, once.

    The first residue that a word pair's difference shares is the first
    undetectable error; the sweep stops there, and its weight is the
    certified distance (n + 1 when every nonidentity Pauli is detectable;
    with a single word no pair exists and only weights <= t are swept).
    Until a degenerate witness is found, a zero residue of weight <= t, up
    to and including that error, is a gauge element and is tested for odd
    overlap with a word.
    """
    if t < 0:
        raise ValueError(f"weight bound t={t} must be >= 0")
    n = code.n
    t = min(t, n)
    table = _pair_table(code)
    canonical = gauge_generators(code).basis.canonical
    residues = [canonical(1 << (q + n)) for q in range(n)], [canonical(1 << q) for q in range(n)]
    table.setdefault(0, None)  # a gauge element, whether or not a word pair shares it
    degenerate = None
    for w in range(1, (n if code.K > 1 else t) + 1):
        for support, i, residue in image_positions(pauli_images(*residues, w), table.keys()):
            if residue == 0 and w <= t and degenerate is None:
                e = pauli_at(n, support, i)
                odd = (l for l, c in enumerate(code.words, start=1) if (e.x & c).bit_count() % 2)
                if word := next(odd, 0):
                    degenerate = DegenerateFailure(e, word)
            if table[residue] is not None:
                return Analysis(w, _first_failure(code, pauli_at(n, support, i), table), degenerate)
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

    Translates each word by every reduced induced-error class of weight
    <= t (plus the zero class) and demands the translated words never
    collide across distinct word indices; degenerate classes must also act
    uniformly, checked through X-support parity against each word.
    """
    if t < 0:
        raise ValueError(f"weight bound t={t} must be >= 0")
    if t == 0:
        return True
    classes = induced_error_set(code, t)
    class_bits = {c.bits for c in classes} | {0}
    for ea in class_bits:
        for eb in class_bits:
            for i, ci in enumerate(code.words):
                for j, cj in enumerate(code.words):
                    if i != j and ci ^ ea == cj ^ eb:
                        return False
    for cls in classes:
        if cls.bits != 0:
            continue
        for e in cls.sources:
            for word in code.words:
                if (e.x & word).bit_count() % 2:
                    return False
    return True
