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
weight: a residue in the set of word differences marks an undetectable
error and a zero residue a gauge element, so detection and degeneracy
read the same sweep.  certify_distance, corrects_weight and the CLI
verdict all read its result; it XORs per-qubit residues and builds only
the Paulis it tests or reports.  The classical route reduces every error
to its induced Z bit-vector, one Pauli at a time, and compares translated
word sets.  They must agree on every code.  detects_set looks a given
error list up in the same set of word differences, so it is not a third
independent route.
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


def _differences(words: tuple[int, ...]) -> set[int]:
    """Every word-pair difference c_i xor c_j, i != j.

    w_i E w_j lies in the gauge group exactly when E's canonical residue is
    c_i xor c_j: a word lies on qubits 1..s, clear of every pivot of the
    gauge basis (the X bits and the gauge qubits' Z bits), so it is its own
    residue, and 0 is no difference.  The differences span what the c_1 xor
    c_j span, so rows stop once the set holds every nonzero vector of it.
    """
    span = _GF2Basis()
    for c in words[1:]:
        span.add(words[0] ^ c)
    nonzero = (1 << span.rank) - 1
    differences: set[int] = set()
    for i, c in enumerate(words, start=1):
        if len(differences) == nonzero:
            break
        differences.update([c ^ d for d in words[i:]])
    return differences


def _first_failure(
    code: OcwsCode, e: PauliOperator, differences: set[int]
) -> DetectionFailure | None:
    """e's first confusable word pair: the least i, then its partner j."""
    if e.n != code.n:
        raise ValueError(f"operator length {e.n} does not match code n={code.n}")
    residue = gauge_generators(code).basis.canonical((e.x << code.n) | e.z)
    if residue not in differences:
        return None
    index = {c: j for j, c in enumerate(code.words, start=1)}
    # the least i with a partner comes first, so its partner j follows it
    i, j = next((i, index[c ^ residue]) for c, i in index.items() if c ^ residue in index)
    product = multiply(multiply(code.word_operator(i - 1), e), code.word_operator(j - 1))
    decomposition = gauge_decomposition(code, product)
    assert decomposition is not None
    return DetectionFailure(e, i, j, decomposition)


def detects_set(code: OcwsCode, errors) -> DetectionReport:
    """Check every error; the report lists each failure with one witness pair."""
    errors = list(errors)
    differences = _differences(code.words)
    failures = []
    for e in errors:
        failure = _first_failure(code, e, differences)
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

    The first residue in the set of word differences is the first
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
    canonical = gauge_generators(code).basis.canonical
    residues = [canonical(1 << (q + n)) for q in range(n)], [canonical(1 << q) for q in range(n)]
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
