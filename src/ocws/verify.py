"""Detection and correction checks for operator codeword-stabilized codes.

An error E is detectable when no pair of distinct word operators can be
confused by it: w_i E w_j stays outside the gauge group for every i != j.
Correcting all weight <= t errors additionally requires the degenerate
weight <= t errors (those acting as a gauge element on the code space) to
act identically on every codeword sector, which holds exactly when they
commute with every word operator.

Two independent routes are provided.  The operator route is one sweep,
analyze(), over Paulis by ascending weight: it checks gauge-group
membership of the w_i E w_j products and the degenerate action together,
and certify_distance, corrects_weight and the CLI verdict all read its
result; it XORs per-qubit images and builds only its witnesses.  The
classical route reduces every error to its induced Z bit-vector, one
Pauli at a time, and compares translated word sets.  They must agree on
every code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .code import OcwsCode, _GF2Basis, gauge_decomposition, gauge_generators
from .induction import induced_error_set, induced_images, pauli_at, pauli_images
# enumerate_paulis and paulis_of_weight stay bound here for perfbench/spans.py
from .induction import enumerate_paulis, paulis_of_weight  # noqa: F401
from .pauli import PauliOperator, multiply

__all__ = [
    "DetectionFailure",
    "DetectionReport",
    "DegenerateFailure",
    "Analysis",
    "detects",
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


def detects(code: OcwsCode, e: PauliOperator) -> bool:
    """True iff w_i e w_j is outside the gauge group for every pair i != j."""
    return _first_failure(code, e, _pair_table(code)) is None


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
    the first error of weight <= t, up to and including that one, that
    acts unevenly on the codeword sectors.
    """

    distance: int
    failure: DetectionFailure | None
    degenerate: DegenerateFailure | None


def _positions(sweep, keys):
    """Positions (support, index) of the images in keys, in sweep order."""
    for support, offset, images in sweep:
        if not keys.isdisjoint(images):
            yield from ((support, i) for i, image in enumerate(images, offset) if image in keys)


def _degenerate_errors(code: OcwsCode, w: int):
    """(position, error) of each weight-w degenerate error, in canonical order.

    An error whose induced class reduces to zero acts as a gauge element on
    the code space, with sign (-1)^(x . c) on the sector of word c, so alike
    on every sector exactly when every word has even overlap with its x.
    """
    reduced = induced_images(code, (1 << code.s) - 1)
    for support, i in _positions(pauli_images(*reduced, w), {0}):
        yield (support, i), pauli_at(code.n, support, i)


def analyze(code: OcwsCode, t: int) -> Analysis:
    """Sweep Paulis by ascending weight in canonical order, once.

    The sweep stops at the first undetectable error, whose weight is the
    certified distance (n + 1 when every nonidentity Pauli is detectable;
    with a single word no pair exists and only weights <= t are swept).
    Errors of weight <= t, up to and including that one, are also checked
    for uneven degenerate action.  Both checks XOR per-qubit images.
    """
    if t < 0:
        raise ValueError(f"weight bound t={t} must be >= 0")
    n = code.n
    t = min(t, n)
    table = _pair_table(code)
    canonical = gauge_generators(code).basis.canonical
    residues = [canonical(1 << (q + n)) for q in range(n)], [canonical(1 << q) for q in range(n)]
    degenerate = None
    for w in range(1, (n if table else t) + 1):
        hit = next(_positions(pauli_images(*residues, w), table.keys()), None)
        if degenerate is None and w <= t:
            for position, e in _degenerate_errors(code, w):
                if hit is not None and position > hit:
                    break
                odd = (l for l, c in enumerate(code.words, start=1) if (e.x & c).bit_count() % 2)
                if word := next(odd, 0):
                    degenerate = DegenerateFailure(e, word)
                    break
        if hit is not None:
            return Analysis(w, _first_failure(code, pauli_at(n, *hit), table), degenerate)
    return Analysis(n + 1, None, degenerate)


def corrects_weight(code: OcwsCode, t: int) -> bool:
    """True iff every Pauli error of weight <= t is correctable.

    Requires detection of every nonidentity product of two such errors
    (weight <= 2t) and uniform action of the degenerate weight <= t errors
    across all codeword sectors.  Reads analyze(code, t), whose sweep runs
    on to the first undetectable error even when that lies past 2t.
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
