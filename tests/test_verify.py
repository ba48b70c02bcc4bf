"""Detection, correction and distance certification."""

import itertools
import random

import pytest

from ocws import (
    DegenerateFailure,
    Graph,
    analyze,
    certify_distance,
    classical_route_corrects,
    commutes,
    corrects_weight,
    detects,
    detects_set,
    enumerate_paulis,
    format_pauli,
    gauge_generators,
    gauge_reduce,
    induce,
    multiply,
    new_code,
    parse_pauli,
    paulis_of_weight,
    ring_graph,
    weight,
    write_code_file,
)
from ocws.cli import main
from ocws.verify import _pair_table
from conftest import random_code, random_graph


def test_fixture_codes_certify_distance_three(code_8_1_1_3, code_9_3_1_3, code_9_4_1_3):
    assert certify_distance(code_8_1_1_3) == 3
    assert certify_distance(code_9_3_1_3) == 3
    assert certify_distance(code_9_4_1_3) == 3


def test_fixture_codes_correct_single_errors(code_8_1_1_3, code_9_3_1_3, code_9_4_1_3):
    for code in (code_8_1_1_3, code_9_3_1_3, code_9_4_1_3):
        assert corrects_weight(code, 1)
        assert classical_route_corrects(code, 1)


def test_all_weight_two_errors_detected(code_8_1_1_3):
    report = detects_set(code_8_1_1_3, enumerate_paulis(8, 2))
    assert report.passed
    assert report.checked == 24 + 28 * 9


def test_weight_three_witnesses_are_undetectable(code_8_1_1_3, code_9_3_1_3, code_9_4_1_3):
    # each error's induced image equals a word difference
    witnesses = {
        "IZZIIIYI": code_8_1_1_3,
        "IIZZIIIZI": code_9_3_1_3,
        "IZIIIZZII": code_9_4_1_3,
    }
    for text, code in witnesses.items():
        assert not detects(code, parse_pauli(text)), text


def test_detection_failure_reports_pair_and_decomposition(code_8_1_1_3):
    e = parse_pauli("IZZIIIYI")
    report = detects_set(code_8_1_1_3, [e])
    assert not report.passed
    failure = report.failures[0]
    assert failure.error == e
    assert (failure.word_i, failure.word_j) == (1, 2)
    assert failure.decomposition
    # the named product really multiplies out to w_i e w_j
    group = gauge_generators(code_8_1_1_3)
    by_label = dict(zip(group.labels, group.generators))
    product = code_8_1_1_3.word_operator(0)
    product = multiply(product, e)
    product = multiply(product, code_8_1_1_3.word_operator(1))
    rebuilt = None
    for label in failure.decomposition.split("*"):
        g = by_label[label]
        rebuilt = g if rebuilt is None else multiply(rebuilt, g)
    assert rebuilt == product


def test_gauge_qubit_z_error_is_detected(code_8_1_1_3):
    assert detects(code_8_1_1_3, parse_pauli("IIIIIIIZ"))


def test_broken_toy_fails_everything(broken_toy):
    assert not detects(broken_toy, parse_pauli("ZIIII"))
    assert certify_distance(broken_toy) == 1
    assert not corrects_weight(broken_toy, 1)
    assert not classical_route_corrects(broken_toy, 1)


def test_single_word_code_has_vacuous_detection(code_ring5_r2):
    assert certify_distance(code_ring5_r2) == 6
    assert corrects_weight(code_ring5_r2, 1)
    assert detects_set(code_ring5_r2, enumerate_paulis(5, 2)).passed


def test_weight_zero_is_trivially_correctable(code_8_1_1_3):
    assert corrects_weight(code_8_1_1_3, 0)
    assert classical_route_corrects(code_8_1_1_3, 0)
    with pytest.raises(ValueError):
        corrects_weight(code_8_1_1_3, -1)


def test_fixture_codes_do_not_correct_two_errors(code_8_1_1_3, code_9_3_1_3):
    # t = 2 needs distance 5; these are distance-3 codes
    assert not corrects_weight(code_8_1_1_3, 2)
    assert not classical_route_corrects(code_8_1_1_3, 2)
    assert not corrects_weight(code_9_3_1_3, 2)


def test_detects_is_gauge_coset_invariant(code_8_1_1_3):
    """Multiplying an error by any gauge element never changes the verdict."""
    code = code_8_1_1_3
    gens = gauge_generators(code).generators
    rng = random.Random(3)
    errors = enumerate_paulis(8, 2)
    for _ in range(300):
        e = rng.choice(errors)
        g = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            g = multiply(g, gens[rng.randrange(len(gens))])
        assert detects(code, e) == detects(code, multiply(e, g))


def _pendant_gauge_code():
    """Ring on 1..6 plus vertex 7 attached only to the gauge qubits 8, 9.

    X_7 induces the zero class, so it acts as a gauge element; the second
    word overlaps qubit 7 oddly, so that action differs between sectors.
    """
    rows = [0] * 9
    for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 8), (7, 9)]:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return new_code(Graph(9, tuple(rows)), 2, (0, 0b1001001))


def test_degenerate_error_with_uneven_word_overlap_blocks_correction():
    code = _pendant_gauge_code()
    assert gauge_reduce(code, induce(code, parse_pauli("IIIIIIXII"))) == 0
    # detection alone is fine out to weight 2
    assert detects_set(code, enumerate_paulis(9, 2)).passed
    assert certify_distance(code) == 3
    # but the degenerate X_7 acts with different signs on the two sectors
    assert not corrects_weight(code, 1)
    assert not classical_route_corrects(code, 1)


def test_routes_agree_on_random_codes():
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        r = rng.randint(0, 2)
        K = rng.randint(1, min(4, 1 << (n - r)))
        code = random_code(rng, random_graph(rng, n), r, K)
        if corrects_weight(code, 1) != classical_route_corrects(code, 1):
            disagreements += 1
    assert disagreements == 0


def test_certify_distance_lower_bounds_word_weight(code_9_3_1_3):
    # a Z error equal to a word is never detectable, capping the distance
    report = detects_set(
        code_9_3_1_3, [code_9_3_1_3.word_operator(i) for i in range(1, code_9_3_1_3.K)]
    )
    assert len(report.failures) == code_9_3_1_3.K - 1


def _reference_scan(code, max_weight):
    """First undetectable error and every uneven degenerate error up to max_weight.

    Detection comes from detects_set over each weight in turn; degeneracy
    from a direct scan of the zero-class errors against every word
    operator.  The undetectable error comes with its position in canonical
    order, and the degenerate ones as (position, weight, first
    anticommuting word), in canonical order.
    """
    distance, failure, stop = code.n + 1, None, None
    before = 0
    for w in range(1, code.n + 1):
        errors = list(paulis_of_weight(code.n, w))
        report = detects_set(code, errors)
        if report.failures:
            failure = report.failures[0]
            distance, stop = w, before + errors.index(failure.error)
            break
        before += len(errors)
    degenerate = []
    for pos, e in enumerate(enumerate_paulis(code.n, max_weight)):
        if gauge_reduce(code, induce(code, e)) == 0:
            for l in range(code.K):
                if not commutes(e, code.word_operator(l)):
                    degenerate.append((pos, weight(e), DegenerateFailure(e, l + 1)))
                    break
    return distance, failure, stop, degenerate


def _first_degenerate(scan, t):
    """First uneven degenerate error of weight <= t at or before the first undetectable one."""
    _distance, _failure, stop, degenerate = scan
    return next(
        (g for pos, w, g in degenerate if w <= t and (stop is None or pos <= stop)), None
    )


def _reference_verify_lines(code, scan, d):
    distance, failure, _stop, _degenerate = scan
    t = (d - 1) // 2
    first = _first_degenerate(scan, t)
    ok = distance >= d and (t == 0 or (distance > min(2 * t, code.n) and first is None))
    lines = []
    if not ok and failure is not None and distance < d:
        lines.append(
            f"WITNESS error={format_pauli(failure.error)} "
            f"words=({failure.word_i},{failure.word_j}) product={failure.decomposition}"
        )
    elif not ok and first is not None:
        lines.append(f"WITNESS degenerate error={format_pauli(first.error)} word={first.word}")
    verdict = "pass" if ok else "fail"
    lines.append(f"VERDICT {verdict} n={code.n} K={code.K} r={code.r} d={distance}")
    return ok, lines


# Edge 1-2 plus vertex 3 attached only to the gauge qubits 4, 5: X_3 is degenerate.
_PENDANT5 = Graph(5, (0b00010, 0b00001, 0b11000, 0b00100, 0b00100))


def _sweep_cases():
    """Random codes with n <= 6, plus two on the 5-qubit pendant graph."""
    rng = random.Random(77)
    codes = [new_code(_PENDANT5, 2, (0, 0b101)), new_code(_PENDANT5, 2, (0b100,))]
    for _ in range(36):
        n = rng.randint(3, 6)
        r = rng.randint(0, min(2, n - 1))
        K = rng.choice([1, 1, 2, 3, 4])
        codes.append(random_code(rng, random_graph(rng, n), r, min(K, 1 << (n - r))))
    return codes


def _complete5_code():
    """K5 with r = 1, where the degenerate scan must stop at the failure.

    XZIII is the first undetectable error.  YYIII, on the same support but
    later in letter order, induces zero and anticommutes with word 1.
    """
    return new_code(Graph(5, tuple(0b11111 & ~(1 << i) for i in range(5))), 1, (0b01101, 1))


def _analyze_cases():
    """(code, largest t): the sweep cases at every t, larger codes at t <= 3."""
    for code in _sweep_cases():
        yield code, code.n + 1
    rng = random.Random(707)
    for _ in range(24):
        n = rng.randint(7, 10)
        r = rng.randint(0, 3)
        K = min(rng.randint(2, 12), 1 << (n - r))
        yield random_code(rng, random_graph(rng, n), r, K), 3
    yield _complete5_code(), 3


def test_analyze_matches_reference_scan():
    for code, top in _analyze_cases():
        scan = _reference_scan(code, min(top, code.n))
        distance, failure, _stop, _degenerate = scan
        assert certify_distance(code) == distance
        for t in range(top + 1):
            a = analyze(code, t)
            assert (a.distance, a.failure) == (distance, failure)
            first = _first_degenerate(scan, t)
            assert a.degenerate == first
            expected = t == 0 or (distance > min(2 * t, code.n) and first is None)
            assert corrects_weight(code, t) == expected


def test_degenerate_scan_stops_at_the_first_undetectable_error():
    code = _complete5_code()
    yy = parse_pauli("YYIII")
    assert gauge_reduce(code, induce(code, yy)) == 0
    assert not commutes(yy, code.word_operator(0))
    a = analyze(code, 2)
    assert a.distance == 2
    assert format_pauli(a.failure.error) == "XZIII"
    assert a.degenerate is None


def test_cli_verify_matches_reference_lines(capsys, tmp_path):
    path = tmp_path / "code.ocws"
    edge_seen = False
    for code in _sweep_cases():
        path.write_text(write_code_file(code))
        scan = _reference_scan(code, code.n)
        for d in range(1, 2 * code.n + 3):
            ok, lines = _reference_verify_lines(code, scan, d)
            status = main(["verify", str(path), "--distance", str(d), "--format", "lines"])
            assert capsys.readouterr().out.splitlines() == lines
            assert status == (0 if ok else 1)
            edge_seen |= certify_distance(code) == code.n + 1 < d and not ok
    # K = 1 codes certify n + 1; past that only a degenerate witness can print
    assert edge_seen


def test_verify_past_n_plus_one_prints_only_degenerate_witness(capsys, tmp_path):
    path = tmp_path / "code.ocws"
    path.write_text(write_code_file(new_code(_PENDANT5, 2, (0b100,))))
    assert main(["verify", str(path), "--distance", "12", "--format", "lines"]) == 1
    assert capsys.readouterr().out == (
        "WITNESS degenerate error=IIXII word=1\nVERDICT fail n=5 K=1 r=2 d=6\n"
    )
    path.write_text(write_code_file(new_code(_PENDANT5, 2, (0,))))
    assert main(["verify", str(path), "--distance", "12", "--format", "lines"]) == 1
    assert capsys.readouterr().out == "VERDICT fail n=5 K=1 r=2 d=6\n"


def test_verify_prints_degenerate_witness_when_distance_holds(capsys, tmp_path):
    path = tmp_path / "code.ocws"
    path.write_text(write_code_file(_pendant_gauge_code()))
    assert main(["verify", str(path), "--distance", "3", "--format", "lines"]) == 1
    assert capsys.readouterr().out == (
        "WITNESS degenerate error=IIIIIIXII word=2\nVERDICT fail n=9 K=2 r=2 d=3\n"
    )
    assert main(["verify", str(path), "--distance", "4", "--format", "lines"]) == 1
    assert capsys.readouterr().out == (
        "WITNESS error=ZIIZIIYII words=(1,2) product=S7*g1*g2\n"
        "VERDICT fail n=9 K=2 r=2 d=3\n"
    )


def _per_pair_table(code):
    """Reference pair table: reduce every word-pair difference on its own."""
    basis = gauge_generators(code).basis
    table = {}
    for (i, ci), (j, cj) in itertools.combinations(enumerate(code.words, start=1), 2):
        table.setdefault(basis.canonical(ci ^ cj), (i, j))
    return table


def test_pair_table_matches_per_pair_reduction(code_9_3_1_3):
    rng = random.Random(31)
    codes = [code_9_3_1_3]
    for _ in range(40):
        n = rng.randint(3, 9)
        r = rng.randint(0, 2)
        codes.append(random_code(rng, random_graph(rng, n), r, rng.randint(1, min(24, 1 << (n - r)))))
    # every word of ring-8 r=0: the first row already holds all 255 keys of the span
    every_word = new_code(ring_graph(8), 0, tuple(range(256)))
    # words on qubits 1..s never share a residue, since pure-Z gauge elements
    # lie on the gauge qubits, so a repeated word is set past the validation;
    # its key 0 comes in row 3, after every nonzero key of the span
    shared = new_code(ring_graph(6), 1, (0, 3, 5, 6))
    object.__setattr__(shared, "words", (0, 3, 5, 6, 5))
    codes += [every_word, shared]
    for code in codes:
        assert list(_pair_table(code).items()) == list(_per_pair_table(code).items())
    assert len(_pair_table(every_word)) == 255
    assert _pair_table(shared)[0] == (3, 5)
