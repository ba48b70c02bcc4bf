"""Detection, correction and distance certification."""

import itertools
import random
import time

import pytest

from ocws import (
    DegenerateFailure,
    Graph,
    analyze,
    certify_distance,
    classical_route_corrects,
    commutes,
    corrects_weight,
    detects_set,
    enumerate_paulis,
    format_pauli,
    gauge_decomposition,
    gauge_generators,
    gauge_reduce,
    induce,
    induced_error_set,
    multiply,
    new_code,
    parse_code_file,
    parse_pauli,
    paulis_of_weight,
    ring_graph,
    weight,
    write_code_file,
)
from ocws.cli import main
from ocws import induction, verify
from ocws.induction import _zero_class
from ocws.verify import _differences
from conftest import (
    FIXTURE_DIR,
    PERFBENCH,
    ROOT,
    detects,
    gauge_elimination,
    is_additive,
    load_workloads,
    random_code,
    random_graph,
    stabilizer_distance,
    stabilizer_route,
    symplectic,
)

# every code file in the repository: fixtures/, tests/data and perfbench/data
COMMITTED_CODES = [
    path for folder in (FIXTURE_DIR, ROOT / "tests" / "data", PERFBENCH / "data")
    for path in sorted(folder.glob("*.ocws"))
]


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
        assert not detects_set(code, [parse_pauli(text)]).passed, text


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
    assert detects_set(code_8_1_1_3, [parse_pauli("IIIIIIIZ")]).passed


def test_broken_toy_fails_everything(broken_toy):
    assert not detects(broken_toy, parse_pauli("ZIIII"))
    assert not detects_set(broken_toy, [parse_pauli("ZIIII")]).passed
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
    for check in (corrects_weight, classical_route_corrects):
        with pytest.raises(ValueError) as info:
            check(code_8_1_1_3, -1)
        assert str(info.value) == "weight bound t=-1 must be >= 0"


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
    # weight 3 holds 14 undetectable errors, so both verdicts are sampled
    errors = enumerate_paulis(8, 3)
    for _ in range(300):
        e = rng.choice(errors)
        g = gens[rng.randrange(len(gens))]
        if rng.random() < 0.5:
            g = multiply(g, gens[rng.randrange(len(gens))])
        assert detects(code, e) == detects(code, multiply(e, g))
        report = detects_set(code, [e, multiply(e, g)])
        assert len(report.failures) == (0 if detects(code, e) else 2)


def test_detects_set_matches_the_definition_on_random_codes():
    """The pair-table lookup agrees with testing every w_i e w_j for gauge membership."""
    rng = random.Random(29)
    checked = 0
    for _ in range(30):
        n = rng.randint(4, 7)
        r = rng.randint(0, 2)
        code = random_code(rng, random_graph(rng, n), r, rng.randint(2, min(5, 1 << (n - r))))
        errors = enumerate_paulis(n, 2)
        report = detects_set(code, errors)
        assert report.checked == len(errors)
        assert [f.error for f in report.failures] == [e for e in errors if not detects(code, e)]
        for f in report.failures:
            product = multiply(
                multiply(code.word_operator(f.word_i - 1), f.error), code.word_operator(f.word_j - 1)
            )
            assert f.word_i < f.word_j
            assert gauge_decomposition(code, product) == f.decomposition
        checked += len(errors)
    assert checked > 3000


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


def _four_loop_route(code, t):
    """Reference: the classical route testing every pair of classes against every word pair."""
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


def test_classical_route_matches_the_four_loop_reference_on_random_codes():
    rng = random.Random(1208)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(3, 9)
        r = rng.randint(0, n - 1)
        code = random_code(rng, random_graph(rng, n), r, rng.randint(1, min(12, 1 << (n - r))))
        for t in (0, 1, 2, n) if n <= 6 else range(3):
            verdict = classical_route_corrects(code, t)
            assert verdict == _four_loop_route(code, t), (code, t)
            if code.K > 1 and t > 0:
                verdicts[verdict] += 1
        if n <= 6:
            # a bound past n covers the same errors as n
            assert classical_route_corrects(code, n + 1) == verdict, code
    # few random multi-word codes correct an error; the benchmark codes below do
    assert verdicts[True] >= 1 and verdicts[False] >= 100, verdicts


def test_classical_route_keys_each_untranslated_word(monkeypatch, broken_toy):
    """A lone image that maps one word onto the other collides through the 0 shift.

    Real sweeps never need the shift: on one qubit Y = XZ, so every image
    is the XOR of two images of weight <= t.  A stubbed induced-error set
    shows it; the zero class, read apart from it, has no X part on
    broken_toy at weight 1.
    """
    c0, c1 = broken_toy.words
    assert list(_zero_class(broken_toy, 1)) == [0, 0]  # Z on the two gauge qubits
    for bits, verdict in ((c0 ^ c1, False), (0b10, True)):
        monkeypatch.setattr(verify, "forbidden_differences", lambda code, t: frozenset({bits}))
        assert classical_route_corrects(broken_toy, 1) == verdict


def test_classical_route_reads_the_induced_error_set_once(monkeypatch, broken_toy):
    """Its shifts are forbidden_differences at min(t, n), read in one call."""
    calls = []

    def recording(code, max_error_weight):
        calls.append((code, max_error_weight))
        return induction.forbidden_differences(code, max_error_weight)

    monkeypatch.setattr(verify, "forbidden_differences", recording)
    for code, t in ((broken_toy, 1), (broken_toy, 9), (new_code(ring_graph(5), 1, [0, 3]), 2)):
        calls.clear()
        classical_route_corrects(code, t)
        assert calls == [(code, min(t, code.n))]


def test_classical_route_builds_no_operator_per_error(monkeypatch):
    """The route reads the sweep of induced images, not the per-Pauli maps."""
    rng = random.Random(3408)
    cases = []
    for _ in range(150):
        n = rng.randint(3, 8)
        r = rng.randint(0, n - 1)
        code = random_code(rng, random_graph(rng, n), r, rng.randint(1, min(6, 1 << (n - r))))
        cases += [(code, t, _four_loop_route(code, t)) for t in range(4)]

    def refuse(*args):
        raise AssertionError("a per-Pauli map was called")

    for module, name in ((verify, "induced_error_set"), (induction, "induced_error_set"),
                         (induction, "induce"), (induction, "gauge_reduce")):
        monkeypatch.setattr(module, name, refuse)
    for code, t, verdict in cases:
        assert classical_route_corrects(code, t) == verdict, (code, t)
    verdicts = {verdict for code, t, verdict in cases if code.K > 1 and t > 0}
    assert verdicts == {True, False}


def test_routes_agree_on_every_committed_code_file_up_to_weight_three():
    assert len(COMMITTED_CODES) == 25
    verdicts = {True: 0, False: 0}
    for path in COMMITTED_CODES:
        code = parse_code_file(path.read_text())
        for t in (1, 2, 3):
            verdict = classical_route_corrects(code, t)
            assert verdict == corrects_weight(code, t), (path.name, t)
            verdicts[verdict] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts


def _sign_split_weight(code, below):
    """Least weight < below of a zero-residue Pauli whose X parity differs between words.

    Such a Pauli is a gauge element that signs the word sectors unevenly, a
    logical Z-type error; returns below when there is none under it.
    """
    for w in range(1, below):
        for e in paulis_of_weight(code.n, w):
            if gauge_reduce(code, induce(code, e)) == 0:
                if len({(e.x & c).bit_count() % 2 for c in code.words}) > 1:
                    return w
    return below


def test_stabilizer_distance_is_certify_distance_cut_at_the_first_sign_split():
    """The stabilizer formalism counts a sector-signing gauge element as a logical.

    certify_distance tests no zero-residue error's sign, so on these files
    the relation is min(certify_distance, the first split weight); it reads
    certify_distance alone once that sign stops the certified distance.
    """
    additive = below = 0
    for path in COMMITTED_CODES:
        code = parse_code_file(path.read_text())
        if not is_additive(code):
            continue
        additive += 1
        distance = certify_distance(code)
        found, logical = stabilizer_distance(code)
        assert found == min(distance, _sign_split_weight(code, distance)), path.name
        assert (logical is None) == (found == code.n + 1), path.name
        below += found < distance
    assert (additive, below) == (18, 13)


def _random_additive_code(rng, sizes, gauges):
    """A random code whose words span 1 to 3 random vectors, drawn until its distance is >= 2.

    Distance 1 leaves no weight for a split below it.
    """
    while True:
        n = rng.randint(*sizes)
        r = rng.randint(0, min(gauges, n - 1))
        span = {0}
        for _ in range(rng.randint(1, min(3, n - r))):
            v = rng.randrange(1, 1 << (n - r))
            span |= {c ^ v for c in span}
        code = new_code(random_graph(rng, n), r, sorted(span))
        if certify_distance(code) >= 2:
            return code


def test_stabilizer_distance_relation_on_random_additive_codes():
    rng = random.Random(3434)
    pairs = {}
    # n <= 9 with any gauge count, then up to n = 16 with r <= 3
    for count, sizes, gauges in ((400, (4, 9), 8), (40, (10, 16), 3)):
        for _ in range(count):
            code = _random_additive_code(rng, sizes, gauges)
            distance = certify_distance(code)
            found, _logical = stabilizer_distance(code)
            assert found == min(distance, _sign_split_weight(code, distance)), code
            pairs[found, distance] = pairs.get((found, distance), 0) + 1
    # the split cuts the distance at weights 1, 2 and 3, and distance 4 is reached
    assert pairs.get((1, 2), 0) >= 20 and pairs.get((2, 3), 0) >= 5, pairs
    assert pairs.get((3, 4), 0) >= 1 and pairs.get((4, 4), 0) >= 1, pairs


def test_stabilizer_route_finds_the_weight_two_logical_of_9_3_1_3(code_9_3_1_3):
    """X_1 Z_2 = S_1 Z_9 is a gauge element whose sign follows bit 1 of the word."""
    x1z2 = parse_pauli("XZIIIIIII")
    assert gauge_reduce(code_9_3_1_3, induce(code_9_3_1_3, x1z2)) == 0
    assert stabilizer_distance(code_9_3_1_3) == (2, x1z2)
    is_logical = stabilizer_route(code_9_3_1_3)
    assert is_logical(symplectic(x1z2))
    # Z and S_9 on the gauge qubit, and S_2 S_5, even on every word, are gauge elements
    for gauge in ("IIIIIIIIZ", "ZIIIIIIZX", "ZXZZXZIII"):
        assert not is_logical(symplectic(parse_pauli(gauge))), gauge
    assert certify_distance(code_9_3_1_3) == 3


def _benchmark_codes():
    """(name, code) of every code in perfbench/data/ and one perturbed variant of each."""
    workloads = load_workloads()
    for path in sorted(workloads.DATA.glob("*.ocws")):
        spec = workloads.load(path.stem)
        yield path.stem, parse_code_file(workloads.render_code(spec))
        bad = workloads.perturb(spec, random.Random(path.stem))
        yield f"bad.{path.stem}", parse_code_file(workloads.render_code(bad))


def test_routes_agree_on_every_benchmark_code():
    cases = list(_benchmark_codes())
    assert len(cases) == 22
    for name, code in cases:
        start = time.perf_counter()
        verdict = classical_route_corrects(code, 1)
        assert time.perf_counter() - start < 0.1, name
        assert verdict == corrects_weight(code, 1) == (not name.startswith("bad.")), name
        if code.K <= 25:
            assert verdict == _four_loop_route(code, 1), name
    sizes = [code.K for _name, code in cases]
    assert (min(sizes), max(sizes)) == (2, 216)


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


def test_analyze_sweeps_each_weight_once(monkeypatch, code_8_1_1_3, code_9_3_1_3,
                                         code_9_4_1_3, code_ring5_r2):
    """One pauli_images sweep per swept weight reads both detection and degeneracy."""
    calls = []
    sweep = verify.pauli_images

    def counting(*args):
        calls.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(verify, "pauli_images", counting)
    codes = [code_8_1_1_3, code_9_3_1_3, code_9_4_1_3, code_ring5_r2, _pendant_gauge_code(),
             new_code(_PENDANT5, 2, (0b100,)), _complete5_code()]
    witnesses = 0
    for code in codes:
        for t in range(3):
            calls.clear()
            a = analyze(code, t)
            swept = a.distance if a.failure is not None else code.n if code.K > 1 else t
            assert calls == list(range(1, swept + 1)), (code, t)
            witnesses += a.degenerate is not None
    assert witnesses >= 3


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
    """Reference: the gauge residue of every word-pair difference, to its first pair."""
    basis = gauge_elimination(code)
    table = {}
    for (i, ci), (j, cj) in itertools.combinations(enumerate(code.words, start=1), 2):
        table.setdefault(basis.reduce(ci ^ cj)[0], (i, j))
    return table


def _difference_cases(fixture):
    """A fixture code, 60 random codes and every word of ring-8 r=0."""
    rng = random.Random(31)
    codes = [fixture]
    for _ in range(60):
        n = rng.randint(3, 8)
        r = rng.randint(0, 2)
        graph = random_graph(rng, n)
        codes.append(random_code(rng, graph, r, rng.randint(1, min(24, 1 << (n - r)))))
    return codes + [new_code(ring_graph(8), 0, tuple(range(256)))]


def test_words_are_their_own_canonical_residues(code_9_3_1_3):
    """Words avoid every pivot of the eliminated gauge generators: X bits and gauge Z bits."""
    for code in _difference_cases(code_9_3_1_3):
        basis = gauge_elimination(code)
        assert [basis.reduce(c)[0] for c in code.words] == list(code.words)


def test_differences_match_per_pair_reduction(code_9_3_1_3):
    for code in _difference_cases(code_9_3_1_3):
        assert _differences(code.words) == set(_per_pair_table(code))
    # every word of ring-8 r=0: the first row already holds all 255 of the span
    assert len(_differences(tuple(range(256)))) == 255


def _span(basis):
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    return span


def test_differences_equal_the_brute_force_pair_set():
    """Random sets, whole subspaces, their cosets and single words: the early stop,
    taken only once the set is a whole span, drops no pair difference."""
    rng = random.Random(33)
    cases = [(rng.getrandbits(9),) for _ in range(10)]
    for _ in range(60):
        s = rng.randint(1, 10)
        cases.append(tuple(rng.sample(range(1 << s), rng.randint(1, min(40, 1 << s)))))
        span = list(set(_span([rng.getrandbits(s) for _ in range(rng.randint(1, s))])))
        rng.shuffle(span)
        shift = rng.getrandbits(s)
        cases += [tuple(span), tuple(v ^ shift for v in span)]
    for words in cases:
        assert _differences(words) == {c ^ d for c in words for d in words if c != d}, words


def test_differences_skip_the_rank_on_a_set_of_no_span_size(monkeypatch):
    """On the K = 216 ring-16 code the set never holds 2^j - 1 vectors, so no rank."""
    code = parse_code_file((PERFBENCH / "data/ring16_r1_d3_greedy.ocws").read_text())
    ranks, echelon = [], verify._echelon
    monkeypatch.setattr(verify, "_echelon", lambda vectors: ranks.append(1) or echelon(vectors))
    differences = _differences(code.words)
    assert not ranks
    assert differences == {c ^ d for c in code.words for d in code.words if c != d}


def test_detects_set_reports_the_first_pair_of_each_failure(code_9_3_1_3):
    """Each failure of weight <= 3 names the first pair whose difference its residue is."""
    failures = 0
    for code in _difference_cases(code_9_3_1_3):
        basis = gauge_elimination(code)
        table = _per_pair_table(code)
        errors = enumerate_paulis(code.n, 3)
        pairs = [table.get(basis.reduce(symplectic(e))[0]) for e in errors]
        report = detects_set(code, errors)
        assert [(f.error, f.word_i, f.word_j) for f in report.failures] == [
            (e, *pair) for e, pair in zip(errors, pairs) if pair is not None
        ]
        failures += len(report.failures)
    assert failures > 20000
