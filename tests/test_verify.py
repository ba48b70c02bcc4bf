"""Detection, correction and distance certification."""

import itertools
import random
import time

import pytest

from ocws import (
    DegenerateFailure,
    Graph,
    InducedError,
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
from ocws import code as code_module, verify
from ocws.code import _gauge_basis
from ocws.verify import _differences
from conftest import detects, load_workloads, random_code, random_graph


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
        for t in range(3):
            verdict = classical_route_corrects(code, t)
            assert verdict == _four_loop_route(code, t), (code, t)
            if code.K > 1 and t > 0:
                verdicts[verdict] += 1
    # few random multi-word codes correct an error; the benchmark codes below do
    assert verdicts[True] >= 1 and verdicts[False] >= 100, verdicts


def test_classical_route_keys_each_untranslated_word(monkeypatch, broken_toy):
    """A lone class that maps one word onto the other collides through the 0 shift.

    Real class sets never need the shift: on one qubit Y = XZ, so every
    class is the XOR of two classes of weight <= t.  A stubbed set shows it.
    """
    c0, c1 = broken_toy.words
    for bits, verdict in ((c0 ^ c1, False), (0b10, True)):
        monkeypatch.setattr(verify, "induced_error_set", lambda code, t: [InducedError(bits, ())])
        assert classical_route_corrects(broken_toy, 1) == verdict


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


def test_one_gauge_basis_per_analyze_and_per_detects_set(monkeypatch, code_8_1_1_3,
                                                         code_9_3_1_3):
    """A witness is named by the reduction that found it, so no call builds a second basis."""
    builds = []
    build = code_module._gauge_basis

    def counting(code):
        builds.append(code)
        return build(code)

    monkeypatch.setattr(code_module, "_gauge_basis", counting)
    monkeypatch.setattr(verify, "_gauge_basis", counting)
    for code in (code_8_1_1_3, code_9_3_1_3):
        builds.clear()
        assert analyze(code, 1).failure is not None
        assert len(builds) == 1
        builds.clear()
        assert len(detects_set(code, enumerate_paulis(code.n, 3)).failures) > 1
        assert len(builds) == 1


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
    """Reference: the canonical residue of every word-pair difference, to its first pair."""
    basis = _gauge_basis(code)
    table = {}
    for (i, ci), (j, cj) in itertools.combinations(enumerate(code.words, start=1), 2):
        table.setdefault(basis.canonical(ci ^ cj), (i, j))
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
    """Words avoid every pivot of the gauge basis: the X bits and the gauge qubits' Z bits."""
    for code in _difference_cases(code_9_3_1_3):
        basis = _gauge_basis(code)
        assert [basis.canonical(c) for c in code.words] == list(code.words)


def test_differences_match_per_pair_reduction(code_9_3_1_3):
    for code in _difference_cases(code_9_3_1_3):
        assert _differences(code.words) == set(_per_pair_table(code))
    # every word of ring-8 r=0: the first row already holds all 255 of the span
    assert len(_differences(tuple(range(256)))) == 255


def test_detects_set_reports_the_first_pair_of_each_failure(code_9_3_1_3):
    """Each failure of weight <= 3 names the first pair whose difference its residue is."""
    failures = 0
    for code in _difference_cases(code_9_3_1_3):
        basis = _gauge_basis(code)
        table = _per_pair_table(code)
        errors = enumerate_paulis(code.n, 3)
        pairs = [table.get(basis.canonical(e.x << code.n | e.z)) for e in errors]
        report = detects_set(code, errors)
        assert [(f.error, f.word_i, f.word_j) for f in report.failures] == [
            (e, *pair) for e, pair in zip(errors, pairs) if pair is not None
        ]
        failures += len(report.failures)
    assert failures > 20000
