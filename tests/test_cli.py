"""End-to-end CLI behavior through main(argv), including exact output bytes."""

import dataclasses
import gc
import glob
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ocws import (
    enumerate_paulis,
    format_pauli,
    gauge_reduce,
    induce,
    new_code,
    parse_code_file,
    ring_graph,
    write_code_file,
)
from ocws import cli, search
from ocws.cli import main
from ocws.oracle import check_dense_size
from conftest import Clock, fixture_path, random_code, random_graph

RING5_CLASS_LINES = """\
CLASS XIIII -> IZIIZ -> IZIII
CLASS YIIII -> ZZIIZ -> ZZIII
CLASS ZIIII -> ZIIII -> ZIIII
CLASS IXIII -> ZIZII -> ZIZII
CLASS IYIII -> ZZZII -> ZZZII
CLASS IZIII -> IZIII -> IZIII
CLASS IIXII -> IZIZI -> IZIII
CLASS IIYII -> IZZZI -> IZZII
CLASS IIZII -> IIZII -> IIZII
CLASS IIIXI -> IIZIZ -> IIZII
CLASS IIIYI -> IIZZZ -> IIZII
CLASS IIIZI -> IIIZI -> IIIII
CLASS IIIIX -> ZIIZI -> ZIIII
CLASS IIIIY -> ZIIZZ -> ZIIII
CLASS IIIIZ -> IIIIZ -> IIIII
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passing_fixture(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("8_1_1_3.ocws"), "--format", "lines")
    assert code == 0
    assert out == "VERDICT pass n=8 K=2 r=1 d=3\n"


def test_verify_text_mode_comments(capsys):
    path = fixture_path("8_1_1_3.ocws")
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# verify {path} against distance 3"
    assert lines[1] == "VERDICT pass n=8 K=2 r=1 d=3"


def test_verify_uses_file_distance_claim(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("9_3_1_3.ocws"), "--format", "lines")
    assert code == 0
    assert out == "VERDICT pass n=9 K=8 r=1 d=3\n"


def test_verify_defaults_to_distance_one(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("ring5_r2.ocws"), "--format", "lines")
    assert code == 0
    assert out == "VERDICT pass n=5 K=1 r=2 d=6\n"


def test_verify_failure_prints_witness(capsys, tmp_path, broken_toy):
    path = tmp_path / "broken.ocws"
    path.write_text(write_code_file(broken_toy))
    code, out, _ = run(capsys, "verify", str(path), "--distance", "2", "--format", "lines")
    assert code == 1
    assert out == (
        "WITNESS error=ZIIII words=(1,2) product=identity\n"
        "VERDICT fail n=5 K=2 r=2 d=1\n"
    )


def test_verify_distance_above_certified_fails(capsys):
    code, out, _ = run(
        capsys, "verify", fixture_path("8_1_1_3.ocws"), "--distance", "4", "--format", "lines"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("WITNESS error=")
    assert lines[-1] == "VERDICT fail n=8 K=2 r=1 d=3"


def test_all_fixtures_verify(capsys):
    for path in sorted(glob.glob(fixture_path("*.ocws"))):
        code, out, _ = run(capsys, "verify", path, "--format", "lines")
        assert code == 0, path
        assert out.startswith("VERDICT pass "), path


def test_induce_matches_frozen_table(capsys):
    code, out, _ = run(
        capsys, "induce", fixture_path("ring5_r2.ocws"), "--format", "lines"
    )
    assert code == 0
    assert out == RING5_CLASS_LINES


def test_induce_text_mode_reports_class_count(capsys):
    code, out, _ = run(capsys, "induce", fixture_path("8_1_1_3.ocws"))
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("CLASS ")) == 24
    assert lines[-1] == "# 21 distinct reduced classes"


def _zstring(bits, n):
    return "".join("Z" if bits >> i & 1 else "I" for i in range(n))


def _reference_induce(code, path, weight, fmt):
    """`ocws induce` output built one Pauli at a time."""
    lines = []
    if fmt == "text":
        lines.append(f"# induce {path}: errors of weight <= {weight}")
    classes = set()
    for e in enumerate_paulis(code.n, weight):
        raw = induce(code, e)
        reduced = gauge_reduce(code, raw)
        classes.add(reduced)
        lines.append(
            f"CLASS {format_pauli(e)} -> {_zstring(raw, code.n)} -> {_zstring(reduced, code.n)}"
        )
    if fmt == "text":
        lines.append(f"# {len(classes)} distinct reduced classes")
    return "".join(line + "\n" for line in lines)


def test_induce_matches_per_pauli_reference(capsys, tmp_path):
    rng = random.Random(303)
    path = tmp_path / "code.ocws"
    for _ in range(30):
        n = rng.randint(3, 8)
        r = rng.randint(0, min(3, n - 1))
        code = random_code(rng, random_graph(rng, n), r, rng.randint(1, min(6, 1 << (n - r))))
        path.write_text(write_code_file(code))
        for weight in range(1, 4):
            for fmt in ("text", "lines"):
                status, out, _ = run(capsys, "induce", str(path), "--weight", str(weight),
                                     "--format", fmt)
                assert status == 0
                assert out == _reference_induce(code, path, weight, fmt)


def test_search_ring9_emits_verifiable_code(capsys, tmp_path):
    out_path = tmp_path / "found.ocws"
    code, out, _ = run(
        capsys,
        "search", "--graph", "ring", "--n", "9", "--r", "1",
        "--distance", "3", "--out", str(out_path), "--format", "lines",
    )
    assert code == 0
    assert out.startswith("CODE n=9 r=1 K=")
    k = int(out.split("K=")[1].split()[0])
    assert k >= 8
    found = parse_code_file(out_path.read_text())
    assert found.claimed_distance == 3
    rc, rout, _ = run(capsys, "verify", str(out_path), "--format", "lines")
    assert rc == 0
    assert rout == f"VERDICT pass n=9 K={k} r=1 d=3\n"


def test_search_stdout_body_parses(capsys):
    code, out, _ = run(
        capsys,
        "search", "--graph", "ring", "--n", "8", "--r", "1",
        "--distance", "3", "--format", "lines",
    )
    assert code == 0
    first, _, body = out.partition("\n")
    assert first.startswith("CODE n=8 r=1 K=")
    found = parse_code_file(body)
    assert found.K >= 2
    assert found.claimed_distance == 3


def test_search_output_is_byte_stable(capsys):
    argv = [
        "search", "--graph", "ring", "--n", "8", "--r", "1",
        "--distance", "3", "--seed", "7", "--mode", "greedy",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_budget_cut_search_says_its_k_is_unproven(capsys, monkeypatch):
    argv = ["search", "--graph", "ring", "--n", "9", "--r", "0", "--distance", "3",
            "--budget", "1"]
    outputs = {}
    for fmt in ("text", "lines"):
        # the deadline (0 + 1) passes after the first color class of the root pool
        monkeypatch.setattr(search, "time", Clock(0.0, 0.0, 2.0))
        outputs[fmt] = run(capsys, *argv, "--format", fmt)
    status, out, err = outputs["text"]
    head, note, *body = out.splitlines()
    k = int(head.split("K=")[1].split()[0])
    assert (status, err) == (0, "")
    assert note == f"# incomplete: K={k} is the best found, not a proven maximum"
    # lines keeps stdout to the CODE line and the body, and moves the note to stderr
    assert outputs["lines"] == (0, "\n".join([head, *body]) + "\n", note[2:] + "\n")


def test_complete_search_prints_no_incomplete_note(capsys):
    argv = ["search", "--graph", "ring", "--n", "8", "--r", "1", "--distance", "3"]
    for fmt in ("text", "lines"):
        status, out, err = run(capsys, *argv, "--format", fmt)
        assert (status, err) == (0, "")
        assert "incomplete" not in out


def test_greedy_search_says_its_k_is_unproven(capsys):
    argv = ["search", "--graph", "ring", "--n", "8", "--r", "1", "--distance", "3",
            "--mode", "greedy", "--format", "lines"]
    status, out, err = run(capsys, *argv)
    k = int(out.split("K=")[1].split()[0])
    assert (status, err) == (0, f"incomplete: K={k} is the best found, not a proven maximum\n")


def test_search_adjacency_file_graph(capsys, tmp_path):
    graph_path = tmp_path / "ring5.adj"
    lines = []
    ring = ring_graph(5)
    for row in ring.rows:
        lines.append("".join("1" if row >> j & 1 else "0" for j in range(5)))
    graph_path.write_text("# five-cycle\n" + "\n".join(lines) + "\n")
    code, out, _ = run(
        capsys,
        "search", "--graph", f"file:{graph_path}", "--r", "2",
        "--distance", "1", "--format", "lines",
    )
    assert code == 0
    assert out.startswith("CODE n=5 r=2 K=8 d=")


def test_search_unreachable_target_exits_one(capsys, monkeypatch):
    code, out, err = run(
        capsys,
        "search", "--graph", "ring", "--n", "8", "--r", "1",
        "--distance", "3", "--K", "100",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("search failed: ")
    # a found word set that re-verification rejects
    analyze = search.analyze
    monkeypatch.setattr(
        search, "analyze", lambda code, t: dataclasses.replace(analyze(code, t), distance=2)
    )
    code, out, err = run(capsys, "search", "--graph", "ring", "--n", "8", "--r", "1",
                         "--distance", "3")
    assert (code, out) == (1, "")
    assert err == "search failed: found word set of size 2 failed verification at distance 3\n"


def test_oracle_check_passes_fixture(capsys):
    code, out, _ = run(
        capsys, "oracle-check", fixture_path("9_4_1_3.ocws"), "--format", "lines"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("max_off_block = ")
    assert lines[1].startswith("max_block_deviation = ")
    assert lines[2] == "PASS"
    assert float(lines[0].split("=")[1]) <= 1e-9


def test_oracle_check_flags_broken_toy(capsys, tmp_path, broken_toy):
    path = tmp_path / "broken.ocws"
    path.write_text(write_code_file(broken_toy))
    code, out, _ = run(capsys, "oracle-check", str(path), "--format", "lines")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == "FAIL"
    assert float(lines[0].split("=")[1]) >= 0.5


def test_usage_errors_exit_two(capsys, tmp_path):
    bad_file = tmp_path / "bad.ocws"
    bad_file.write_text("n = 5\nn = 6\n")
    missing = str(tmp_path / "missing.ocws")
    cases = [
        [],
        ["frobnicate"],
        ["verify", str(bad_file)],
        ["verify", missing],
        ["induce", fixture_path("ring5_r2.ocws"), "--weight", "0"],
        ["induce", fixture_path("ring5_r2.ocws"), "--weight", "9"],
        ["search", "--graph", "ring", "--r", "1", "--distance", "3"],
        ["search", "--graph", "moon", "--r", "1", "--distance", "3"],
        ["oracle-check", fixture_path("ring5_r2.ocws"), "--tol", "0"],
        ["oracle-check", fixture_path("ring5_r2.ocws"), "--tol", "nan"],
        ["search", "--graph", "ring", "--n", "5", "--r", "1", "--distance", "3",
         "--budget", "nan"],
        ["search", "--graph", "ring", "--n", "5", "--r", "1", "--distance", "7"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, argv
    # an adjacency entry that is not 0 or 1 is named, 1-based
    bad_graph = tmp_path / "bad.adj"
    bad_graph.write_text("0a1\n101\n110\n")
    code, _, err = run(capsys, "search", "--graph", f"file:{bad_graph}", "--r", "0",
                       "--distance", "1")
    assert (code, err) == (2, "error: invalid adjacency entry 'a' at (1,2)\n")
    bad_file.write_text("n = 3\nr = 0\ngraph = adjacency:\n0 1 1\n101\n110\nword = 000\n")
    code, _, err = run(capsys, "verify", str(bad_file))
    assert (code, err) == (2, "error: bad adjacency block: invalid adjacency entry ' ' at (1,2)\n")
    ring5 = fixture_path("ring5_r2.ocws")
    too_many_gauges = tmp_path / "gauges.ocws"
    too_many_gauges.write_text("n = 3\nr = 5\ngraph = ring\nword = 000\n")
    for argv, message in (
        (["verify", ring5, "--distance", "0"], "distance 0 must be >= 1"),
        (["verify", str(too_many_gauges)], "gauge count r=5 out of range for n=3"),
        (["oracle-check", ring5, "--weight", "-1"], "--weight -1 out of range for n=5"),
        (["oracle-check", ring5, "--weight", "6"], "--weight 6 out of range for n=5"),
        (["oracle-check", fixture_path("8_1_1_3.ocws"), "--tol", "-1"],
         "tolerance -1.0 must be positive"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_oracle_check_rejects_large_codes_before_enumerating(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ring15.ocws"
    path.write_text(write_code_file(new_code(ring_graph(15), 1, (0,))))

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("errors enumerated before the size check")

    monkeypatch.setattr("ocws.cli.enumerate_paulis", enumerate_nothing)
    code, out, err = run(capsys, "oracle-check", str(path), "--weight", "1")
    assert code == 2
    assert out == ""
    assert err == "error: n=15 too large for dense states (limit 14)\n"


def test_oracle_check_rejects_large_bases_before_allocating(capsys, tmp_path, monkeypatch):
    """A K = 2^14 code on 14 qubits would need 4 GiB per basis-shaped array."""
    message = (
        "codeword basis of shape (16384, 16384) too large for dense states "
        "(limit 4194304 entries)"
    )
    with pytest.raises(ValueError) as info:
        check_dense_size(14, 1 << 14)
    assert str(info.value) == message
    check_dense_size(14, 256)  # 2^22 entries, the limit itself
    with pytest.raises(ValueError, match=r"\(257, 16384\)"):
        check_dense_size(14, 257)
    path = tmp_path / "ring14_all.ocws"
    path.write_text(write_code_file(new_code(ring_graph(14), 0, range(1 << 14))))

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("errors enumerated before the size check")

    monkeypatch.setattr("ocws.cli.enumerate_paulis", enumerate_nothing)
    assert run(capsys, "oracle-check", str(path), "--weight", "0") == (2, "", f"error: {message}\n")


def test_adjacency_size_mismatch_exits_two(capsys, tmp_path):
    graph_path = tmp_path / "ring5.adj"
    ring = ring_graph(5)
    graph_path.write_text(
        "\n".join(
            "".join("1" if row >> j & 1 else "0" for j in range(5))
            for row in ring.rows
        )
    )
    code, _, err = run(
        capsys,
        "search", "--graph", f"file:{graph_path}", "--n", "6",
        "--r", "1", "--distance", "1",
    )
    assert code == 2
    assert "does not match" in err


def test_second_main_call_leaves_no_parser_garbage(capsys):
    argv = ["verify", fixture_path("8_1_1_3.ocws"), "--format", "lines"]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


def _fresh_process(argv):
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "ocws.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_usage_error_then_valid_call_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    bad = ["search", "--graph", "ring", "--n", "8", "--r", "1", "--mode", "fast"]
    good = ["search", "--graph", "ring", "--n", "8", "--r", "1", "--distance", "3",
            "--mode", "greedy", "--seed", "3"]
    first = run(capsys, *bad)
    assert first[0] == 2 and "invalid choice" in first[2]
    second = run(capsys, *good)
    assert second[0] == 0
    assert (first, second) == (_fresh_process(bad), _fresh_process(good))
