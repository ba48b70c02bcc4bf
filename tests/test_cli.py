"""End-to-end CLI behavior through main(argv), including exact output bytes."""

import glob
import random

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
from ocws.cli import main
from conftest import fixture_path, random_code, random_graph

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


def test_search_unreachable_target_exits_one(capsys):
    code, out, err = run(
        capsys,
        "search", "--graph", "ring", "--n", "8", "--r", "1",
        "--distance", "3", "--K", "100",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("search failed: ")


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
