"""Every benchmark op still prints the stdout pinned for seed 1.

The held-out seed 1009 runs too, on every workload.

perfbench/expected.json pins the stdout sha256 of every op, and the
workload generator its exit code.
Without this test a change in clique order, a verdict line or a printed
residual would fail only the benchmark run.  The ops' input files go to
a per-test directory under the ignored perfbench/work/, as
perfbench/run.py writes them, and are removed after.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil

import pytest

from ocws.cli import main
from conftest import PERFBENCH, ROOT, load_workloads


def _check_pinned(workload, seed, monkeypatch):
    pinned = json.loads((PERFBENCH / "expected.json").read_text())[workload][str(seed)]
    workdir = PERFBENCH / "work" / f"tier1-{workload}-{seed}-{os.getpid()}"
    monkeypatch.chdir(ROOT)  # argv paths are relative to the checkout root
    try:
        manifest = load_workloads().generate(workload, seed, ROOT, workdir)
        assert {op["key"] for op in manifest["ops"]} == set(pinned)
        for op in manifest["ops"]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(list(op["argv"]))
            assert rc == op["rc"], op["key"]
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert digest == pinned[op["key"]], op["key"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize(
    "workload", ["search-exact", "search-greedy", "gf2-verify", "oracle-dense"]
)
def test_ops_match_pinned_digests(workload, monkeypatch):
    _check_pinned(workload, 1, monkeypatch)


@pytest.mark.parametrize(
    "workload", ["search-exact", "gf2-verify", "oracle-dense", "search-greedy"]
)
def test_held_out_seed_ops_match_pinned_digests(workload, monkeypatch):
    _check_pinned(workload, 1009, monkeypatch)
