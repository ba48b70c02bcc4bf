"""Every benchmark op still prints the stdout pinned for seed 1.

perfbench/expected.json pins the stdout sha256 of every op, and the
workload generator its exit code.
Without this test a change in clique order, a verdict line or a printed
residual would fail only the benchmark run.  The ops' input files go to
a per-test directory under the ignored perfbench/work/, as
perfbench/run.py writes them, and are removed after.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from ocws.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload", ["search-exact", "search-greedy", "gf2-verify", "oracle-dense"]
)
def test_ops_match_pinned_digests(workload, monkeypatch):
    pinned = json.loads((PERFBENCH / "expected.json").read_text())[workload]["1"]
    workdir = PERFBENCH / "work" / f"tier1-{workload}-{os.getpid()}"
    monkeypatch.chdir(ROOT)  # argv paths are relative to the checkout root
    try:
        manifest = _load_workloads().generate(workload, 1, ROOT, workdir)
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
