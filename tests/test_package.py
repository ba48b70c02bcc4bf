"""The package surface, and which commands load numpy.

Only the dense oracle uses numpy, so `ocws` serves the oracle's names on
first access and the symbolic commands run without importing it.
"""

import json
import os
import subprocess
import sys

import pytest

import ocws
from ocws import code, graph, induction, oracle, pauli, search, verify
from conftest import ROOT, fixture_path

_PROBE = """
import contextlib, io, json, sys
import ocws, ocws.cli

def loaded(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ocws.cli.main(argv) == 0, argv
    return ["numpy" in sys.modules, "ocws.oracle" in sys.modules]

print(json.dumps([loaded(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_symbolic_commands_run_without_numpy_and_the_oracle_loads_it():
    commands = [
        ["verify", fixture_path("9_3_1_3.ocws")],
        ["induce", fixture_path("8_1_1_3.ocws"), "--weight", "2"],
        ["search", "--graph", "ring", "--n", "9", "--r", "1", "--distance", "3"],
        ["oracle-check", fixture_path("ring5_r2.ocws")],
    ]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert json.loads(done.stdout) == [[False, False]] * 3 + [[True, True]]


def test_package_all_is_the_union_of_every_module_all():
    modules = (pauli, graph, code, induction, verify, search, oracle)
    assert ocws.__all__ == [name for module in modules for name in module.__all__]
    assert ocws._ORACLE_NAMES == tuple(oracle.__all__)


def test_oracle_names_resolve_on_the_package():
    assert ocws.oracle is oracle
    assert ocws.oqec_check is oracle.oqec_check
    namespace = {}
    exec("from ocws import *", namespace)
    assert [name for name in ocws.__all__ if namespace[name] is not getattr(ocws, name)] == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ocws.no_such_name
    assert not hasattr(ocws, "_oracle")
