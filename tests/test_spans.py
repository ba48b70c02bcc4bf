"""The benchmark still finds every ocws name it wraps or imports.

perfbench/spans.py rebinds (module, name) pairs inside ocws to time them,
and perfbench/worker.py imports public names to re-check each op's output.
A refactor that drops one of those names would otherwise only crash or
fail the benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import ocws

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_binding():
    spans = _load_spans()
    pairs = [(m, a) for m, a, _ in spans.WRAPPED + spans.COUNTED_GENERATORS]
    before = {pair: getattr(importlib.import_module(pair[0]), pair[1]) for pair in pairs}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in before.items():
            assert getattr(importlib.import_module(module_name), attr) is not original
    finally:
        tracer.uninstall()
    for (module_name, attr), original in before.items():
        assert getattr(importlib.import_module(module_name), attr) is original


def test_worker_imports_resolve_on_ocws():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ocws"
        for alias in node.names
    ]
    assert names, "worker.py no longer imports from ocws"
    assert [name for name in names if not hasattr(ocws, name)] == []
