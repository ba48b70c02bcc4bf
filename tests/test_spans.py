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
from conftest import fixture_path

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


def _unread_imports(source):
    """Names an import binds that the module never reads, as pyflakes' F401 finds them.

    A name is read where it loads as a Name or is listed in __all__; star
    and __future__ imports bind no name to check.
    """
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return imported - read


def test_unread_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from a import b, c as d, e\nfrom f import *\n__all__ = ['e']\nprint(d, regex)\n"
    )
    assert _unread_imports(source) == {"os", "b"}


def test_every_unread_import_in_ocws_is_bound_for_spans():
    """A stand-in for the unused-import lint: only the names spans.py rebinds may go unread."""
    spans = _load_spans()
    bound = {(m, a) for m, a, _ in spans.WRAPPED + spans.COUNTED_GENERATORS}
    unread = {
        ("ocws" if path.stem == "__init__" else f"ocws.{path.stem}", name)
        for path in Path(ocws.__file__).parent.glob("*.py")
        for name in _unread_imports(path.read_text())
    }
    assert sorted(unread - bound) == []


def test_oracle_check_through_the_cli_records_check_and_state_spans(capsys):
    """The CLI's oqec_check stays a rebindable module name that reaches the oracle."""
    from ocws.cli import main

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert main(["oracle-check", fixture_path("ring5_r2.ocws"), "--format", "lines"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.endswith("PASS\n")
    names = [span[0] for span in tracer.spans]
    state = tracer.spans[names.index("oracle.state")]
    assert state[3] == names.index("oracle.check")  # the state is built inside the check


def test_search_through_the_cli_records_its_clique_span_and_counters(capsys):
    """find_max_clique, which takes the group beside the graph, stays the traced boundary."""
    from ocws.cli import main

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        argv = ["search", "--graph", "ring", "--n", "9", "--r", "0", "--distance", "3"]
        assert main([*argv, "--format", "lines"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("CODE n=9 r=0 K=12 d=3\n")
    names = [span[0] for span in tracer.spans]
    clique = tracer.spans[names.index("search.clique")]
    assert clique[3] == names.index("search.search_code")
    assert tracer.counts["search.candidates"] == 512
    assert tracer.counts["search.clique_k"] == 12
    assert tracer.counts["search.complete"] == 1
