"""The benchmark's span recorder still finds every name it wraps.

perfbench/spans.py rebinds (module, name) pairs inside ocws to time them.
A refactor that drops one of those names would otherwise only crash the
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
