"""Operator codeword-stabilized codes over graph states.

Symbolic GF(2) construction, verification and search of subsystem codes
built from a graph state, Z-type word operators and gauge qubits, plus an
independent dense state-vector oracle for small instances.

Two modules load on first access to them or to one of their names: the
clique search `ocws.search`, which only the `search` command runs, and the
oracle `ocws.oracle`, the only module that needs numpy.  So `import ocws`
and the `verify`, `induce` and `oracle-check` commands never compile the
search, and the symbolic commands never import numpy.  Cold, without a
bytecode cache, `ocws.search` is 4-9 ms under `-X importtime` and the five
eager modules together 11-21 ms, by the host's speed (2 CPUs, Python 3.11).
"""

import importlib

# Dependency order: each module imports only those above it.
from .pauli import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .code import *  # noqa: F401,F403
from .induction import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from . import code, graph, induction, pauli, verify

__version__ = "0.1.0"

# Each lazy module's __all__, written out so that listing the package loads neither
_LAZY = {
    "search": (
        "SearchError",
        "SearchConfig",
        "forbidden_differences",
        "CompatibilityGraph",
        "find_max_clique",
        "search_code",
    ),
    "oracle": (
        "DenseState",
        "OqecCheckReport",
        "check_dense_size",
        "build_graph_state",
        "apply_pauli",
        "codeword_basis",
        "oqec_check",
    ),
}

__all__ = [
    name
    for module in (pauli, graph, code, induction, verify)
    for name in module.__all__
] + [name for names in _LAZY.values() for name in names]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            # import_module, not `from . import ...`, which would come back here
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__all__})
