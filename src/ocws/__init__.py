"""Operator codeword-stabilized codes over graph states.

Symbolic GF(2) construction, verification and search of subsystem codes
built from a graph state, Z-type word operators and gauge qubits, plus an
independent dense state-vector oracle for small instances.

Only the oracle needs numpy, so `ocws.oracle` and its names load on first
access: the symbolic commands never import numpy.
"""

import importlib

# Dependency order: each module imports only those above it.
from .pauli import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .code import *  # noqa: F401,F403
from .induction import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from . import code, graph, induction, pauli, search, verify

__version__ = "0.1.0"

# oracle.__all__, written out so that listing it does not load numpy
_ORACLE_NAMES = (
    "DenseState",
    "OqecCheckReport",
    "check_dense_size",
    "build_graph_state",
    "apply_pauli",
    "codeword_basis",
    "oqec_check",
)

__all__ = [
    name
    for module in (pauli, graph, code, induction, verify, search)
    for name in module.__all__
] + list(_ORACLE_NAMES)


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        # import_module, not `from . import oracle`, which would come back here
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
