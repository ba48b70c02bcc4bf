"""Operator codeword-stabilized codes over graph states.

Symbolic GF(2) construction, verification and search of subsystem codes
built from a graph state, Z-type word operators and gauge qubits, plus an
independent dense state-vector oracle for small instances.
"""

# Dependency order: each module imports only those above it.
from .pauli import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .code import *  # noqa: F401,F403
from .induction import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from . import code, graph, induction, oracle, pauli, search, verify

__version__ = "0.1.0"

__all__ = [
    name
    for module in (pauli, graph, code, induction, verify, search, oracle)
    for name in module.__all__
]
