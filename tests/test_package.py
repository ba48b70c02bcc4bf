"""The package surface, the records' contract, and what each command loads.

Only the dense oracle uses numpy and only the `search` command runs the
clique search, so `ocws` serves both modules' names on first access: the
symbolic commands run without numpy, and only `search` compiles the
search.  The records are named tuples, so no command imports
`dataclasses`, and only numpy brings in `inspect`.
"""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ocws
from ocws import (
    Analysis,
    CompatibilityGraph,
    DegenerateFailure,
    DenseState,
    DetectionFailure,
    DetectionReport,
    GaugeGroup,
    Graph,
    InducedError,
    OcwsCode,
    OqecCheckReport,
    PauliOperator,
    SearchConfig,
    code,
    graph,
    induction,
    oracle,
    pauli,
    ring_graph,
    search,
    verify,
)
from ocws.code import _gauge_basis
from conftest import ROOT, fixture_path

_WATCHED = ("numpy", "ocws.oracle", "ocws.search", "dataclasses", "inspect")

_PROBE = """
import contextlib, io, json, sys
import ocws, ocws.cli

with contextlib.redirect_stdout(io.StringIO()):
    assert ocws.cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps([name in sys.modules for name in json.loads(sys.argv[2])]))
"""


def _fresh(source, *argv):
    """Run `source` in a new interpreter on the checkout's src/ and return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return done.stdout


def test_symbolic_commands_run_without_numpy_and_the_oracle_loads_it():
    """Each command in a fresh interpreter: only search compiles the clique search."""
    commands = {
        "verify": ["verify", fixture_path("9_3_1_3.ocws")],
        "induce": ["induce", fixture_path("8_1_1_3.ocws"), "--weight", "2"],
        "search": ["search", "--graph", "ring", "--n", "9", "--r", "1", "--distance", "3"],
        "oracle-check": ["oracle-check", fixture_path("ring5_r2.ocws")],
    }
    got = {
        command: json.loads(_fresh(_PROBE, json.dumps(argv), json.dumps(_WATCHED)))
        for command, argv in commands.items()
    }
    # numpy itself imports inspect, so only oracle-check loads it
    assert got == {
        "verify": [False] * 5,
        "induce": [False] * 5,
        "search": [False, False, True, False, False],
        "oracle-check": [True, True, False, False, True],
    }


def test_bare_import_loads_no_lazy_module_and_dir_lists_every_name():
    probe = (
        "import json, sys, ocws\n"
        "names = dir(ocws)\n"
        "print(json.dumps([names, [name in sys.modules for name in sys.argv[1:]]]))\n"
    )
    names, loaded = json.loads(_fresh(probe, *_WATCHED))
    assert loaded == [False] * len(_WATCHED)
    assert [name for name in ocws.__all__ if name not in names] == []
    assert {"search", "oracle", "__version__"} <= set(names)


def test_search_config_pickled_here_unpickles_after_a_bare_import():
    config = SearchConfig(ring_graph(5), 1, 3, mode="greedy", seed=7)
    probe = (
        "import pickle, sys, ocws\n"
        "config = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "print(type(config) is ocws.SearchConfig, repr(config))\n"
    )
    assert _fresh(probe, pickle.dumps(config).hex()) == f"True {config!r}\n"


def test_package_all_is_the_union_of_every_module_all():
    modules = (pauli, graph, code, induction, verify, search, oracle)
    assert ocws.__all__ == [name for module in modules for name in module.__all__]
    assert {module: list(names) for module, names in ocws._LAZY.items()} == {
        "search": search.__all__, "oracle": oracle.__all__,
    }
    assert ocws.search_code is search.search_code
    assert ocws.SearchConfig is search.SearchConfig


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


_P = PauliOperator(5, x=1)
_RING = ring_graph(5)
# each public record: keyword arguments for one instance, and the defaults of
# the fields it leaves out
_RECORDS = {
    PauliOperator: ({"n": 5}, {"x": 0, "z": 0}),
    Graph: ({"n": 3, "rows": (6, 5, 3)}, {}),
    GaugeGroup: ({"generators": (_P,), "labels": ("S1",)}, {}),
    OcwsCode: ({"graph": _RING, "r": 1, "words": (0, 3)}, {"claimed_distance": None}),
    InducedError: ({"bits": 3, "sources": (_P,)}, {}),
    DetectionFailure: ({"error": _P, "word_i": 1, "word_j": 2, "decomposition": "S1"}, {}),
    DetectionReport: ({"checked": 4, "failures": ()}, {}),
    DegenerateFailure: ({"error": _P, "word": 2}, {}),
    Analysis: ({"distance": 3, "failure": None, "degenerate": None}, {}),
    SearchConfig: (
        {"graph": _RING, "r": 1, "target_distance": 3},
        {"target_K": None, "mode": "exact", "time_budget": None, "seed": 0},
    ),
    CompatibilityGraph: ({"k": 3, "forbidden": frozenset({1, 6})}, {}),
    DenseState: ({"n": 1, "amplitudes": np.array([0.6, 0.8j])}, {}),
    OqecCheckReport: (
        {
            "max_off_block": 0.0,
            "max_block_deviation": 1e-12,
            "tolerance": 1e-9,
            "passed": True,
            "products": 4,
        },
        {},
    ),
}


def _fields(cls):
    kwargs, defaults = _RECORDS[cls]
    return {**kwargs, **defaults}


def test_record_table_covers_every_public_record():
    public = (getattr(ocws, name) for name in ocws.__all__)
    records = {obj for obj in public if isinstance(obj, type) and issubclass(obj, tuple)}
    assert records == set(_RECORDS)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_builds_from_keywords_with_its_defaults(cls):
    record = cls(**_RECORDS[cls][0])
    for name, value in _fields(cls).items():
        got = getattr(record, name)
        assert got is value or got == value, name
    assert tuple(record) == tuple(_fields(cls).values())


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    record = cls(**_RECORDS[cls][0])
    for name, value in _fields(cls).items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_names_every_field(cls):
    record = cls(**_RECORDS[cls][0])
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in _fields(cls))
    assert repr(record) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_equal_records_hash_equal(cls):
    a, b = cls(**_RECORDS[cls][0]), cls(**_RECORDS[cls][0])
    assert a == b and a is not b
    if cls is DenseState:
        # an ndarray field has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_an_attribute_beside_its_fields(cls):
    """Every record is its fields and nothing more."""
    record = cls(**_RECORDS[cls][0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize(
    "record, changes",
    [
        (PauliOperator(2), {"n": 0}),
        (_RING, {"rows": (0,) * 4}),
        (OcwsCode(_RING, 1, (0, 3)), {"words": (0, 0)}),
        (SearchConfig(_RING, 1, 3), {"mode": "fast"}),
        (DenseState(1, [1.0, 0.0]), {"n": 2}),
    ],
    ids=["PauliOperator", "Graph", "OcwsCode", "SearchConfig", "DenseState"],
)
def test_replace_runs_the_record_checks(record, changes):
    with pytest.raises(ValueError):
        record._replace(**changes)
    assert record._replace() == record


def test_compatibility_graph_replace_rebuilds_from_its_fields():
    """len() is 2^k, so namedtuple's own _make, which _replace calls, would refuse the record."""
    graph = CompatibilityGraph(3, frozenset({1, 6}))
    assert graph._replace(k=2) == CompatibilityGraph(2, frozenset({1, 6}))


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_survives_deepcopy(cls):
    record = cls(**_RECORDS[cls][0])
    assert repr(copy.deepcopy(record)) == repr(record)


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_record_survives_pickle(cls):
    record = cls(**_RECORDS[cls][0])
    again = _pickled(record)
    assert type(again) is cls
    if cls is DenseState:
        assert again.n == record.n and np.array_equal(again.amplitudes, record.amplitudes)
    else:
        assert again == record


def test_code_with_its_gauge_group_survives_copy_and_pickle():
    built = OcwsCode(_RING, 1, (0, 3))
    rows = _gauge_basis(built).rows()
    for again in (copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert again == built and _gauge_basis(again).rows() == rows
        assert ocws.certify_distance(again) == 1


def test_record_built_from_a_list_or_set_is_the_record_built_from_a_tuple():
    """Each record's constructor stores its collection field as a tuple or frozenset."""
    for record, field, value in (
        (Graph(3, (6, 5, 3)), "rows", [6, 5, 3]),
        (OcwsCode(_RING, 1, (0, 3)), "words", [0, 3]),
        (CompatibilityGraph(3, frozenset({1, 6})), "forbidden", {1, 6}),
    ):
        loose = type(record)(**{**record._asdict(), field: value})
        assert type(getattr(loose, field)) is type(getattr(record, field))
        for again in (loose, record._replace(**{field: value}), _pickled(loose)):
            assert again == record and hash(again) == hash(record)
    assert ocws.new_code is OcwsCode


def test_compatibility_graph_copies_without_a_tuple_of_its_vertex_count():
    """len() is the 2^k vertex count, so copies and pickles rebuild from k and forbidden."""
    assert len(CompatibilityGraph(3, frozenset({1, 6}))) == 8
    graph = CompatibilityGraph(22, frozenset({1}))
    for duplicate in (copy.copy, copy.deepcopy, _pickled):
        tracemalloc.start()
        try:
            again = duplicate(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (duplicate.__name__, peak)
        assert again == graph and type(again) is CompatibilityGraph


def test_dense_state_stores_complex_amplitudes():
    state = DenseState(1, [0.6, 0.8])
    assert state.amplitudes.dtype == complex
    assert state.amplitudes.tolist() == [0.6 + 0j, 0.8 + 0j]


_GRAPH_3 = ring_graph(3)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (PauliOperator, (0,), "Pauli needs at least one qubit, got n=0"),
        (PauliOperator, (2, 4), "x mask 0x4 out of range for n=2"),
        (PauliOperator, (2, 0, -1), "z mask -0x1 out of range for n=2"),
        (Graph, (0, ()), "graph needs at least one vertex, got n=0"),
        (Graph, (2, (2,)), "adjacency has 1 rows, expected 2"),
        (Graph, (2, (4, 0)), "adjacency row 1 out of range for n=2"),
        (Graph, (2, (1, 0)), "nonzero diagonal at (1,1)"),
        (Graph, (2, (2, 0)), "asymmetric at (1,2)"),
        (OcwsCode, (_GRAPH_3, 3, (0,)), "gauge count r=3 out of range for n=3"),
        (OcwsCode, (_GRAPH_3, 0, ()), "a code needs at least one word"),
        (OcwsCode, (_GRAPH_3, 0, (0,), 0), "claimed distance 0 must be >= 1"),
        (OcwsCode, (_GRAPH_3, 0, (0, 8)), "word 2 out of range for n=3"),
        (OcwsCode, (_GRAPH_3, 1, (0, 4)), "word 001 is supported on gauge qubit 3"),
        (OcwsCode, (_GRAPH_3, 0, (1, 0, 1)), "duplicate word 100 at positions 1 and 3"),
        (SearchConfig, (_GRAPH_3, -1, 3), "gauge count r=-1 out of range for n=3"),
        (SearchConfig, (_GRAPH_3, 0, 5), "target distance 5 out of range 1..4 for n=3"),
        (SearchConfig, (_GRAPH_3, 0, 3, 0), "target K 0 must be >= 1"),
        (SearchConfig, (_GRAPH_3, 0, 3, None, "fast"),
         "mode must be 'exact' or 'greedy', got 'fast'"),
        (SearchConfig, (ring_graph(25), 0, 3), "s=25 too large for search (limit 24)"),
        (SearchConfig, (_GRAPH_3, 0, 3, None, "exact", 0.0),
         "time budget 0.0 must be positive"),
        (DenseState, (1, [1.0]), "amplitude vector has shape (1,), expected (2,)"),
        (DenseState, (1, [1.0, 1.0]),
         "state norm np.float64(1.4142135623730951) is not 1 within 1e-12"),
    ],
)
def test_record_validation_messages(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_every_to_bytes_and_from_bytes_call_names_its_byteorder():
    # the byteorder default ("big") is new in Python 3.11, and 3.10 is supported
    calls = [
        (path.name, node)
        for path in sorted((ROOT / "src" / "ocws").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("to_bytes", "from_bytes")
    ]
    assert calls  # the induce renderer has one
    unnamed = [(name, node.lineno) for name, node in calls
               if len(node.args) < 2 and all(kw.arg != "byteorder" for kw in node.keywords)]
    assert unnamed == []
