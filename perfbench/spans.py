"""Span recorder for the traced run, wrapped around ocws's public calls.

ocws modules bind each other's functions with `from ... import`, so a call
is intercepted by rebinding the name in the module that makes it, not in
the module that defines it.  The same function therefore gets a different
span name per caller: `certify_distance` called from `ocws.cli` is
`verify.certify`, called from `ocws.search` it is `search.reverify`.

Pauli and graph helpers run once per error or adjacency row, so they are not
wrapped; their cost shows as self time of the spans that call them.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (importing module, bound name, span name)
WRAPPED = (
    ("ocws.cli", "search_code", "search.search_code"),
    ("ocws.search", "forbidden_differences", "search.forbidden"),
    ("ocws.search", "find_max_clique", "search.clique"),
    ("ocws.search", "certify_distance", "search.reverify"),
    ("ocws.search", "corrects_weight", "search.reverify"),
    ("ocws.search", "enumerate_paulis", "induction.enumerate"),
    ("ocws.search", "induced_error_set", "induction.induced_set"),
    ("ocws.cli", "enumerate_paulis", "induction.enumerate"),
    ("ocws.cli", "induced_error_set", "induction.induced_set"),
    ("ocws.verify", "enumerate_paulis", "induction.enumerate"),
    ("ocws.verify", "induced_error_set", "induction.induced_set"),
    ("ocws.cli", "certify_distance", "verify.certify"),
    ("ocws.cli", "corrects_weight", "verify.corrects"),
    ("ocws.cli", "detects_set", "verify.detects_set"),
    ("ocws.cli", "parse_code_file", "code.parse"),
    ("ocws.cli", "write_code_file", "code.write"),
    ("ocws.cli", "oqec_check", "oracle.check"),
    ("ocws.oracle", "build_graph_state", "oracle.state"),
)
# Generators: counted per item yielded, since their work happens lazily.
# Every Pauli comes from paulis_of_weight, called by enumerate_paulis inside
# ocws.induction and by certify_distance inside ocws.verify, so rebinding it
# in those two modules counts each Pauli once, whoever enumerates it.
COUNTED_GENERATORS = (
    ("ocws.induction", "paulis_of_weight", "induction.paulis"),
    ("ocws.verify", "paulis_of_weight", "induction.paulis"),
)

OP_SPAN = "cli"

# (metric, span name whose total duration per op it reports)
_TIME_PER_OP = (
    ("search.clique_s", "search.clique"),
    ("search.forbidden_s", "search.forbidden"),
    ("search.reverify_s", "search.reverify"),
    ("induction.enumerate_s", "induction.enumerate"),
    ("induction.induced_set_s", "induction.induced_set"),
    ("verify.certify_s", "verify.certify"),
    ("verify.corrects_s", "verify.corrects"),
    ("verify.detects_set_s", "verify.detects_set"),
    ("code.parse_s", "code.parse"),
    ("code.write_s", "code.write"),
    ("oracle.check_s", "oracle.check"),
    ("oracle.state_s", "oracle.state"),
)


class Tracer:
    """Records spans (name, start, end, parent, op id) and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.oracle_inputs: list[tuple[int, int, int, list]] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.begin(OP_SPAN)

    def end_op(self, index: int, stdout_bytes: int) -> None:
        self.end(index)
        self.counts["cli.stdout_bytes"] += stdout_bytes
        self._op = None

    def _observe(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        counts[name + ".calls"] += 1
        if name == "search.clique":
            clique, complete = result
            counts["search.complete"] += bool(complete)
            counts["search.candidates"] += len(args[0])
            counts["search.clique_k"] += len(clique)
        elif name == "search.forbidden":
            counts["search.forbidden_size"] += len(result)
        elif name == "induction.induced_set":
            counts["induction.classes"] += len(result)
        elif name == "oracle.check":
            code, errors = args[0], args[1]
            # kept by reference; the counts are computed after the run
            self.oracle_inputs.append((code.n, code.r, code.K, list(errors)))

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            self._rebind(module_name, attr, self._wrap(name))
        for module_name, attr, name in COUNTED_GENERATORS:
            self._rebind(module_name, attr, self._count_items(name))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _rebind(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def _wrap(self, name: str):
        def make(fn):
            def traced(*args, **kwargs):
                index = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(index)
                self._observe(name, args, result)
                return result

            return traced

        return make

    def _count_items(self, name: str):
        def make(fn):
            def counted(*args, **kwargs):
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                finally:
                    self.counts[name] += yielded

            return counted

        return make

    # -- reporting -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], int]:
        """Total duration and self time per span name, and the op count.

        Self time is a span's duration minus that of its direct children;
        the run is single-threaded, so children never overlap.
        """
        duration: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        ops = 0
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            duration[name] += end - start
            self_time[name] += end - start - child_time[index]
            ops += name == OP_SPAN
        return duration, self_time, ops

    def oracle_counts(self) -> tuple[int, int, int]:
        """Products, block pairs and bytes moved, computed from the inputs.

        Per distinct error product the dense check gathers, sign-scales and
        multiplies the K * 2^r by 2^n complex128 codeword basis: four passes
        of 16-byte amplitudes, and K^2 logical blocks compared.
        """
        products = block_pairs = moved = 0
        for n, r, K, errors in self.oracle_inputs:
            distinct = len({(a.x ^ b.x, a.z ^ b.z) for a in errors for b in errors})
            products += distinct
            block_pairs += distinct * K * K
            moved += distinct * 4 * 16 * (K << r) * (1 << n)
        return products, block_pairs, moved

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics averaged per traced op (per call where stated)."""
        duration, self_time, ops = self.totals()
        ops = max(ops, 1)
        counts = self.counts
        clique_calls = counts["search.clique.calls"]
        forbidden_calls = counts["search.forbidden.calls"]
        products, block_pairs, moved = self.oracle_counts()

        def per_call(total: float, calls: float) -> float:
            return total / calls if calls else 0.0

        metrics = {name: (duration[span] / ops, "s/op") for name, span in _TIME_PER_OP}
        metrics.update({
            "search.clique_calls": (clique_calls / ops, "count/op"),
            "search.complete_ratio": (per_call(counts["search.complete"], clique_calls), "ratio"),
            "search.candidates": (per_call(counts["search.candidates"], clique_calls), "count/call"),
            "search.clique_k": (per_call(counts["search.clique_k"], clique_calls), "count/call"),
            "search.forbidden_size": (per_call(counts["search.forbidden_size"], forbidden_calls),
                                      "count/call"),
            "search.self_s": (self_time["search.search_code"] / ops, "s/op"),
            "induction.paulis": (counts["induction.paulis"] / ops, "count/op"),
            "induction.classes": (counts["induction.classes"] / ops, "count/op"),
            "cli.self_s": (self_time[OP_SPAN] / ops, "s/op"),
            "cli.stdout_bytes": (counts["cli.stdout_bytes"] / ops, "B/op"),
            "oracle.products": (products / ops, "count/op"),
            "oracle.block_pairs": (block_pairs / ops, "count/op"),
            "oracle.bytes_moved": (moved / ops, "B/op"),
            "trace.op_s": (duration[OP_SPAN] / ops, "s/op"),
        })
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
