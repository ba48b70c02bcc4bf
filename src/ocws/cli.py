"""Command-line interface: verify, induce, search, oracle-check.

Machine-readable results go to stdout with stable prefixes (VERDICT,
CLASS, CODE, residual lines); diagnostics go to stderr.  Exit status is 0
for pass/success, 1 for a verified failure, 2 for usage or parse errors.
Output is byte-identical across runs for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain, islice
from math import comb
from pathlib import Path

from .code import OcwsCode, parse_code_file, write_code_file
from .graph import Graph, from_adjacency, ring_graph
from .induction import enumerate_paulis, induced_images, pauli_images
from .pauli import format_pauli
from .verify import analyze

# Bound only for perfbench/spans.py, which wraps these names in this module.
from .induction import induced_error_set  # noqa: F401
from .verify import certify_distance, corrects_weight, detects_set  # noqa: F401

__all__ = ["main"]

_MAX_PRODUCTS = 1 << 18  # distinct error products an oracle-check sweep may reach


@functools.cache  # a parser holds reference cycles; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocws",
        description="Construct, verify and search operator codeword-stabilized codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "lines"),
            default="text",
            help="text adds '#' comment lines; lines is strictly machine output",
        )

    p_verify = sub.add_parser("verify", help="check a code file against a distance")
    p_verify.add_argument("codefile")
    p_verify.add_argument(
        "--distance",
        type=int,
        default=None,
        help="distance to certify; defaults to the file's claim, else 1",
    )
    common(p_verify)

    p_induce = sub.add_parser("induce", help="print induced error classes")
    p_induce.add_argument("codefile")
    p_induce.add_argument("--weight", type=int, default=1, help="maximum error weight")
    common(p_induce)

    p_search = sub.add_parser("search", help="search word sets for a graph")
    p_search.add_argument(
        "--graph",
        required=True,
        help="'ring' (with --n) or 'file:<path>' to a 0/1 adjacency file",
    )
    p_search.add_argument("--n", type=int, default=None, help="qubit count for ring")
    p_search.add_argument("--r", type=int, required=True, help="gauge qubit count")
    p_search.add_argument("--distance", type=int, required=True, help="target distance")
    p_search.add_argument("--K", type=int, default=None, help="required word count")
    p_search.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p_search.add_argument("--budget", type=float, default=None, help="time budget in seconds")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--out", default=None, help="write the code file here")
    common(p_search)

    p_oracle = sub.add_parser(
        "oracle-check", help="dense state-vector check of correctability"
    )
    p_oracle.add_argument("codefile")
    p_oracle.add_argument("--weight", type=int, default=1, help="error sweep weight")
    p_oracle.add_argument("--tol", type=float, default=1e-9)
    common(p_oracle)

    return parser


def _comment(args: argparse.Namespace, text: str, stderr_in_lines: bool = False) -> None:
    if args.format == "text":
        print(f"# {text}")
    elif stderr_in_lines:
        print(text, file=sys.stderr)  # so lines-format stdout stays unchanged


def _load_code(path: str) -> OcwsCode:
    return parse_code_file(Path(path).read_text())


def _load_graph(args: argparse.Namespace) -> Graph:
    kind = args.graph
    if kind == "ring":
        if args.n is None:
            raise ValueError("--graph ring requires --n")
        return ring_graph(args.n)
    if kind.startswith("file:"):
        path = kind[len("file:"):]
        rows = [
            line.split("#", 1)[0].strip()
            for line in Path(path).read_text().splitlines()
        ]
        graph = from_adjacency([row for row in rows if row])
        if args.n is not None and args.n != graph.n:
            raise ValueError(f"--n {args.n} does not match adjacency size {graph.n}")
        return graph
    raise ValueError(f"--graph must be 'ring' or 'file:<path>', got {kind!r}")


def _cmd_verify(args: argparse.Namespace) -> int:
    code = _load_code(args.codefile)
    distance = args.distance
    if distance is None:
        distance = code.claimed_distance if code.claimed_distance is not None else 1
    if distance < 1:
        raise ValueError(f"distance {distance} must be >= 1")
    _comment(args, f"verify {args.codefile} against distance {distance}")
    a = analyze(code, (distance - 1) // 2)
    ok = a.distance >= distance and a.degenerate is None
    if a.failure is not None and a.distance < distance:
        f = a.failure
        print(
            f"WITNESS error={format_pauli(f.error)} "
            f"words=({f.word_i},{f.word_j}) product={f.decomposition}"
        )
    elif a.degenerate is not None:
        g = a.degenerate
        print(f"WITNESS degenerate error={format_pauli(g.error)} word={g.word}")
    print(f"VERDICT {'pass' if ok else 'fail'} n={code.n} K={code.K} r={code.r} d={a.distance}")
    return 0 if ok else 1


def _cmd_induce(args: argparse.Namespace) -> int:
    code = _load_code(args.codefile)
    n, r = code.n, code.r
    if not 1 <= args.weight <= n:
        raise ValueError(f"--weight {args.weight} out of range for n={n}")
    _comment(args, f"induce {args.codefile}: errors of weight <= {args.weight}")
    # A line is one hex number, a digit per character: 3n + 15 of them.  Qubit
    # q's X (Z) image holds a (c) at its label digit, so Y is 6, and a 1 at the
    # raw digit of each qubit it induces, and at the reduced digit for qubits
    # 1..s; gauge qubits reduce to 0.  An XOR of images keeps every digit 0/1
    # or 0/a/c/6, the frame ORs in the rest with digits the images never use,
    # and one 1:1 table spells every digit.  A batch is rendered as bytes: each
    # number's to_bytes, one join, one hex().  An odd digit count (n even)
    # drops the newline digit from the number: hex() writes "\n" as its
    # separator between lines, and one more ends the batch.
    digits = 3 * n + 15
    cut, size = 4 * (digits % 2), digits // 2
    blank = "0" * n
    spell = str.maketrans("CLAS ->\n", "234578bd")
    frame = int(f"CLASS {blank} -> {blank} -> {blank}\n".translate(spell), 16) >> cut
    letters = str.maketrans("01ac6234578bd", "IZXZYCLAS ->\n")
    raw_format = f"0{n}b"

    def image(q, bits, letter):
        spread = int(format(bits, raw_format)[::-1], 16)  # a digit per qubit, qubit 1 first
        return (letter << 4 * (3 * n + 8 - q) | spread << 4 * (n + 5)
                | spread >> 4 * r << 4 * (r + 1)) >> cut

    x_bits, z_bits = induced_images(code)
    x_images = [image(q, bits, 0xA) for q, bits in enumerate(x_bits)]
    z_images = [image(q, bits, 0xC) for q, bits in enumerate(z_bits)]
    reduced = 16 ** n - 1 << 4 >> cut  # the reduced digits
    classes, count = set(), args.format == "text"  # only text prints the count
    sweep = chain.from_iterable(
        images for w in range(1, args.weight + 1)
        for _support, _offset, images in pauli_images(x_images, z_images, w)
    )
    # batches of 256 lines: few calls per line, and a small heap at any weight
    for batch in iter(lambda: list(islice(sweep, 256)), []):
        if count:
            classes.update(map(reduced.__and__, batch))
        data = b"".join([(frame | v).to_bytes(size, "big") for v in batch])
        text = data.hex("\n", size) + "\n" if cut else data.hex()
        sys.stdout.write(text.translate(letters))
    _comment(args, f"{len(classes)} distinct reduced classes")
    return 0


def search_code(config) -> tuple[OcwsCode, bool]:
    """The clique search; `ocws.search` loads on the first call, not with the CLI.

    So only the `search` command compiles it: 4-9 ms of a cold start under
    `-X importtime`, by the host's speed (2 CPUs, Python 3.11, no bytecode
    cache).  A module-level name, so that perfbench/spans.py can wrap it here.
    """
    from .search import search_code as search

    return search(config)


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchConfig, SearchError

    graph = _load_graph(args)
    config = SearchConfig(
        graph=graph,
        r=args.r,
        target_distance=args.distance,
        target_K=args.K,
        mode=args.mode,
        time_budget=args.budget,
        seed=args.seed,
    )
    try:
        code, complete = search_code(config)
    except SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    body = write_code_file(code)
    if args.out is not None:
        Path(args.out).write_text(body)  # first, so a failed write prints nothing
    print(f"CODE n={code.n} r={code.r} K={code.K} d={code.claimed_distance}")
    if not complete:
        _comment(args, f"incomplete: K={code.K} is the best found, not a proven maximum",
                 stderr_in_lines=True)
    if args.out is not None:
        _comment(args, f"wrote {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def oqec_check(code: OcwsCode, errors, tol: float):
    """The dense oracle's check; numpy loads on the first call, not with the CLI.

    A module-level name, so that perfbench/spans.py can wrap it here.
    """
    from .oracle import oqec_check as check

    return check(code, errors, tol)


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from .oracle import check_dense_size

    code = _load_code(args.codefile)
    if not 0 <= args.weight <= code.n:
        raise ValueError(f"--weight {args.weight} out of range for n={code.n}")
    check_dense_size(code.n, code.K << code.r)  # before the sweep or the basis is built
    # a product of two errors of weight <= w has weight <= min(2w, n)
    products = sum(comb(code.n, j) * 3**j for j in range(min(2 * args.weight, code.n) + 1))
    if products > _MAX_PRODUCTS:
        raise ValueError(
            f"--weight {args.weight} sweep has up to {products} distinct error products "
            f"(limit {_MAX_PRODUCTS})"
        )
    errors = enumerate_paulis(code.n, args.weight, include_identity=True)
    report = oqec_check(code, errors, args.tol)  # rejects a bad --tol before any output
    _comment(
        args,
        f"oracle-check {args.codefile}: {len(errors)} errors, "
        f"{report.products} products, tolerance {args.tol:g}",
    )
    print(f"max_off_block = {report.max_off_block:.6e}")
    print(f"max_block_deviation = {report.max_block_deviation:.6e}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "verify": _cmd_verify,
        "induce": _cmd_induce,
        "search": _cmd_search,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
