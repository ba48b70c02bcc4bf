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
from pathlib import Path

from .code import OcwsCode, parse_code_file, write_code_file
from .graph import Graph, from_adjacency, ring_graph
from .induction import enumerate_paulis, induced_images, pauli_images
from .oracle import check_dense_size, oqec_check
from .pauli import format_pauli, format_zstring
from .search import SearchConfig, SearchError, search_code
from .verify import analyze

# Bound only for perfbench/spans.py, which wraps these names in this module.
from .induction import induced_error_set  # noqa: F401
from .verify import certify_distance, corrects_weight, detects_set  # noqa: F401

__all__ = ["main"]


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
    n = code.n
    if not 1 <= args.weight <= n:
        raise ValueError(f"--weight {args.weight} out of range for n={n}")
    _comment(args, f"induce {args.codefile}: errors of weight <= {args.weight}")
    # above its n raw induced bits an image spells its error in hex: 1 X, 2 Z, 3 Y
    raw_x, raw_z = induced_images(code)
    x_images = [raw | 1 << (n + 4 * q) for q, raw in enumerate(raw_x)]
    z_images = [raw | 2 << (n + 4 * q) for q, raw in enumerate(raw_z)]
    label_format, letters = f"0{n}x", str.maketrans("0123", "IXZY")
    reduced_mask = (1 << code.s) - 1
    classes = set()
    for w in range(1, args.weight + 1):
        for _support, _offset, images in pauli_images(x_images, z_images, w):
            reduced = [image & reduced_mask for image in images]
            classes.update(reduced)
            sys.stdout.write("".join(
                f"CLASS {format(image >> n, label_format)[::-1].translate(letters)} -> "
                f"{format_zstring(image, n)} -> {format_zstring(red, n)}\n"
                for image, red in zip(images, reduced)
            ))
    _comment(args, f"{len(classes)} distinct reduced classes")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
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
    code, complete = search_code(config)
    print(f"CODE n={code.n} r={code.r} K={code.K} d={code.claimed_distance}")
    if not complete:
        _comment(args, f"incomplete: K={code.K} is the best found, not a proven maximum",
                 stderr_in_lines=True)
    body = write_code_file(code)
    if args.out is not None:
        Path(args.out).write_text(body)
        _comment(args, f"wrote {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    code = _load_code(args.codefile)
    if not 0 <= args.weight <= code.n:
        raise ValueError(f"--weight {args.weight} out of range for n={code.n}")
    check_dense_size(code.n, code.K << code.r)  # before the sweep or the basis is built
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
    except SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
