"""One benchmark process: set-up, timed closed-loop ops, correctness gate.

run.py starts this in a fresh interpreter, from the checkout root, with
BLAS threads pinned to 1:

    python3 perfbench/worker.py MANIFEST RESULT --seconds S --budget B [--setup-only] [--trace]

Each op is one in-process `ocws.cli.main(argv)` call with stdout captured;
the next op starts only after the previous one returned.  Ops run in whole
passes over the manifest, each pass in a seeded order, until the time is up
and at least MIN_OPS ops were timed, so p90 has ten samples above it.  No
op starts after B seconds, so ops that got slower still end in a result.

The speed of a shared host drifts by up to a factor of two over minutes,
and CPU time drifts with wall time, so the end-to-end times are reported at
a reference speed: each time is multiplied by the median of the kernel's
reference time over its measured time, for a fixed kernel run right after
set-up and right before and after each pass of the timed phase.  The kernel
runs in run.py's process, which never imports ocws, so nothing ocws leaves
running here can slow it.  The wall-clock values are kept in the record.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_OPS = 100
OP_TIMEOUT_S = 60.0
MAX_REPORTED_FAILURES = 20


class OpTimeout(Exception):
    pass


def on_alarm(signum, frame):
    raise OpTimeout


def speed_samples(count: int) -> list[float]:
    """Reference time over measured time of `count` reference-kernel runs.

    run.py runs the kernel while this process waits, on the CPU this
    process last ran on, so that it sees the speed the ops saw.
    """
    cpu = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36]
    sys.__stdout__.write(f"{count} {cpu}\n")
    sys.__stdout__.flush()
    return json.loads(sys.__stdin__.readline())


def import_cli(root: Path):
    """Import ocws.cli from the checkout's src/, never from anywhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import ocws.cli

    if Path(ocws.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported ocws from {ocws.cli.__file__}, not from {src}")
    return ocws.cli


def execute(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    problem = None
    rc = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except OpTimeout:
        problem = f"timeout after {OP_TIMEOUT_S} s"
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        problem = f"raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"elapsed": elapsed, "rc": rc, "problem": problem, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


class Loop:
    """Runs ops closed-loop and keeps what the gate needs."""

    def __init__(self, main, ops: list[dict], stop_at: float, tracer=None):
        self.main = main
        self.ops = ops
        self.stop_at = stop_at
        self.tracer = tracer
        self.records: list[tuple[int, float, int | None, str | None, str]] = []
        self.first_stdout: dict[str, str] = {}
        self.stderr: dict[str, str] = {}

    def run(self, index: int) -> None:
        op = self.ops[index]
        span = self.tracer.begin_op(len(self.records)) if self.tracer else None
        result = execute(self.main, op["argv"])
        stdout = result["stdout"].encode()
        if self.tracer:
            self.tracer.end_op(span, len(stdout))
        digest = hashlib.sha256(stdout).hexdigest()
        self.first_stdout.setdefault(op["key"], result["stdout"])
        if result["problem"] or result["rc"] != op["rc"]:
            self.stderr.setdefault(op["key"], result["stderr"][-400:])
        self.records.append((index, result["elapsed"], result["rc"], result["problem"], digest))

    def run_pass(self, order: list[int]) -> float:
        start = time.perf_counter()
        for index in order:
            if time.perf_counter() >= self.stop_at:
                break
            self.run(index)
        return time.perf_counter() - start


def shuffled_passes(ops: list[dict], rng: random.Random, seconds: float, stop_at: float, done):
    """Seeded pass orders until `seconds` have passed and `done()` holds, or until `stop_at`."""
    start = time.perf_counter()
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        yield order
        now = time.perf_counter()
        if now >= stop_at or (now - start >= seconds and done()):
            return


def _read_graph(argv: list[str]):
    from ocws import from_adjacency, ring_graph

    graph = argv[argv.index("--graph") + 1]
    if graph == "ring":
        return ring_graph(int(argv[argv.index("--n") + 1]))
    rows = [line.strip() for line in Path(graph[len("file:"):]).read_text().splitlines()]
    return from_adjacency([row for row in rows if row])


def check_output(op: dict, stdout: str) -> str | None:
    """Why the output of a correct run could not look like this, or None.

    Search results are re-verified independently of the search: the
    certified distance by certify_distance and correction through the
    classical route.  Oracle verdicts are pinned on their own, not derived
    from the symbolic verifier (the two differ by design on sector-signed
    degenerate errors).
    """
    expect = op["expect"]
    lines = stdout.splitlines()
    kind = op["kind"]
    if kind == "search":
        head = f"CODE n={expect['n']} r={expect['r']} K={expect['K']} d={expect['d']}"
        if not lines or lines[0] != head:
            return f"expected {head!r}, got {lines[:1]!r}"
        from ocws import certify_distance, classical_route_corrects, parse_code_file

        code = parse_code_file("\n".join(lines[1:]) + "\n")
        if code.graph != _read_graph(op["argv"]) or code.r != expect["r"]:
            return "emitted code is not on the input graph"
        if code.K != expect["K"] or code.claimed_distance != expect["d"]:
            return "code body disagrees with the CODE line"
        certified = certify_distance(code)
        if certified != expect["d"] or certified < expect["target"]:
            return f"emitted code certifies to d={certified}"
        if not classical_route_corrects(code, (expect["target"] - 1) // 2):
            return "emitted code fails the classical correction route"
    elif kind == "verify":
        witness = [line for line in lines[:-1] if line.startswith("WITNESS ")]
        if not lines or lines[-1] != expect["verdict"]:
            return f"expected {expect['verdict']!r}, got {lines[-1:]!r}"
        if len(witness) != len(lines) - 1 or len(witness) != (op["rc"] == 1):
            return "expected one WITNESS line exactly on failure"
    elif kind == "induce":
        if len(lines) != expect["lines"] or not all(line.startswith("CLASS ") for line in lines):
            return f"expected {expect['lines']} CLASS lines, got {len(lines)} lines"
    elif kind == "oracle":
        if len(lines) != 3 or lines[2] != expect["verdict"]:
            return f"expected verdict {expect['verdict']}, got {lines[-1:]!r}"
        worst = max(float(line.rsplit("=", 1)[1]) for line in lines[:2])
        if (worst <= 1e-9) != (expect["verdict"] == "PASS"):
            return f"residual {worst:g} contradicts the verdict"
    return None


def gate(loop: Loop, digests: dict | None) -> tuple[int, list[str]]:
    """Failed op count and the first reasons.

    An op fails on an exception, a timeout, a wrong exit code, stdout whose
    digest differs from the pinned one (or, for seeds without pinned
    digests, from the first run of the same input), or output that fails
    check_output.
    """
    verdicts = {}
    for op in loop.ops:
        if op["key"] in loop.first_stdout:
            try:
                verdicts[op["key"]] = check_output(op, loop.first_stdout[op["key"]])
            except Exception as exc:  # unparsable output is a failed op
                verdicts[op["key"]] = f"output check raised {exc!r}"
    first_digest: dict[str, str] = {}
    failed = 0
    reasons: list[str] = []
    for index, _elapsed, rc, problem, digest in loop.records:
        op = loop.ops[index]
        key = op["key"]
        expected = digests.get(key) if digests is not None else first_digest.setdefault(key, digest)
        reason = problem
        if reason is None and rc != op["rc"]:
            reason = f"exit code {rc}, expected {op['rc']}: {loop.stderr.get(key, '').strip()}"
        if reason is None and digest != expected:
            reason = f"stdout digest {digest[:12]} differs from {str(expected)[:12]}"
        if reason is None:
            reason = verdicts[key]
        if reason is not None:
            failed += 1
            if len(reasons) < MAX_REPORTED_FAILURES:
                reasons.append(f"{key}: {reason}")
    return failed, reasons


def timing_metrics(latencies: list[float], seconds: float) -> dict[str, tuple[float, str]]:
    return {
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.p90": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "ops_per_s": (len(latencies) / seconds, "1/s"),
    }


def environment(cli) -> dict:
    import numpy

    src = Path(cli.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "ocws_source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds from start after which no op starts")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    stop_at = _STARTED + args.budget
    signal.signal(signal.SIGALRM, on_alarm)

    # set-up: import, load the inputs, one warm-up op
    cli = import_cli(Path.cwd())
    manifest = json.loads(args.manifest.read_text())
    ops = manifest["ops"]
    for path in manifest["files"]:
        Path(path).read_bytes()
    warmup = execute(cli.main, manifest["warmup"])
    setup_wall_s = time.perf_counter() - _STARTED
    speed = statistics.median(speed_samples(5))
    result = {"setup_s": setup_wall_s * speed, "setup_wall_s": setup_wall_s,
              "attempted": 1, "failed": 0, "failures": []}
    if warmup["problem"] or warmup["rc"] != 0:
        result["failed"] = 1
        result["failures"].append(f"warm-up: {warmup['problem'] or warmup['stderr'][-400:]}")
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    rng = random.Random(f"order:{manifest['workload']}:{manifest['seed']}")
    digests = manifest.get("digests")
    untraced = Loop(cli.main, ops, stop_at)
    loops = [untraced]
    if args.trace:
        # Each order runs once untraced and once traced, the first of the
        # two alternating, so drift in machine speed and the first pass's
        # cold start cancel out of the overhead ratio.
        from spans import Tracer

        tracer = Tracer()
        traced = Loop(cli.main, ops, stop_at, tracer)
        loops.append(traced)
        wall = traced_wall = 0.0

        def run_traced(order: list[int]) -> float:
            tracer.install()
            try:
                return traced.run_pass(order)
            finally:
                tracer.uninstall()

        passes = shuffled_passes(ops, rng, args.seconds, stop_at, lambda: True)
        for number, order in enumerate(passes):
            if number % 2:
                traced_wall += run_traced(order)
                wall += untraced.run_pass(order)
            else:
                wall += untraced.run_pass(order)
                traced_wall += run_traced(order)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (wall / traced_wall, "ratio")
        args.result.with_name("spans.json").write_text(json.dumps(tracer.dump()))
    else:
        # Each pass is scaled by the kernel times taken right before and
        # right after it, so drift within the run is followed too.
        wall = scaled_wall = 0.0
        latencies: list[float] = []
        before = speed_samples(3)
        for order in shuffled_passes(ops, rng, args.seconds, stop_at,
                                     lambda: len(untraced.records) >= MIN_OPS):
            first = len(untraced.records)
            elapsed = untraced.run_pass(order)
            after = speed_samples(3)
            speed = statistics.median(before + after)
            before = after
            wall += elapsed
            scaled_wall += elapsed * speed
            latencies += [record[1] * speed for record in untraced.records[first:]]
        wall_latencies = [elapsed for _index, elapsed, *_rest in untraced.records]
        metrics = timing_metrics(latencies, scaled_wall)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result["wall_metrics"] = {name: value for name, (value, _unit) in
                                  timing_metrics(wall_latencies, wall).items()}
        result["speed_factor"] = scaled_wall / wall

    for loop in loops:
        failed, reasons = gate(loop, digests)
        result["attempted"] += len(loop.records)
        result["failed"] += failed
        result["failures"] += reasons
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result["samples"] = len(loops[-1].records)
    by_key: dict[str, list[float]] = {}
    for index, elapsed, *_rest in untraced.records:
        by_key.setdefault(ops[index]["key"], []).append(elapsed)
    result["median_s_by_op"] = {key: statistics.median(v) for key, v in sorted(by_key.items())}
    result["env"] = environment(cli)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
