"""Run one workload of the ocws benchmark and print its metrics.

    python3 perfbench/run.py --workload search-exact --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout that holds `src/ocws`.  It writes the
workload's inputs for the seed, times set-up in fresh interpreters, runs
the workload closed-loop in one more fresh interpreter and checks every
output.  This process never imports ocws: it runs a reference kernel on
the worker's request, so the end-to-end times can be scaled to a
reference speed by a clock that nothing ocws leaves behind can slow.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
runs the same ops once untraced and once with spans recorded, and reports
the per-layer metrics.

A summary goes to stderr and the full record, spans included, to
perfbench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
# The run ends within RUN_MARGIN_S + 2 * seconds.  The timed phase takes
# `seconds` and at most one more pass; the margin covers the set-up probes,
# the gate and the last op's timeout, which the worker's budget leaves room for.
RUN_MARGIN_S = 130.0
GATE_RESERVE_S = 10.0
# Pin every BLAS and OpenMP pool to one thread, in the measured process and here.
SINGLE_THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def python_kernel() -> None:
    """60,000 rounds of shift, xor and popcount on one integer."""
    x = 0x9E3779B97F4A7C15
    total = 0
    for _ in range(60000):
        x ^= (x << 7) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 9
        total += (x & 0xFF).bit_count()


def numpy_kernel() -> None:
    """39 sign-flipped gathers and complex products of a 32 x 1024 basis."""
    import numpy as np

    dim = 1024
    idx = np.arange(dim, dtype=np.uint32)
    phase = np.arange(32 * dim) * 0.001
    basis = (np.cos(phase) + 1j * np.sin(2 * phase)).reshape(32, dim)
    for q in range(1, 40):
        signs = 1.0 - 2.0 * ((idx & np.uint32(q * 37 % dim)) & 1)
        moved = basis[:, idx ^ np.uint32(q)] * signs
        np.abs(np.conj(basis) @ moved.T).max()


# Reference kernels, none of which uses ocws, with their median times on
# the 2-CPU machine of the baseline.  Each workload is scaled by the kernel
# whose speed its ops follow: the dense oracle spends its time in numpy,
# the other workloads in the interpreter.  Over ten seeds of oracle-dense,
# the numpy kernel left half the spread in p50 that the Python one did.
KERNELS = {"python": (python_kernel, 0.020), "numpy": (numpy_kernel, 0.025)}
KERNEL_OF = {"search-exact": "python", "search-greedy": "python", "gf2-verify": "python",
             "oracle-dense": "numpy"}


def speed_samples(kernel: str, count: int) -> list[float]:
    """Reference time over measured time, for `count` runs of the kernel."""
    run, reference_s = KERNELS[kernel]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        run()
        samples.append(reference_s / (time.perf_counter() - start))
    return samples


def _worker(root: Path, manifest: Path, result: Path, seconds: int, deadline: float,
            kernel: str, *flags: str) -> dict:
    """Run worker.py in a fresh interpreter and return its result record.

    The worker writes a count and a CPU number to its stdout when it wants
    speed samples; this process runs the reference kernel that many times
    on that CPU and writes the samples back on the worker's stdin, while the
    worker waits.
    """
    budget = deadline - time.monotonic() - worker.OP_TIMEOUT_S - GATE_RESERVE_S
    command = [sys.executable, str(HERE / "worker.py"), str(manifest), str(result),
               "--seconds", str(seconds), "--budget", f"{budget:.3f}", *flags]
    log = result.with_suffix(".stderr")
    with open(log, "w") as stderr, subprocess.Popen(
            command, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=stderr, text=True) as process:
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not select.select([process.stdout], [], [], remaining)[0]:
                    raise RuntimeError("worker passed the run's deadline")
                request = process.stdout.readline()
                if not request:
                    break
                count, cpu = request.split()
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {int(cpu)})
                try:
                    samples = speed_samples(kernel, int(count))
                finally:
                    os.sched_setaffinity(0, allowed)
                process.stdin.write(json.dumps(samples) + "\n")
                process.stdin.flush()
            process.wait(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
    if process.returncode != 0 or not result.exists():
        raise RuntimeError(f"worker exited with {process.returncode}: "
                           f"{log.read_text().strip()[-2000:]}")
    return json.loads(result.read_text())


def _summary(args, record: dict, metrics: dict) -> None:
    env = record["env"]
    lines = [
        f"ocws benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        "environment: " + " ".join(f"{key}={value}" for key, value in env.items()),
        f"ops: attempted={record['attempted']} failed={record['failed']} "
        f"fail_ratio={record['failed'] / record['attempted']:.4f} "
        f"timed_samples={record['samples']}",
    ]
    wall = record.get("wall_metrics", {})
    lines += [f"  {name:<26} {m['value']:.6g} {m['unit']}"
              + (f"  (wall clock {wall[name]:.6g})" if name in wall else "")
              for name, m in metrics.items()]
    lines += [f"  FAILED {reason}" for reason in record["failures"]]
    print("\n".join(lines), file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    deadline = time.monotonic() + RUN_MARGIN_S + 2 * args.seconds
    os.environ.update(SINGLE_THREAD_ENV)  # for the worker and for the numpy kernel here
    root = Path.cwd().resolve()
    if not (root / "src" / "ocws" / "cli.py").is_file():
        return _fail(f"no src/ocws/cli.py under {root}; run from the root of an ocws checkout")

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    outdir = HERE / "out"
    try:
        manifest = workloads.generate(args.workload, args.seed, root, workdir)
        expected_path = HERE / "expected.json"
        expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
        manifest["digests"] = expected.get(args.workload, {}).get(str(args.seed))
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))

        kernel = KERNEL_OF[args.workload]
        speed_samples(kernel, 1)  # imports and first-run costs stay out of the samples
        probes = []
        if not args.trace:
            for probe in range(SETUP_PROBES):
                probes.append(_worker(root, manifest_path, workdir / f"setup{probe}.json",
                                      args.seconds, deadline, kernel, "--setup-only"))
        flags = ("--trace",) if args.trace else ()
        record = _worker(root, manifest_path, workdir / "result.json", args.seconds, deadline,
                         kernel, *flags)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired, OSError) as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        return _fail(str(exc))

    metrics = record["metrics"]
    if not args.trace:
        probes.append(record)
        metrics["setup_s"] = {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}
        record["wall_metrics"]["setup_s"] = statistics.median(p["setup_wall_s"] for p in probes)
        record["setup_samples_s"] = [p["setup_s"] for p in probes]
        record["attempted"] += SETUP_PROBES
        record["failed"] += sum(p["failed"] for p in probes[:-1])
        record["failures"] = [f for p in probes[:-1] for f in p["failures"]] + record["failures"]
    record["env"] = {"commit": _commit(root), **record["env"]}

    outdir.mkdir(exist_ok=True)
    spans = workdir / "spans.json"
    if spans.exists():
        shutil.move(str(spans), outdir / f"{name}.spans.json")
    (outdir / f"{name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    _summary(args, record, metrics)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
