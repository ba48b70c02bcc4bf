"""Pin the stdout digest of every op for the default and the held-out seed.

    python3 perfbench/pin.py

Run from the root of a checkout whose output is trusted (the commit that
defined the benchmark).  Each op runs once and must pass the same checks as
in a benchmark run before its digest is written to perfbench/expected.json.
A later commit that changes a byte of CLI output then fails the gate on
these seeds; any other seed is checked for determinism within the run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import sys
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd().resolve()
    cli = worker.import_cli(root)
    signal.signal(signal.SIGALRM, worker.on_alarm)
    pinned: dict[str, dict[str, dict[str, str]]] = {}
    problems = []
    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            workdir = HERE / "work" / f"pin-{workload}-s{seed}"
            try:
                manifest = workloads.generate(workload, seed, root, workdir)
                digests = {}
                for op in manifest["ops"]:
                    result = worker.execute(cli.main, op["argv"])
                    reason = result["problem"]
                    if reason is None and result["rc"] != op["rc"]:
                        reason = f"exit code {result['rc']}: {result['stderr'].strip()}"
                    if reason is None:
                        reason = worker.check_output(op, result["stdout"])
                    if reason is not None:
                        problems.append(f"{workload} seed {seed} {op['key']}: {reason}")
                    digests[op["key"]] = hashlib.sha256(result["stdout"].encode()).hexdigest()
                pinned.setdefault(workload, {})[str(seed)] = digests
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
