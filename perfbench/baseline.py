"""Run every workload on ten seeds and write perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Each workload runs for BENCHMARK.json's
run_seconds once per seed (1-9 and the held-out seed) with tracing off,
then once with tracing on at the default seed.  For every
end-to-end metric the record holds each run's value, the median, the
quartiles and the spread (quartile distance over the median), and the table
printed at the end sets each spread against the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = [*range(1, 10), workloads.HELD_OUT_SEED]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=2 * seconds + 180)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(command)} reported failed ops:\n{done.stderr}")
    return result


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record: dict = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    table = []
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                file=sys.stderr, flush=True)
        end_to_end = {}
        for name, runs in values.items():
            q1, median, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                                "spread": spread, "runs": runs}
            table.append(f"{workload:14} {name:14} median={median:<10.4g} spread={spread:.3f} "
                         f"bound={bounds.get(name)}")
        traced = run(workload, workloads.DEFAULT_SEED, seconds, 1)
        env = json.loads((HERE / "out" / f"{workload}-s{SEEDS[-1]}-t0.json").read_text())["env"]
        record["env"] = env
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    print("\n".join(table), file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
