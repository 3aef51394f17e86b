"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --seconds 12 --seeds 10 [--workload NAME ...]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
each metric's median, quartiles and spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles).
The regression bounds in BENCHMARK.json were set from this spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description="seed-to-seed spread of the benchmark")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    summary = {}
    for workload in args.workload or workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in last["metrics"].items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[f"{workload}/{name}"] = {"median": med, "q1": q1, "q3": q3,
                                             "spread": spread, "values": vals}
            print(f"{workload:16s} {name:12s} median {med:10.4g}  q1 {q1:10.4g}  "
                  f"q3 {q3:10.4g}  spread {spread:.3f}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
