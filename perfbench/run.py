"""gsvkit benchmark: seeded CLI and oracle workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass; the last line is the JSON result.  The exit
code is nonzero when an output check fails.  ``--repin`` rewrites
``pinned.json`` (the default seed's output digests) after a deliberate
change to the workloads.  README.md describes the workloads, metrics and
checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

PINNED = os.path.join(HERE, "pinned.json")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 160
E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# Ambient settings that would change which jobs run or how they fail.
SCRUBBED_ENV = ("GSV_TREE_GUARD", "PYTHONINTMAXSTRDIGITS")


class BenchError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ``ready`` line; (set-up seconds, proc)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1))
    line = proc.stdout.readline() if readable else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc, time.monotonic())
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return setup, proc


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    """Wait for a worker until the deadline; a worker still running on
    any way out of here is killed and reaped."""
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def source_digest() -> str:
    src = os.path.join(ROOT, "src", "gsvkit")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                setup, proc = _spawn([*common, "--setup-only"], deadline)
                _finish(proc, deadline)
                setups.append(setup)
        result_path = os.path.join(workdir, "result.json")
        _setup, proc = _spawn([*common, "--seconds", str(seconds), "--trace", str(trace),
                               "--result", result_path], deadline)
        _finish(proc, deadline)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if trace:
            keep = os.path.join(ROOT, ".bench_work", f"spans-{workload}-{seed}.tsv")
            shutil.move(result["spans_file"], keep)
            result["spans_file"] = os.path.relpath(keep, ROOT)
        else:
            result["metrics"]["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_pins(workload: str, seed: int, result: dict) -> list[str]:
    """Compare the default seed's job list and output bytes with the pins."""
    if seed != workloads.DEFAULT_SEED:
        return []
    with open(PINNED, encoding="utf-8") as fh:
        pin = json.load(fh)[workload]
    if pin["joblist_digest"] != result["joblist_digest"]:
        return ["job list digest differs from the pinned one"]
    return [f"{job}: output bytes differ from the pinned digest"
            for job, digest in result["digests"].items()
            if job in pin["outputs"] and pin["outputs"][job] != digest]


def repin() -> int:
    pins = {}
    for workload in workloads.WORKLOADS:
        result = run_workload(workload, workloads.DEFAULT_SEED, 0, 0)
        if result["problems"]:
            print(f"{workload}: output checks failed, not pinning", file=sys.stderr)
            return 1
        pins[workload] = {"joblist_digest": result["joblist_digest"],
                          "outputs": result["digests"]}
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def report(workload: str, seed: int, trace: int, result: dict, env_notes: list[str]) -> bool:
    """Print the human-readable report; returns whether every check passed."""
    problems = dict(result["problems"])
    pin_problems = check_pins(workload, seed, result)
    if pin_problems:
        problems["pins"] = pin_problems
    env = {
        "python": result["python"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest()[:16],
        "seed": seed,
        "int_max_str_digits": result["int_max_str_digits"],
        "joblist_sha256": result["joblist_digest"][:16],
        "jobs": result["jobs"],
        "passes": result["passes"],
    }
    print(f"# workload {workload} trace={trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in env_notes:
        print(f"# {note}")
    if trace:
        print(f"# traced pass {result['traced_s']:.3f} s, untraced {result['untraced_s']:.3f} s, "
              f"{result['spans']} spans in {result['spans_file']}")
        for name, unit in PER_LAYER:
            print(f"{name:44s} {result['metrics'][name]:.6g} {unit}")
    else:
        for name, unit in E2E_UNITS.items():
            print(f"{name:12s} {result['metrics'][name]:.6g} {unit}")
        print(f"{'job_tail_ms':12s} is p{result['tail']['percentile']:.1f} "
              f"of {result['tail']['jobs']} per-job medians over {result['passes']} passes")
        print(f"{'fail_ratio':12s} {result['fail_ratio']:.6g} "
              f"({result['failed']}/{result['attempted']} job runs)")
    for job_id, why in sorted(result["failed_jobs"].items()):
        print(f"# failed job {job_id}: {why}")
    for key, found in sorted(problems.items()):
        for text in found:
            print(f"# CHECK FAILED {key}: {text}", file=sys.stderr)
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser(description="gsvkit benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true", help="rewrite pinned.json and exit")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gsvkit", "__init__.py")):
        print(f"no gsvkit sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    env_notes = []
    for var in SCRUBBED_ENV:
        if os.environ.pop(var, None) is not None:
            env_notes.append(f"unset {var} from the environment for this run")
    if args.repin:
        return repin()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = report(args.workload, args.seed, args.trace, result, env_notes)
    names = [n for n, _ in PER_LAYER] if args.trace else list(E2E_UNITS)
    units = dict(PER_LAYER) if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
