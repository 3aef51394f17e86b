"""One workload in one fresh process: set up, time, trace, check.

Started by ``run.py``; not meant to be run by hand.  The process imports
gsvkit from the checkout's ``src``, writes and validates the workload's
inputs, prints ``ready`` (``run.py`` times set-up up to that line), and
unless ``--setup-only`` is given, runs the job list in a closed loop:
one client, no threads, the next job starting when the previous one
returns.  CLI jobs call ``gsvkit.cli.main(argv)`` in-process; oracle jobs
call the public oracle functions.  Results go to the ``--result`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import checks
import workloads
from tracer import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAIVE_CHECK_WIDTH = 10  # fast and naive multi-bit are compared up to this m


def import_gsvkit():
    sys.path.insert(0, SRC)
    import gsvkit
    import gsvkit.cli

    if not os.path.abspath(gsvkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gsvkit was imported from {gsvkit.__file__}, not from {SRC}")
    return gsvkit


class Workload:
    """The generated inputs of one workload, written out and validated."""

    def __init__(self, gsv, name: str, seed: int, workdir: str):
        self.gsv = gsv
        sources, self.jobs = workloads.build(name, seed)
        self.digest = workloads.joblist_digest(sources, self.jobs)
        self.workdir = workdir
        self.transcript = os.path.join(workdir, "transcript.csv")
        os.makedirs(workdir, exist_ok=True)
        self.paths = {}
        for src_name, text in sources.items():
            path = os.path.join(workdir, f"{src_name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[src_name] = path
        self.specs = {}
        for job in self.jobs:
            ref = self.source_of(job)
            if ref not in self.specs:
                spec = gsv.load_source(self.resolve(ref))
                report = gsv.validate_source(spec)
                if not report.ok:
                    raise SystemExit(f"generated source {ref} is invalid: {report.violations}")
                self.specs[ref] = spec

    def resolve(self, arg: str) -> str:
        if arg == "@transcript":
            return self.transcript
        return self.paths[arg[1:]] if arg.startswith("@") else arg

    def source_of(self, job) -> str:
        return job.get("source") or job["cli"][job["cli"].index("--source") + 1]

    def dice(self, job) -> list[list[Fraction]]:
        return [list(d.probs) for d in self.specs[self.source_of(job)].dice]

    # -- running ----------------------------------------------------------

    def run_cli(self, argv: list[str]):
        """(exit code or None if it raised, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        main = self.gsv.cli.main
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a job that raises is a failed job, not a crash
            code = None
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue(), perf_counter() - start

    def _table(self, job):
        g = self.gsv
        psi = g.Witness(job["psi"], "NK")
        if "m" in job:
            return g.ExtractorTable.for_multibit(psi, job["n"], job["m"])
        return g.ExtractorTable.for_bit_exp(psi, job["n"])

    def run_api(self, job, earlier: dict):
        """(result or None if it raised, error text, seconds)."""
        g = self.gsv
        start = perf_counter()
        try:
            spec = g.load_source(self.resolve(job["source"]))
            table = self._table(job)
            if job["api"] == "greedy_plus_strategy":
                result = g.oracle.greedy_plus_strategy(spec, table, job["epsilon"])
            elif job["api"] == "output_distribution":
                result = g.oracle.output_distribution(spec, earlier[job["strategy_of"]], table)
            else:
                result = g.oracle.exact_multibit_error(spec, table)
            error = ""
        except Exception:
            result, error = None, traceback.format_exc()
        return result, error, perf_counter() - start

    def api_bytes(self, job, result) -> bytes:
        if job["api"] == "greedy_plus_strategy":
            spec = self.specs[job["source"]]
            return json.dumps(result.to_tree(spec, job["n"]), sort_keys=True).encode()
        if job["api"] == "output_distribution":
            return "".join(f"{k}\t{v}\n" for k, v in sorted(result.items())).encode()
        return f"{result}\n".encode()

    def run_pass(self, tracer: Tracer | None = None) -> list[dict]:
        """Run every job once, in order; returns one record per job."""
        records, earlier = [], {}
        for job in self.jobs:
            if tracer:
                tracer.begin_job(job["id"])
            if "cli" in job:
                argv = [self.resolve(a) for a in job["cli"]]
                code, out, err, seconds = self.run_cli(argv)
                data = out.encode()
                if "--transcript" in argv and code == 0:
                    with open(self.transcript, "rb") as fh:
                        data += fh.read()
                ok = code in (0, 1, 2) if job["exit"] == "category" else code == job["exit"]
                rec = {"code": code, "ok": ok, "seconds": seconds, "stdout": out, "err": err,
                       "bytes": data}
            else:
                result, err, seconds = self.run_api(job, earlier)
                earlier[job["id"]] = result
                ok = result is not None
                rec = {"code": 0 if ok else None, "ok": ok, "seconds": seconds, "err": err,
                       "result": result, "bytes": b""}
            if tracer:
                tracer.end_job(len(rec["bytes"]) if "cli" in job else 0)
            records.append(rec)
        return records

    def serialize_api_results(self, records: list[dict]) -> None:
        """Fill in the output bytes of oracle jobs, outside any timing."""
        for job, rec in zip(self.jobs, records):
            if "api" in job and rec["ok"]:
                rec["bytes"] = self.api_bytes(job, rec["result"])

    # -- checking ---------------------------------------------------------

    def check(self, records: list[dict]) -> dict[str, list[str]]:
        """Seed-independent output checks; job id -> problems."""
        problems: dict[str, list[str]] = {}
        for job, rec in zip(self.jobs, records):
            if not rec["ok"]:
                continue
            try:
                found = self._check_one(job, rec)
            except Exception:
                found = ["check raised:\n" + traceback.format_exc()]
            if found:
                problems[job["id"]] = found
        return problems

    def _check_one(self, job, rec) -> list[str]:
        if "api" in job:
            return self._check_api(job, rec)
        argv = job["cli"]
        dice = self.dice(job)
        if argv[0] == "classify":
            return checks.check_classify(dice, job["family"], rec["code"], rec["stdout"])
        if argv[0] == "bias":
            return self._check_bias(job, rec["stdout"])
        transcript = rec["bytes"][len(rec["stdout"].encode()):].decode() \
            if "--transcript" in argv else None
        found = checks.check_extract(dice, argv, rec["stdout"], transcript)
        args = dict(zip(argv[1::2], argv[2::2]))
        if args["--extractor"].startswith("multibit") and int(args["--m"]) <= NAIVE_CHECK_WIDTH:
            other = "multibit-naive" if args["--extractor"] == "multibit-fast" else "multibit-fast"
            twin = [other if a == args["--extractor"] else a for a in argv]
            if "--transcript" in twin:
                cut = twin.index("--transcript")
                twin = twin[:cut] + twin[cut + 2:]
            code, out, _err, _s = self.run_cli([self.resolve(a) for a in twin])
            if code != 0 or json.loads(out)["bits"] != json.loads(rec["stdout"])["bits"]:
                found.append(f"{other} disagrees with {args['--extractor']}")
        return found

    def _witness_for(self, spec, epsilon):
        g = self.gsv
        report = g.classify(spec)
        if report.category is g.Category.EXP_ERROR:
            return report.nk_plus_witness
        return g.mvr_witness(spec, epsilon)

    def _check_bias(self, job, text: str) -> list[str]:
        """Recompute each row's extremes and confirm them with the exact
        output distributions under the returned strategies."""
        g = self.gsv
        args = dict(zip(job["cli"][1::2], job["cli"][2::2]))
        spec = self.specs[args["--source"]]
        eps = Fraction(args["--epsilon"])
        psi = self._witness_for(spec, eps)
        rows = checks.bias_rows(text)
        lo, hi = (int(x) for x in args["--n"].split(".."))
        if [n for n, _ in rows] != list(range(lo, hi + 1)):
            return ["bias rows do not cover the requested range"]
        for n, bias in rows:
            if args["--extractor"] == "threshold":
                table = g.ExtractorTable.for_threshold(psi, eps, n)
            else:
                table = g.ExtractorTable.for_bit_exp(psi, n)
            rep = g.exact_extremes(spec, table)
            if rep.bias != bias or bias != max(abs(rep.max_expectation), abs(rep.min_expectation)):
                return [f"n={n}: bias {bias} disagrees with exact_extremes"]
            for strategy, want in ((rep.max_strategy, rep.max_expectation),
                                   (rep.min_strategy, rep.min_expectation)):
                dist = g.output_distribution(spec, strategy, table)
                if sum(dist.values()) != 1 or sum(k * p for k, p in dist.items()) != want:
                    return [f"n={n}: output_distribution disagrees with the extremes"]
        return []

    def _check_api(self, job, rec) -> list[str]:
        g = self.gsv
        spec = self.specs[job["source"]]
        table = self._table(job)
        result = rec["result"]
        if job["api"] == "greedy_plus_strategy":
            return []  # its tree is pinned by digest; its distribution is checked next
        if job["api"] == "output_distribution":
            if sum(result.values()) != 1 or set(result) - {1, -1}:
                return ["distribution does not sum to one over {+1, -1}"]
            rep = g.exact_extremes(spec, table)
            mean = sum(k * p for k, p in result.items())
            if not rep.min_expectation <= mean <= rep.max_expectation:
                return ["greedy expectation lies outside the exact extremes"]
            return []
        if not 0 <= result <= Fraction(1, 2):
            return [f"multi-bit error {result} outside [0, 1/2]"]
        for die in range(spec.num_dice):
            dist = g.output_distribution(spec, g.Strategy.constant(die), table)
            tv = sum(abs(dist.get(k, 0) - Fraction(1, 2)) for k in (0, 1)) / 2
            if tv > result:
                return [f"constant:{die} beats the reported worst case"]
        return []


def _percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at
    least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed(work: Workload, seconds: float) -> dict:
    """Whole passes in a closed loop until ``seconds`` have gone by."""
    # Only the first pass keeps its outputs; later passes keep (seconds,
    # ok, output digest) per job, so memory does not grow with the passes.
    start = perf_counter()
    first, passes = None, []
    while not passes or perf_counter() - start < seconds:
        records = work.run_pass()
        work.serialize_api_results(records)
        passes.append([(r["seconds"], r["ok"], _digest(r["bytes"])) for r in records])
        if first is None:
            first = records
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = work.check(first)
    for summary in passes[1:]:
        for job, a, b in zip(work.jobs, passes[0], summary):
            if a[1] and b[1] and a[2] != b[2]:
                problems.setdefault(job["id"], []).append("output bytes differ between passes")
    failed_ids = sorted({job["id"] for summary in passes
                         for job, (_s, ok, _d) in zip(work.jobs, summary) if not ok}
                        | set(problems))
    attempted = len(work.jobs) * len(passes)
    failed = sum(1 for summary in passes for job, (_s, ok, _d) in zip(work.jobs, summary)
                 if not ok or job["id"] in problems)
    # Per-job medians over the passes: the machine's speed drifts by tens
    # of percent over seconds, and a median of passes rejects the drift
    # that a single pass or a mean would carry into every metric.
    medians = [statistics.median(summary[k][0] for summary in passes)
               for k in range(len(work.jobs))]
    ok = [job["id"] not in failed_ids for job in work.jobs]
    # a failed job misses any latency limit
    per_job = [m if good else math.inf for m, good in zip(medians, ok)]
    tail, tail_pct = _percentile_tail(per_job)
    if math.isinf(tail):
        tail = perf_counter() - start
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": {i: _failure_text(work, first, i, problems) for i in failed_ids},
        "problems": problems,
        "metrics": {
            "jobs_per_s": sum(ok) / sum(medians),
            "job_p50_ms": 1000 * statistics.median(per_job),
            "job_tail_ms": 1000 * tail,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        },
        "tail": {"percentile": tail_pct, "jobs": len(per_job)},
        "job_seconds": {job["id"]: [summary[k][0] for summary in passes]
                        for k, job in enumerate(work.jobs)},
        "fail_ratio": failed / attempted,
        "digests": {job["id"]: digest for job, (_s, good, digest) in zip(work.jobs, passes[0])
                    if good},
    }


def _failure_text(work: Workload, records, job_id: str, problems) -> str:
    if job_id in problems:
        return "; ".join(problems[job_id])
    k = next(i for i, job in enumerate(work.jobs) if job["id"] == job_id)
    rec = records[k]
    last = (rec["err"].strip().splitlines() or [""])[-1]
    return f"exit {rec['code']}: {last[:200]}"


def traced(work: Workload, tracer: Tracer, spans_path: str) -> dict:
    """One untraced pass, then the same pass traced; per-layer metrics."""
    start = perf_counter()
    work.run_pass()
    untraced_s = perf_counter() - start
    tracer.install()
    try:
        start = perf_counter()
        records = work.run_pass(tracer)
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    work.serialize_api_results(records)
    problems = work.check(records)
    failed_ids = sorted({job["id"] for job, rec in zip(work.jobs, records) if not rec["ok"]}
                        | set(problems))
    return {
        "passes": 1,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "attempted": len(work.jobs),
        "failed": len(failed_ids),
        "failed_jobs": {i: _failure_text(work, records, i, problems) for i in failed_ids},
        "problems": problems,
        "metrics": tracer.metrics(traced_s - untraced_s),
        "digests": {job["id"]: _digest(rec["bytes"])
                    for job, rec in zip(work.jobs, records) if rec["ok"]},
        "spans": len(tracer.span_start),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.environ.pop("GSV_TREE_GUARD", None)  # run.py reports it; never let it pick jobs

    gsv = import_gsvkit()
    tracer = Tracer(gsv) if args.trace else None
    if tracer:  # set-up validation is part of the model layer's trace
        tracer.install()
        tracer.begin_job("setup")
    try:
        work = Workload(gsv, args.workload, args.seed, args.workdir)
    finally:
        if tracer:
            tracer.end_job(0)
            tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        spans_path = os.path.join(args.workdir, "spans.tsv")
        result = traced(work, tracer, spans_path)
        result["spans_file"] = spans_path
        result["units"] = dict(PER_LAYER)
    else:
        result = timed(work, args.seconds)
    result["joblist_digest"] = work.digest
    result["jobs"] = len(work.jobs)
    result["python"] = sys.version.split()[0]
    result["int_max_str_digits"] = sys.get_int_max_str_digits()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
