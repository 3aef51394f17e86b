"""Batch command-line front-end.

Subcommands:

* ``classify`` — write the classification report; the exit code encodes
  the category (0 exponential-error, 1 polynomial-error,
  2 non-extractable) so corpus sweeps can branch in shell.
* ``extract``  — sample a sequence under a chosen adversary strategy and
  run one of the extractors over it, optionally with a CSV transcript.
* ``bias``     — exact worst-case bias of an extractor for a range of
  sample counts, as CSV.
* ``bench``    — wall-time medians of the naive vs fast multi-bit
  implementations over an (n, m) grid.

Numeric flags accept exact "p/q" strings.  Parse and validation failures
exit 64; cost-guard refusals exit 65.  Identical inputs and seed produce
byte-identical output files (``bench`` reports wall times, which are
measurements and necessarily vary).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import statistics
import sys
import time

from . import extractors as ex
from .classify import Category, classify, mvr_witness
from .errors import GsvError, GuardError, SpecFormatError
from .fastmultibit import FastMultibitState, multibit_extract_fast
from .model import SourceSpec, Strategy, Witness, rat, rat_str, sample_sequence, validate_source
from .oracle import ExtractorTable, exact_extremes
from .presets import load_source

EXIT_PARSE = 64
EXIT_GUARD = 65

EXTRACTOR_NAMES = ("threshold", "bit-exp", "multibit-naive", "multibit-fast")


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_validated(name: str) -> SourceSpec:
    spec = load_source(name)
    report = validate_source(spec)
    if not report.ok:
        lines = [f"invalid source {name}:"]
        lines += [f"  {v.code}: {v.detail}" for v in report.violations]
        raise SpecFormatError("\n".join(lines))
    return spec


def _auto_witness(spec: SourceSpec, report, epsilon) -> Witness:
    if report.category is Category.EXP_ERROR:
        return report.nk_plus_witness
    return mvr_witness(spec, epsilon)


def _resolve_strategy(spec: SourceSpec, arg: str, table: ExtractorTable | None) -> Strategy:
    if arg == "worst-case":
        if table is None:
            raise SpecFormatError("worst-case strategy needs a concrete extractor")
        return exact_extremes(spec, table).max_strategy
    if arg.startswith("constant:"):
        die = int(arg.split(":", 1)[1])
        if not 0 <= die < spec.num_dice:
            raise SpecFormatError(f"constant strategy die {die} out of range")
        return Strategy.constant(die)
    with open(arg, encoding="utf-8") as fh:
        tree = json.load(fh)
    return Strategy.from_tree(tree, spec.face_labels)


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


# --------------------------------------------------------------------------


def cmd_classify(args) -> int:
    try:
        spec = _load_validated(args.source)
    except (SpecFormatError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        report = classify(spec)
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARD
    _write(args.out, report.to_json())
    return {
        Category.EXP_ERROR: 0,
        Category.POLY_ERROR: 1,
        Category.NON_EXTRACTABLE: 2,
    }[report.category]


def _run_with_transcript(name: str, psi: Witness, epsilon, faces, m: int):
    """Run an extractor step by step; returns (bits, transcript rows)."""
    rows = []
    values = psi.values
    if name == "threshold":
        state = ex.ThresholdState.initial(ex.threshold_bound_m(epsilon))
        for i, face in enumerate(faces, start=1):
            state = ex.threshold_step(state, values[face])
            rows.append((i, face, rat_str(values[face]), rat_str(state.z)))
        return ("1" if state.z >= 0 else "0"), rows
    if name == "bit-exp":
        state = ex.BitExpState()
        for i, face in enumerate(faces, start=1):
            state = ex.bit_exp_step(state, values[face])
            rows.append((i, face, rat_str(values[face]), rat_str(state.z)))
        return ("1" if state.z >= 0 else "0"), rows
    if name == "multibit-naive":
        state = ex.MultiBitState.initial(m)
        for i, face in enumerate(faces, start=1):
            state = ex.multibit_step_naive(state, values[face])
            rows.append((i, face, rat_str(values[face]), rat_str(state.z[state.order[-1]])))
        return ex.encode_index(state.winner(), m), rows
    if name == "multibit-fast":
        state = FastMultibitState(m)
        for i, face in enumerate(faces, start=1):
            state.advance(values[face])
            rows.append((i, face, rat_str(values[face]), rat_str(state.top_value())))
        return ex.encode_index(state.winner(), m), rows
    raise SpecFormatError(f"unknown extractor {name!r}; pick from {EXTRACTOR_NAMES}")


def cmd_extract(args) -> int:
    try:
        spec = _load_validated(args.source)
    except (SpecFormatError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    report = classify(spec)
    if report.category is Category.NON_EXTRACTABLE:
        print("source is non-extractable", file=sys.stderr)
        return 2
    epsilon = rat(args.epsilon)
    try:
        psi = _auto_witness(spec, report, epsilon)
        table = None
        if args.strategy == "worst-case":
            fast = args.extractor == "multibit-fast"
            if args.extractor == "threshold":
                table = ExtractorTable.for_threshold(psi, epsilon, args.n)
            elif args.extractor == "bit-exp":
                table = ExtractorTable.for_bit_exp(psi, args.n)
            else:
                table = ExtractorTable.for_multibit(psi, args.n, args.m, fast=fast)
        strategy = _resolve_strategy(spec, args.strategy, table)
        faces = sample_sequence(spec, strategy, args.n, args.seed)
        bits, rows = _run_with_transcript(args.extractor, psi, epsilon, faces, args.m)
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARD
    except (GsvError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    doc = {
        "bits": bits,
        "extractor": args.extractor,
        "n": args.n,
        "seed": args.seed,
        "witness": psi.to_jsonable(),
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    if args.transcript:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("step", "face", "psi_value", "z_summary"))
        writer.writerows(rows)
        _write(args.transcript, buf.getvalue())
    return 0


def cmd_bias(args) -> int:
    try:
        spec = _load_validated(args.source)
    except (SpecFormatError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    epsilon = rat(args.epsilon)
    rows: list[tuple[int, str]] = []
    try:
        if args.extractor in EXTRACTOR_NAMES:
            report = classify(spec)
            if report.category is Category.NON_EXTRACTABLE:
                print("source is non-extractable; no witness to run", file=sys.stderr)
                return 2
            psi = _auto_witness(spec, report, epsilon)
            for n in _parse_range(args.n):
                if args.extractor == "threshold":
                    table = ExtractorTable.for_threshold(psi, epsilon, n)
                elif args.extractor == "bit-exp":
                    table = ExtractorTable.for_bit_exp(psi, n)
                else:
                    table = ExtractorTable.for_multibit(
                        psi, n, args.m, fast=args.extractor == "multibit-fast"
                    )
                if table.output_kind != "pm1":
                    raise SpecFormatError("bias sweeps need a single-bit extractor")
                rows.append((n, rat_str(exact_extremes(spec, table).bias)))
        else:
            with open(args.extractor, encoding="utf-8") as fh:
                doc = json.load(fh)
            table = ExtractorTable.from_outputs(
                int(doc["n"]), spec.num_faces, [int(x) for x in doc["outputs"]]
            )
            rows.append((table.n, rat_str(exact_extremes(spec, table).bias)))
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARD
    except (GsvError, OSError, ValueError, KeyError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "bias"))
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


def cmd_bench(args) -> int:
    try:
        spec = _load_validated(args.source)
        report = classify(spec)
        psi = _auto_witness(spec, report, rat(args.epsilon))
    except (GsvError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    ns = _parse_range(args.n)
    ms = _parse_range(args.m)
    reps = max(args.reps, 1)
    rows = []
    for n in ns:
        faces = sample_sequence(spec, Strategy.constant(0), n, args.seed)
        for m in ms:
            impls = [("fast", lambda: multibit_extract_fast(psi, faces, m))]
            if args.mode == "comparative":
                impls.insert(
                    0, ("naive", lambda: ex.multibit_extract_naive(psi, faces, m))
                )
            for name, run in impls:
                times = []
                for _ in range(reps):
                    t0 = time.perf_counter()
                    run()
                    times.append(time.perf_counter() - t0)
                rows.append((name, n, m, f"{statistics.median(times):.6f}", reps))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("impl", "n", "m", "median_seconds", "reps"))
    writer.writerows(rows)
    _write(args.out, buf.getvalue())
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsvkit",
        description="Classify generalized SV source types and run their extractors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--source", required=True,
                       help="source JSON path or preset (e1, e2, fair-coin, hidden-sv, sv:<delta>)")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("classify", help="write the classification report")
    add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("extract", help="sample a sequence and extract bits")
    add_common(p)
    p.add_argument("--extractor", default="bit-exp", help="|".join(EXTRACTOR_NAMES))
    p.add_argument("--n", type=int, default=32, help="number of samples")
    p.add_argument("--m", type=int, default=1, help="output bits (multibit extractors)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="1/16", help="target error, a p/q string")
    p.add_argument("--strategy", default="constant:0",
                   help='"worst-case", "constant:<die>", or a strategy tree JSON path')
    p.add_argument("--transcript", default=None, help="write a step CSV here")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("bias", help="exact worst-case bias over a range of n")
    add_common(p)
    p.add_argument("--extractor", default="bit-exp",
                   help="builtin extractor name or an extractor table JSON path")
    p.add_argument("--n", default="1..8", help='range "lo..hi" or comma list')
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--epsilon", default="1/16")
    p.set_defaults(fn=cmd_bias)

    p = sub.add_parser("bench", help="naive vs fast multibit timings")
    p.add_argument("--source", default="fair-coin")
    p.add_argument("--out", default=None)
    p.add_argument("--n", default="200")
    p.add_argument("--m", default="14")
    p.add_argument("--mode", choices=("comparative", "fast-only"), default="comparative")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="1/16")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
