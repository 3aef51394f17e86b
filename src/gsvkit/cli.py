"""Batch command-line front-end.

Subcommands:

* ``classify`` — write the classification report; the exit code encodes
  the category (0 exponential-error, 1 polynomial-error,
  2 non-extractable) so corpus sweeps can branch in shell.
* ``extract``  — sample a sequence under a chosen adversary strategy and
  run one of the extractors over it, optionally with a CSV transcript.
* ``bias``     — exact worst-case bias of an extractor for a range of
  sample counts, as CSV.

Numeric flags accept exact "p/q" strings.  Identical inputs and seed
produce byte-identical output files.

The commands only load, compute and write; :func:`main` is the one place
that maps their failures to exit codes.  Cost-guard refusals
(``GuardError``) exit 65.  Parse and validation failures exit 64, and so
do files that cannot be read or written (a source, strategy or table
file, ``--out``, ``--transcript``) and strategy files that are not trees
of objects with integer dice.  The message goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, NamedTuple, Sequence

from . import extractors as ex
from .classify import Category, _mvr_witness, classify
from .errors import DigitLimitError, GsvError, GuardError, SpecFormatError
from .fastmultibit import FastMultibitState, multibit_extract_fast
from .model import (
    SourceSpec,
    Strategy,
    Witness,
    _read_json,
    rat,
    rat_str,
    sample_sequence,
    validate_source,
)
from .oracle import ExtractorTable, exact_biases, exact_extremes
from .presets import load_source

EXIT_PARSE = 64
EXIT_GUARD = 65
CATEGORY_EXIT = {Category.EXP_ERROR: 0, Category.POLY_ERROR: 1, Category.NON_EXTRACTABLE: 2}


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
    return _mvr_witness(spec, epsilon, report.hnk)


def _resolve_strategy(spec: SourceSpec, arg: str, table: ExtractorTable | None) -> Strategy:
    if arg == "worst-case":
        return exact_extremes(spec, table).max_strategy
    if arg.startswith("constant:"):
        die = int(arg.split(":", 1)[1])
        if not 0 <= die < spec.num_dice:
            raise SpecFormatError(f"constant strategy die {die} out of range")
        return Strategy.constant(die)
    with open(arg, encoding="utf-8") as fh:
        tree = _read_json(fh.read(), "strategy")
    return Strategy.from_tree(tree, spec.face_labels)


def _load_table(path: str, num_faces: int) -> ExtractorTable:
    """The table of an extractor table file, {"n": n, "outputs": [...]}
    with JSON integers only (``type is int`` keeps out floats and bools)."""
    with open(path, encoding="utf-8") as fh:
        doc = _read_json(fh.read(), "extractor table")
    outputs = doc.get("outputs") if isinstance(doc, dict) else None
    if not isinstance(outputs, list) or any(type(x) is not int for x in [doc.get("n"), *outputs]):
        raise SpecFormatError(
            f'{path}: an extractor table is a JSON object {{"n": <int>, "outputs": [<int>, ...]}}'
        )
    return ExtractorTable.from_outputs(doc["n"], num_faces, outputs)


def _parse_range(text: str) -> Sequence[int]:
    """A "lo..hi" range (a ``range``: nothing is listed before the oracle's
    guard has counted the sweep) or a comma list."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = range(int(lo), int(hi) + 1)
        if not values:
            raise ValueError(f"empty range {text}: lo must not exceed hi")
        return values
    return [int(part) for part in text.split(",")]


# --------------------------------------------------------------------------


def cmd_classify(args) -> int:
    report = classify(_load_validated(args.source))
    _write(args.out, report.to_json())
    return CATEGORY_EXIT[report.category]


def _pm1_bits(sign: int) -> str:
    return "1" if sign == 1 else "0"


def _machine_summaries(machine: Callable) -> Callable:
    """Transcript summaries from an integer state machine of
    :mod:`gsvkit.extractors`: ``machine(psi, epsilon, m)`` gives its
    (init, step, finish, z), and z after each step is yielded."""

    def summaries(psi: Witness, epsilon, faces, m: int):
        state, step, _finish, z = machine(psi, epsilon, m)
        for face in faces:
            state = step(state, face)
            yield z(state)

    return summaries


def _fast_summaries(psi: Witness, epsilon, faces, m: int):
    state = FastMultibitState(m)
    for face in faces:
        state.advance(psi.values[face])
        yield state.top_value()


class _Extractor(NamedTuple):
    """A builtin extractor as the CLI runs it.

    ``fold(psi, epsilon, faces, m)`` gives the output bits,
    ``table(psi, epsilon, n)`` the single-bit :class:`ExtractorTable`
    for the oracle (None for the multi-bit extractors, which the
    worst-case strategy and bias sweeps do not take), and
    ``summaries(psi, epsilon, faces, m)`` the exact z summary after each
    step for the transcript: from the extractor's integer state machine,
    or for ``multibit-fast`` from its grouped state.  The entries name
    library functions at call time, so a wrapper installed on a library
    function is seen here too.
    """

    fold: Callable
    table: Callable | None
    summaries: Callable


EXTRACTORS = {
    "threshold": _Extractor(
        lambda psi, eps, faces, m: _pm1_bits(ex.threshold_extract(psi, eps, faces)),
        lambda psi, eps, n: ExtractorTable.for_threshold(psi, eps, n),
        _machine_summaries(lambda psi, eps, m: ex._threshold_machine(psi, eps)),
    ),
    "bit-exp": _Extractor(
        lambda psi, eps, faces, m: _pm1_bits(ex.bit_extract_exp(psi, faces)),
        lambda psi, eps, n: ExtractorTable.for_bit_exp(psi, n),
        _machine_summaries(lambda psi, eps, m: ex._bit_exp_machine(psi)),
    ),
    "multibit-naive": _Extractor(
        lambda psi, eps, faces, m: ex.multibit_extract_naive(psi, faces, m),
        None,
        _machine_summaries(lambda psi, eps, m: ex._naive_machine(psi, m)),
    ),
    "multibit-fast": _Extractor(
        lambda psi, eps, faces, m: multibit_extract_fast(psi, faces, m),
        None,
        _fast_summaries,
    ),
}
EXTRACTOR_NAMES = tuple(EXTRACTORS)
SINGLE_BIT_NAMES = ", ".join(name for name, e in EXTRACTORS.items() if e.table is not None)


def _digits(x: int) -> int:
    """Decimal digit count of x >= 0, found without converting x to a string."""
    d = int(x.bit_length() * math.log10(2)) + 1  # exact or one too many
    return d - (d > 1 and x < 10 ** (d - 1))


def _formattable(values, name: Callable[[int], str]):
    """Yield ``values`` (exact rationals) in order.

    A value whose numerator or denominator has more digits than Python's
    int-to-str limit cannot be formatted; that raises DigitLimitError at
    it, named by ``name(i)`` from its position i (the limit is never
    raised).
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    bound = 0  # 10**limit, the smallest integer with more than limit digits, once needed
    for i, value in enumerate(values):
        widest = max(abs(value.numerator), value.denominator)
        if limit and widest.bit_length() > 3 * limit:  # else widest < 2^(3 limit) < 10^limit
            bound = bound or 10**limit
            if widest >= bound:
                raise DigitLimitError(
                    f"{name(i)} has {_digits(widest)} digits, over the "
                    f"int-to-str limit of {limit} digits"
                )
        yield value


def _transcript(extractor: _Extractor, psi: Witness, epsilon, faces, m: int) -> str:
    """The step CSV: one row per sample with the witness value and the
    extractor's z summary after the step; a z too wide to format raises
    DigitLimitError at its step."""
    psi_text = [rat_str(v) for v in psi.values]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("step", "face", "psi_value", "z_summary"))
    summaries = _formattable(extractor.summaries(psi, epsilon, faces, m),
                             lambda i: f"transcript z at step {i + 1}")
    for i, (face, z) in enumerate(zip(faces, summaries), start=1):
        writer.writerow((i, face, psi_text[face], rat_str(z)))
    return buf.getvalue()


def cmd_extract(args) -> int:
    spec = _load_validated(args.source)
    report = classify(spec)
    if report.category is Category.NON_EXTRACTABLE:
        print("source is non-extractable", file=sys.stderr)
        return 2
    epsilon = rat(args.epsilon)
    psi = _auto_witness(spec, report, epsilon)
    extractor = EXTRACTORS.get(args.extractor)
    if extractor is None:
        raise SpecFormatError(f"unknown extractor {args.extractor!r}; pick from {EXTRACTOR_NAMES}")
    table = None
    if args.strategy == "worst-case":
        if extractor.table is None:
            raise SpecFormatError(
                f"worst-case strategy needs a single-bit extractor ({SINGLE_BIT_NAMES})"
            )
        table = extractor.table(psi, epsilon, args.n)
    strategy = _resolve_strategy(spec, args.strategy, table)
    faces = sample_sequence(spec, strategy, args.n, args.seed)
    bits = extractor.fold(psi, epsilon, faces, args.m)
    # built before anything is written, so a DigitLimitError writes no file
    transcript = _transcript(extractor, psi, epsilon, faces, args.m) if args.transcript else None
    doc = {
        "bits": bits,
        "extractor": args.extractor,
        "n": args.n,
        "seed": args.seed,
        "witness": psi.to_jsonable(),
    }
    _write(args.out, json.dumps(doc, indent=2) + "\n")
    if transcript is not None:
        _write(args.transcript, transcript)
    return 0


def cmd_bias(args) -> int:
    spec = _load_validated(args.source)
    epsilon = rat(args.epsilon)
    if args.extractor in EXTRACTORS:
        report = classify(spec)
        if report.category is Category.NON_EXTRACTABLE:
            print("source is non-extractable; no witness to run", file=sys.stderr)
            return 2
        psi = _auto_witness(spec, report, epsilon)
        build = EXTRACTORS[args.extractor].table
        if build is None:
            raise SpecFormatError("bias sweeps need a single-bit extractor")
        ns = _parse_range(args.n)
        table = build(psi, epsilon, 0)  # exact_biases reads each n from ns, not from the table
    else:
        table = _load_table(args.extractor, spec.num_faces)
        ns = [table.n]
    biases = _formattable(exact_biases(spec, table, ns), lambda i: f"bias at n = {ns[i]}")
    rows = [(n, rat_str(bias)) for n, bias in zip(ns, biases)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "bias"))
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
                   help='"worst-case" (needs a single-bit extractor: '
                        f'{SINGLE_BIT_NAMES}), "constant:<die>", or a strategy tree JSON path')
    p.add_argument("--transcript", default=None, help="write a step CSV here")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("bias", help="exact worst-case bias over a range of n")
    add_common(p)
    p.add_argument("--extractor", default="bit-exp",
                   help="builtin extractor name or an extractor table JSON path")
    p.add_argument("--n", default="1..8", help='range "lo..hi" or comma list')
    p.add_argument("--epsilon", default="1/16")
    p.set_defaults(fn=cmd_bias)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place that maps its failures to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GuardError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GUARD
    except (GsvError, OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
