"""Output checks that do not depend on the workload seed.

Moments, ranks and certificate identities are recomputed here with the
benchmark's own exact arithmetic, never with gsvkit's.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

CATEGORY_EXIT = {"EXP_ERROR": 0, "POLY_ERROR": 1, "NON_EXTRACTABLE": 2}
FAMILY_CATEGORY = {"zm": "EXP_ERROR", "mid": "EXP_ERROR", "tail": "EXP_ERROR",
                   "hier": "POLY_ERROR"}


def rank(rows: list[list[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            factor = mat[i][c] / mat[r][c]
            if factor:
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def moments(die: list[Fraction], psi: list[Fraction]) -> tuple[Fraction, Fraction]:
    mean = sum(p * v for p, v in zip(die, psi))
    second = sum(p * v * v for p, v in zip(die, psi))
    return mean, second - mean * mean


def _fracs(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def check_witness(dice: list[list[Fraction]], doc: dict) -> list[str]:
    """NK+ witness: zero mean, positive variance under every die.
    MVR witness: |mean| < eps * variance under every die.  Both: the
    recorded minimum variance is the true minimum."""
    psi = _fracs(doc["values"])
    if any(abs(v) > 1 for v in psi):
        return ["witness value outside [-1, 1]"]
    stats = [moments(d, psi) for d in dice]
    problems = []
    if doc["kind"] == "NK_PLUS":
        if any(mean != 0 or var <= 0 for mean, var in stats):
            problems.append("NK+ witness has a nonzero mean or zero variance")
    elif doc["kind"] == "MVR":
        eps = Fraction(doc["epsilon"])
        if any(not abs(mean) < eps * var for mean, var in stats):
            problems.append("MVR witness breaks |mean| < eps * var")
    else:
        return [f"unexpected witness kind {doc['kind']}"]
    if "min_variance" in doc and Fraction(doc["min_variance"]) != min(v for _, v in stats):
        problems.append("recorded min_variance is not the minimum variance")
    return problems


def check_classify(dice: list[list[Fraction]], family: str, code: int, text: str) -> list[str]:
    doc = json.loads(text)
    category = doc["category"]
    problems = []
    if CATEGORY_EXIT[category] != code:
        problems.append(f"exit {code} does not match category {category}")
    expected = FAMILY_CATEGORY.get(family)
    nfaces = len(dice[0])
    if family == "rnd" and rank(dice) == nfaces:  # zero kernel, so HNK fails
        expected = "NON_EXTRACTABLE"
    if expected and category != expected:
        problems.append(f"category {category}, expected {expected} by construction")
    if "witness" in doc["nk_plus"]:
        problems += check_witness(dice, doc["nk_plus"]["witness"])
    subset = doc["hnk"].get("failing_subset")
    if subset is not None:
        faces = sorted({f for d in subset["dice"] for f in range(nfaces) if dice[d][f] > 0})
        if faces != subset["faces"]:
            problems.append("HNK certificate faces are not the union of the supports")
        rows = [[dice[d][f] for f in faces] for d in subset["dice"]]
        if rank(rows) != len(faces):
            problems.append("HNK failing subset has a nonzero restricted kernel")
    if doc["hnk"]["holds"] == (subset is not None):
        problems.append("HNK flag disagrees with the certificate")
    dual = doc.get("dual_certificate")
    if dual is not None:
        beta = _fracs(dual["beta"])
        for f in range(nfaces):
            want = (f == dual["f_star"]) - (f == dual["f_low"])
            if sum(b * die[f] for b, die in zip(beta, dice)) != want:
                problems.append("dual certificate beta does not reproduce the indicator difference")
                break
        if Fraction(dual["constant"]) != sum(abs(b) for b in beta) ** 2:
            problems.append("dual certificate constant is not (sum |beta|)^2")
    return problems


def check_extract(dice: list[list[Fraction]], argv: list[str], text: str,
                  transcript: str | None) -> list[str]:
    doc = json.loads(text)
    args = dict(zip(argv[1::2], argv[2::2]))
    width = int(args.get("--m", 1)) if args["--extractor"].startswith("multibit") else 1
    problems = []
    if len(doc["bits"]) != width or set(doc["bits"]) - {"0", "1"}:
        problems.append(f"bits {doc['bits']!r} are not {width} binary digits")
    if doc["n"] != int(args["--n"]) or doc["extractor"] != args["--extractor"]:
        problems.append("output does not echo the job's n and extractor")
    problems += check_witness(dice, doc["witness"])
    if transcript is not None:
        rows = list(csv.reader(io.StringIO(transcript)))
        if rows[0] != ["step", "face", "psi_value", "z_summary"] or len(rows) != doc["n"] + 1:
            problems.append("transcript does not have one row per step")
    return problems


def bias_rows(text: str) -> list[tuple[int, Fraction]]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["n", "bias"]:
        raise ValueError("bias CSV header")
    return [(int(n), Fraction(b)) for n, b in rows[1:]]
