"""Seeded job lists for the three benchmark workloads.

Nothing here imports gsvkit: the program under test only ever sees the
generated inputs (source JSON documents and argument lists).  A workload
is built from ``(name, seed)`` alone, so the same seed always gives the
same job list, and :func:`joblist_digest` identifies that list across
commits.

Sizes are fixed per position in each list and only the contents are
drawn from the seed, so the cost of a pass depends little on the seed.

Job forms:

* ``{"id", "cli": [argv...], "exit": <code> | "category"}`` runs
  ``gsvkit.cli.main(argv)``; ``"category"`` means the documented
  classify code (0/1/2 by category).  ``@name`` in an argument is a
  generated source, resolved to its file path at run time.
* ``{"id", "api": <oracle function>, ...}`` calls one public oracle
  function that the CLI does not expose.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from random import Random

WORKLOADS = ("classify-corpus", "extract-stream", "bias-sweep")
DEFAULT_SEED = 0

#: The known failure kept in ``extract-stream``: the CLI builds transcript
#: rows even without ``--transcript``, and formatting the bit-exp state of
#: this walk exceeds Python's int-to-str digit limit.
INT_STR_LIMIT_ARGV = ["extract", "--source", "e2", "--extractor", "bit-exp",
                      "--n", "4000", "--seed", "7"]

_PSI_POOL = [Fraction(v) for v in ("-1", "-1/2", "-1/3", "-1/4", "0", "1/4", "1/3", "1/2", "1")]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _source_doc(dice: list[list[Fraction]]) -> dict:
    return {
        "faces": [f"f{i}" for i in range(len(dice[0]))],
        "dice": [[_frac(p) for p in die] for die in dice],
    }


def zero_mean_source(rng: Random, nfaces: int, ndice: int) -> dict:
    """Dice that are mixtures of two-point laws with zero mean under a
    fixed witness, so NK+ (and with it HNK) holds by construction."""
    while True:
        psi = [rng.choice(_PSI_POOL) for _ in range(nfaces)]
        pos = [f for f, v in enumerate(psi) if v > 0]
        neg = [f for f, v in enumerate(psi) if v < 0]
        if pos and neg:
            break
    zero = [f for f, v in enumerate(psi) if v == 0]

    def die(pairs, zero_faces):
        mass = [Fraction(0)] * nfaces
        for i, j in pairs:
            weight = Fraction(rng.randint(1, 4))
            gap = psi[i] - psi[j]
            mass[i] += weight * -psi[j] / gap
            mass[j] += weight * psi[i] / gap
        for f in zero_faces:
            mass[f] += rng.randint(1, 3)
        total = sum(mass)
        return [m / total for m in mass]

    dice = []
    for _ in range(ndice - 1):
        pairs = [(rng.choice(pos), rng.choice(neg)) for _ in range(rng.randint(1, 3))]
        dice.append(die(pairs, [f for f in zero if rng.random() < 0.5]))
    # the last die covers every face, so no face is left unsupported
    cover = [(p, rng.choice(neg)) for p in pos] + [(rng.choice(pos), q) for q in neg]
    dice.append(die(cover, zero))
    return _source_doc(dice)


def hierarchical_source(rng: Random) -> dict:
    """Four faces: one die on the first two, and a mirrored pair of
    full-support dice pinning the kernel to (0, 0, 1, -1), which is flat
    on the first die's support.  HNK holds, NK+ fails (POLY_ERROR)."""
    a = Fraction(rng.randint(1, 5), 6)
    while True:
        p = Fraction(rng.randint(1, 6), 12)
        q = Fraction(rng.randint(1, 6), 12)
        if p != q and p + q < 1:
            break
    r = (1 - p - q) / 2
    return _source_doc([[a, 1 - a, Fraction(0), Fraction(0)], [p, q, r, r], [q, p, r, r]])


def random_source(rng: Random, nfaces: int, ndice: int) -> dict:
    """Unconstrained random rational dice; with at least as many dice as
    faces the kernel is almost always zero (NON_EXTRACTABLE)."""
    dice = []
    for _ in range(ndice):
        weights = [rng.randint(0, 6) for _ in range(nfaces)]
        if sum(weights) == 0:
            weights[rng.randrange(nfaces)] = 1
        total = sum(weights)
        dice.append([Fraction(w, total) for w in weights])
    for f in range(nfaces):  # no orphan faces: every face needs a die
        if all(d[f] == 0 for d in dice):
            k = rng.randrange(ndice)
            dice[k] = [Fraction(1, 2) * p for p in dice[k]]
            dice[k][f] += Fraction(1, 2)
    return _source_doc(dice)


def _interleave(*groups: list) -> list:
    """Round-robin merge, so heavy jobs spread over the whole pass."""
    out, k = [], 0
    while any(k < len(g) for g in groups):
        out += [g[k] for g in groups if k < len(g)]
        k += 1
    return out


def _classify_corpus(rng: Random):
    sources: dict[str, dict] = {}
    families: dict[str, list] = {"preset": [], "zm": [], "mid": [], "hier": [], "rnd": [],
                                 "tail": []}

    def add(family, name, doc):
        sources[name] = doc
        families[family].append((name, family))

    for k in range(10):
        add("hier", f"hier{k:02d}", hierarchical_source(rng))
    for k, (f, d) in enumerate((f, d) for f in range(2, 9) for d in (3, 6)):
        add("zm", f"zm{k:02d}", zero_mean_source(rng, f, d))
    # A block of like mid-size sources holds the median job, so the p50
    # does not sit on the edge between two size classes.
    for k in range(24):
        add("mid", f"mid{k:02d}", zero_mean_source(rng, 4, 6))
    rnd_sizes = [(2, 3), (3, 4), (3, 6), (4, 5), (4, 8), (5, 6), (5, 8), (6, 7), (6, 8), (3, 8)]
    for k, (f, d) in enumerate(rnd_sizes):
        add("rnd", f"rnd{k:02d}", random_source(rng, f, d))
    # The many-dice tail: HNK walks all 2^|D| - 1 subsets here.  Most
    # share one size, so the tail percentile (ten jobs beyond it) falls
    # inside a group of like jobs rather than on the edge between groups.
    tail_sizes = [(3, 11)] + [(3, 10)] * 17
    for k, (f, d) in enumerate(tail_sizes):
        add("tail", f"tail{k:02d}", zero_mean_source(rng, f, d))
    delta = rng.choice(["1/8", "1/5", "1/3", "3/8"])
    presets = ["e1", "e2", "fair-coin", "hidden-sv", "sv:1/4", f"sv:{delta}"]
    families["preset"] = [(p, "preset") for p in presets]

    jobs = []
    for name, family in _interleave(*families.values()):
        ref = name if family == "preset" else f"@{name}"
        jobs.append({"cli": ["classify", "--source", ref], "exit": "category",
                     "family": family})
    return sources, jobs


def _extract_stream(rng: Random):
    sources = {f"zm{k:02d}": zero_mean_source(rng, f, d)
               for k, (f, d) in enumerate([(2, 2), (3, 2), (3, 3), (4, 3)])}
    sources.update({f"hier{k:02d}": hierarchical_source(rng) for k in range(2)})

    # Strategies are fixed per position: on e2, die 0 only shows the faces
    # worth -+1/192 and die 1 mostly the faces worth -+1, which changes a
    # walk's cost many times over.  The seed picks the sampled sequence.
    def job(source, extractor, n, m=None, strategy="constant:0", transcript=False):
        argv = ["extract", "--source", source, "--extractor", extractor, "--n", str(n),
                "--seed", str(rng.randrange(2**31)), "--strategy", strategy]
        if m is not None:
            argv += ["--m", str(m)]
        if transcript:
            argv += ["--transcript", "@transcript"]
        return {"cli": argv, "exit": 0}

    walks = [
        job("e2", "threshold", 2000),
        job("e2", "threshold", 3000),
        job("e2", "threshold", 4000),
        job("e2", "threshold", 5000),
        job("e2", "threshold", 3000, strategy="constant:1"),
        job("e2", "threshold", 5000, strategy="constant:1"),
        job("fair-coin", "threshold", 5000),
        job("fair-coin", "threshold", 4000),
        job("fair-coin", "threshold", 3000),
        job("@zm00", "threshold", 3000),
        job("@zm01", "threshold", 3000),
        job("@zm02", "threshold", 2000),
        job("@zm03", "threshold", 2000),
        job("@hier00", "threshold", 3000, strategy="constant:1"),
        job("@hier01", "threshold", 3000, strategy="constant:1"),
        job("fair-coin", "bit-exp", 3000),
        job("fair-coin", "bit-exp", 2000),
        job("e2", "bit-exp", 600),
        job("@zm00", "bit-exp", 400),
        job("@zm02", "bit-exp", 400),
    ]
    # Fast multi-bit cost grows steeply with the witness denominators,
    # which are seed-dependent on generated sources; on the fair coin the
    # group count, and so the cost, is a function of (n, m).
    fast = [
        job("fair-coin", "multibit-fast", 160, m=24),
        job("fair-coin", "multibit-fast", 120, m=32),
        job("fair-coin", "multibit-fast", 160, m=36),
        job("fair-coin", "multibit-fast", 120, m=40),
        job("e2", "multibit-fast", 100, m=24),
    ]
    naive = [
        job("fair-coin", "multibit-naive", 100, m=6),
        job("fair-coin", "multibit-naive", 60, m=7),
        job("fair-coin", "multibit-naive", 40, m=8),
        job("fair-coin", "multibit-naive", 120, m=4),
        job("@zm00", "multibit-naive", 60, m=5),
        job("@zm01", "multibit-naive", 60, m=4),
        job("@zm03", "multibit-naive", 60, m=3),
    ]
    special = [
        job("e2", "threshold", 5, strategy="worst-case"),
        job("fair-coin", "bit-exp", 10, strategy="worst-case"),
        job("@zm00", "bit-exp", 8, strategy="worst-case"),
        job("e2", "threshold", 400, transcript=True),
        job("fair-coin", "bit-exp", 400, transcript=True),
        job("fair-coin", "multibit-fast", 60, m=8, transcript=True),
        job("@zm01", "multibit-naive", 60, m=4, transcript=True),
        {"cli": list(INT_STR_LIMIT_ARGV), "exit": 0},
    ]
    return sources, _interleave(walks, fast, naive, special)


def _bias_sweep(rng: Random):
    sizes = [(2, 2), (2, 3), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
    sources = {f"zm{k:02d}": zero_mean_source(rng, f, d) for k, (f, d) in enumerate(sizes)}
    sources.update({f"hier{k:02d}": hierarchical_source(rng) for k in range(4)})
    top_n = {2: 10, 3: 6, 4: 5}  # keeps each game tree near |F|^n <= 1024

    def bias(source, extractor, hi):
        return {"cli": ["bias", "--source", source, "--extractor", extractor,
                        "--n", f"1..{hi}", "--epsilon", "1/16"], "exit": 0}

    sweeps = [bias("fair-coin", "bit-exp", 12), bias("e2", "threshold", 6)]
    sweeps += [bias(f"@zm{k:02d}", "bit-exp", top_n[f]) for k, (f, _d) in enumerate(sizes)]
    sweeps += [bias(f"@hier{k:02d}", "threshold", 5) for k in range(4)]

    oracle = []
    for n, source in ((8, "sv:1/4"), (9, "sv:1/4"), (10, "sv:1/4"),
                      (9, rng.choice(["sv:1/3", "sv:3/8", "sv:2/5"]))):
        call = {"source": source, "psi": ["1", "-1"], "extractor": "bit-exp", "n": n}
        oracle.append({"api": "greedy_plus_strategy", "epsilon": "1/8", **call})
        oracle.append({"api": "output_distribution", **call})
    for source, psi, n in [("sv:1/4", ["1", "-1"], 2), ("sv:1/4", ["1", "-1"], 3),
                           (f"sv:{rng.choice(['1/8', '1/5', '1/3'])}", ["1", "-1"], 3),
                           ("e2", ["0", "0", "1", "-1"], 2),
                           ("fair-coin", ["1", "-1"], 3),
                           ("@hier00", ["0", "0", "1", "-1"], 2)]:
        oracle.append({"api": "exact_multibit_error", "source": source, "psi": psi,
                       "n": n, "m": 1})
    return sources, _interleave(sweeps, oracle)


_JOB_LISTS = {
    "classify-corpus": _classify_corpus,
    "extract-stream": _extract_stream,
    "bias-sweep": _bias_sweep,
}


def build(workload: str, seed: int) -> tuple[dict[str, str], list[dict]]:
    """Return (source name -> JSON text, job list) for one workload."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = Random(f"{workload}/{seed}")
    docs, jobs = _JOB_LISTS[workload](rng)
    prefix = workload.split("-")[0][0]
    for k, job in enumerate(jobs):
        job["id"] = f"{prefix}{k:03d}"
        if job.get("api") == "output_distribution":  # the greedy job it follows
            job["strategy_of"] = next(
                g["id"] for g in reversed(jobs[:k]) if g.get("api") == "greedy_plus_strategy"
                and all(g[key] == job[key] for key in ("source", "psi", "n")))
    texts = {name: json.dumps(doc, indent=2) + "\n" for name, doc in docs.items()}
    return texts, jobs


def joblist_digest(sources: dict[str, str], jobs: list[dict]) -> str:
    blob = json.dumps({"sources": sources, "jobs": jobs}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
