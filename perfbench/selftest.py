"""Tests of the benchmark itself: job generation and the independent checks.

    python3 perfbench/selftest.py

Kept out of the repository's pytest run on purpose (the file name does
not match ``test_*.py``): these test the benchmark, not gsvkit.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402


class JobGeneration(unittest.TestCase):
    def test_same_seed_same_list(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 5)
            b = workloads.build(name, 5)
            self.assertEqual(a, b)
            self.assertEqual(workloads.joblist_digest(*a), workloads.joblist_digest(*b))

    def test_other_seed_other_list(self):
        for name in workloads.WORKLOADS:
            digests = {workloads.joblist_digest(*workloads.build(name, s)) for s in range(6)}
            self.assertEqual(len(digests), 6, name)

    def test_default_seed_matches_pin(self):
        with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
            pins = json.load(fh)
        for name in workloads.WORKLOADS:
            got = workloads.joblist_digest(*workloads.build(name, workloads.DEFAULT_SEED))
            self.assertEqual(got, pins[name]["joblist_digest"], name)

    def test_known_failure_stays_in_extract_stream(self):
        _sources, jobs = workloads.build("extract-stream", 3)
        self.assertIn(workloads.INT_STR_LIMIT_ARGV, [job.get("cli") for job in jobs])

    def test_sources_are_distributions_without_orphan_faces(self):
        for name in workloads.WORKLOADS:
            sources, _jobs = workloads.build(name, 11)
            for text in sources.values():
                dice = [[Fraction(p) for p in die] for die in json.loads(text)["dice"]]
                for die in dice:
                    self.assertEqual(sum(die), 1)
                    self.assertTrue(all(p >= 0 for p in die))
                for f in range(len(dice[0])):
                    self.assertTrue(any(die[f] > 0 for die in dice))

    def test_jobs_reference_generated_sources(self):
        for name in workloads.WORKLOADS:
            sources, jobs = workloads.build(name, 4)
            refs = [a[1:] for job in jobs for a in job.get("cli", [job.get("source", "")])
                    if a.startswith("@") and a != "@transcript"]
            self.assertTrue(set(refs) <= set(sources))
            self.assertEqual(len({job["id"] for job in jobs}), len(jobs))


class IndependentChecks(unittest.TestCase):
    HALF = Fraction(1, 2)

    def test_rank(self):
        self.assertEqual(checks.rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]), 1)
        self.assertEqual(checks.rank([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]), 2)

    def test_witness_checks_catch_bad_witnesses(self):
        coin = [[self.HALF, self.HALF]]
        good = {"values": ["1", "-1"], "kind": "NK_PLUS", "min_variance": "1"}
        self.assertEqual(checks.check_witness(coin, good), [])
        self.assertTrue(checks.check_witness(coin, {**good, "values": ["1", "0"]}))
        self.assertTrue(checks.check_witness(coin, {**good, "min_variance": "1/2"}))
        mvr = {"values": ["1", "-1"], "kind": "MVR", "epsilon": "1/16"}
        biased = [[Fraction(3, 4), Fraction(1, 4)]]
        self.assertTrue(checks.check_witness(biased, mvr))

    def test_hnk_certificate_check(self):
        dice = [[self.HALF, self.HALF, Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
        report = {"category": "NON_EXTRACTABLE", "nk": {"holds": True},
                  "nk_plus": {"holds": False},
                  "hnk": {"holds": False, "failing_subset": {"dice": [1], "faces": [2]}}}
        self.assertEqual(checks.check_classify(dice, "preset", 2, json.dumps(report)), [])
        report["hnk"]["failing_subset"] = {"dice": [0], "faces": [0, 1]}
        self.assertTrue(checks.check_classify(dice, "preset", 2, json.dumps(report)))
        self.assertTrue(checks.check_classify(dice, "preset", 0, json.dumps(report)))


if __name__ == "__main__":
    unittest.main()
