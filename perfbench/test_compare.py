"""Tests of the compare command's verdict rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Verdict(unittest.TestCase):
    def test_unresolved_when_spread_exceeds_bound(self):
        base = [80, 90, 100, 110, 120, 130]  # quartile spread > 0.2
        new = [85, 95, 105, 115, 125, 135]
        self.assertEqual(run.verdict(base, new, "lower", 0.2)[0], "unresolved")

    def test_noisy_but_separated_is_resolved(self):
        base = [100, 110, 130, 150, 160, 170]
        new = [40, 45, 50, 55, 60, 65]  # every new run beats every base run
        self.assertEqual(run.verdict(base, new, "lower", 0.1)[0], "better")
        self.assertEqual(run.verdict(new, base, "lower", 0.1)[0], "worse")

    def test_worse_past_bound(self):
        base = [100, 101, 99, 100, 100]
        new = [130, 131, 129, 130, 130]
        v, d = run.verdict(base, new, "lower", 0.2)
        self.assertEqual(v, "worse")
        self.assertAlmostEqual(d, 0.30)

    def test_unchanged_within_bound(self):
        base = [100, 101, 99, 100, 100]
        new = [104, 105, 103, 104, 104]
        self.assertEqual(run.verdict(base, new, "lower", 0.2)[0], "unchanged")

    def test_higher_is_better(self):
        base = [100, 101, 99, 100, 100]
        new = [120, 121, 119, 120, 120]
        self.assertEqual(run.verdict(base, new, "higher", 0.2)[0], "better")
        self.assertEqual(run.verdict(new, base, "higher", 0.2)[0], "unchanged")
        self.assertEqual(run.verdict(new, [90, 91, 89, 90, 90], "higher", 0.2)[0],
                         "worse")

    def test_small_gain_inside_base_spread_is_unchanged(self):
        base = [90, 95, 100, 105, 110]
        new = [96, 97, 98, 99, 100]
        self.assertEqual(run.verdict(base, new, "lower", 0.2)[0], "unchanged")

    def test_quartiles_match_statistics(self):
        q1, med, q3 = run.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (q3 - q1) / 5.5)


def record(workload, seed, correct, attempted, failed):
    return {"workload": workload, "seed": seed, "trace": 0,
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": {}}}


class Failures(unittest.TestCase):
    def test_more_failures_is_worse(self):
        self.assertEqual(run.failed_verdict(0.0, 0.01), "worse")
        self.assertEqual(run.failed_verdict(0.02, 0.01), "better")
        self.assertEqual(run.failed_verdict(0.0, 0.0), "unchanged")

    def test_failed_share_pools_runs(self):
        runs = [record("a", 1, True, 90, 0), record("a", 2, False, 10, 5),
                record("b", 1, True, 40, 0)]
        self.assertEqual(run.failed_shares(runs), {"a": 0.05, "b": 0.0})
        self.assertEqual(run.incorrect(runs), [("a", 2, 5, 10)])


if __name__ == "__main__":
    unittest.main()
