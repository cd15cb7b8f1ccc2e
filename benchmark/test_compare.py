#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic results documents."""

import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BOUNDS = {"wall_s": (0.10, True), "setup_s": (0.20, True),
          "failed_frac": (0.0, True)}
WORK = {"sim.ops": 100, "sim.events": 150}


def doc(walls, setup=1.0, failed=0.0, work=WORK, input_set=1):
    """A results document with one run per wall_s value."""
    runs = []
    for wall in walls:
        e2e = {"wall_s": {"value": wall, "unit": "s", "n": 5},
               "setup_s": {"value": setup, "unit": "s", "n": 5},
               "failed_frac": {"value": failed, "unit": "ratio", "n": 1}}
        runs.append({"traced": False, "workloads": {
            "fig7_serial": {"end_to_end": e2e, "work": dict(work)}}})
    return {"schema": "bbb-hostbench-results", "input_set": input_set,
            "runs": runs}


PARENT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def status(parent, change):
    return compare.ab(parent, change, BOUNDS, out=io.StringIO())[
        ("fig7_serial", "wall_s")]


class AbTest(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        self.assertEqual(status(doc(PARENT), doc([w * 0.8 for w in PARENT])),
                         "improved")

    def test_gain_needs_ten_pairs(self):
        self.assertEqual(
            status(doc(PARENT[:5]), doc([w * 0.8 for w in PARENT[:5]])),
            "unchanged")

    def test_gain_needs_nine_wins_in_ten(self):
        change = [w * 0.8 for w in PARENT]
        change[0] = change[1] = 2.0  # two lost pairs
        self.assertEqual(status(doc(PARENT), doc(change)), "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        self.assertEqual(status(doc(PARENT), doc([w * 1.2 for w in PARENT])),
                         "worse")

    def test_small_slowdown_within_bound_is_unchanged(self):
        self.assertEqual(
            status(doc(PARENT), doc([w * 1.05 for w in PARENT])),
            "unchanged")

    def test_noisy_parent_is_unresolved(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        self.assertEqual(status(doc(noisy), doc(list(reversed(noisy)))),
                         "unresolved")

    def test_noisy_parent_resolves_when_every_change_run_wins(self):
        noisy = [1.6, 2.4, 1.7, 2.3, 2.0, 1.8, 2.2, 1.9, 2.1, 2.0]
        self.assertEqual(status(doc(noisy), doc([0.5] * 10)), "improved")

    def test_exact_metric_worsens_on_any_increase(self):
        statuses = compare.ab(doc(PARENT), doc(PARENT, failed=0.01), BOUNDS,
                              out=io.StringIO())
        self.assertEqual(statuses[("fig7_serial", "failed_frac")], "worse")
        self.assertEqual(statuses[("fig7_serial", "setup_s")], "unchanged")


class CheckSetsTest(unittest.TestCase):
    def check(self, a, b):
        return compare.check_sets(a, b, BOUNDS, out=io.StringIO())

    def test_sets_within_bounds_pass(self):
        self.assertTrue(self.check(doc([1.00]), doc([1.05], setup=1.15)))

    def test_metric_beyond_bound_fails(self):
        self.assertFalse(self.check(doc([1.00]), doc([1.12])))

    def test_work_count_difference_fails(self):
        self.assertFalse(self.check(doc([1.0]),
                                    doc([1.0], work={**WORK, "sim.ops": 99})))

    def test_exact_metric_difference_fails(self):
        self.assertFalse(self.check(doc([1.0]), doc([1.0], failed=0.5)))

    def test_different_input_sets_fail(self):
        self.assertFalse(self.check(doc([1.0]), doc([1.0], input_set=2)))


if __name__ == "__main__":
    unittest.main()
