#!/usr/bin/env python3
"""Unit tests for tools/compare_bench_json.py (standard library only).

Each case writes small bbb-bench-report documents to a temporary
directory and runs the tool as a subprocess, checking its exit status
and output the way a CI script would see them.

Run: python3 tools/test_compare_bench_json.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "compare_bench_json.py")


def report(measured, version=2, **extra):
    """A minimal valid report whose `measured` section is @p measured."""
    doc = {
        "schema": "bbb-bench-report",
        "schema_version": version,
        "bench": "demo",
        "config": {"fast": "true"},
        "paper": {"speedup": 1.0},
        "measured": measured,
        "experiments": [{"label": "hashmap/bbb", "metrics": {"x": 1}}],
    }
    doc.update(extra)
    return doc


class CompareBenchJsonTest(unittest.TestCase):

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True, check=False)

    def diff(self, base, cand, *flags):
        return self.run_tool("diff", *flags,
                             self.write("base.json", report(base)),
                             self.write("cand.json", report(cand)))

    def assertNoTraceback(self, proc):
        self.assertNotIn("Traceback", proc.stdout + proc.stderr)

    def test_identical_reports_pass(self):
        proc = self.diff({"a": 1, "b": {"c": 2.5}}, {"a": 1, "b": {"c": 2.5}},
                         "--tolerance", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("within tolerance", proc.stdout)

    def test_null_on_one_side_is_drift(self):
        for base, cand in (({"a": None}, {"a": 1.5}),
                           ({"a": 1.5}, {"a": None})):
            proc = self.diff(base, cand)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            self.assertNoTraceback(proc)
            self.assertIn("DRIFT    measured.a", proc.stdout)
            self.assertIn("(null on one side)", proc.stdout)

    def test_null_on_both_sides_matches(self):
        proc = self.diff({"a": None}, {"a": None}, "--tolerance", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_missing_leaf_fails(self):
        proc = self.diff({"a": 1, "b": 2}, {"a": 1})
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("MISSING  measured.b", proc.stdout)

    def test_added_leaf_passes(self):
        proc = self.diff({"a": 1}, {"a": 1, "b": 2}, "--verbose")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("new      measured.b = 2", proc.stdout)

    def test_tolerance_edges(self):
        # 100 vs 110 drifts by 10/110 = 9.09% of the larger magnitude.
        self.assertEqual(
            self.diff({"a": 100}, {"a": 110}, "--tolerance", "0.1")
            .returncode, 0)
        self.assertEqual(
            self.diff({"a": 100}, {"a": 110}, "--tolerance", "0.09")
            .returncode, 1)
        # Exactly at the bound passes: 1 vs 2 drifts by 50%.
        self.assertEqual(
            self.diff({"a": 1}, {"a": 2}, "--tolerance", "0.5").returncode,
            0)
        # Tolerance 0 admits only exact equality.
        self.assertEqual(
            self.diff({"a": 0.0}, {"a": 0.0}, "--tolerance", "0")
            .returncode, 0)
        proc = self.diff({"a": 1.0}, {"a": 1.0000001}, "--tolerance", "0")
        self.assertEqual(proc.returncode, 1)
        self.assertIn("DRIFT    measured.a", proc.stdout)

    def test_validate_accepts_current_schema(self):
        proc = self.run_tool("validate",
                             self.write("ok.json", report({"a": 1})))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("valid bbb-bench-report v2", proc.stdout)

    def test_validate_rejects_v1_with_host_section(self):
        old = report({"a": 1}, version=1,
                     host={"jobs": 0, "wall_clock_s": 0})
        proc = self.run_tool("validate", self.write("v1.json", old))
        self.assertEqual(proc.returncode, 1)
        self.assertNoTraceback(proc)
        self.assertIn("unknown section 'host'", proc.stderr)
        self.assertIn("schema_version is 1, want 2", proc.stderr)

    def test_diff_rejects_v1_baseline(self):
        proc = self.run_tool(
            "diff",
            self.write("base.json", report({"a": 1}, version=1)),
            self.write("cand.json", report({"a": 1})))
        self.assertEqual(proc.returncode, 1)
        self.assertNoTraceback(proc)
        self.assertIn("schema_version is 1, want 2", proc.stderr)


if __name__ == "__main__":
    unittest.main()
