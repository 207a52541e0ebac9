#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

Covers the percentile summary, host-speed scaling, the warm_edit function
list, line remap and pad insertion, and (after building pbtool the way run.py
does) the C++ self-tests of the ground-truth oracle, span arithmetic and
critical path (`pbtool selftest`) and the calibration loop's output.
"""

import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_median_and_count(self):
        s = run.summarize([3.0, 1.0, 2.0, 10.0])
        self.assertEqual(s["p50"], 2.5)
        self.assertEqual(s["n"], 4)
        self.assertIsNone(s["tail"])  # nothing has ten samples beyond it

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.summarize(list(range(99)))["tail"])
        s = run.summarize([float(i) for i in range(1, 101)])
        self.assertEqual(s["tail"], (90, 90.0))
        s = run.summarize([float(i) for i in range(1, 1001)])
        self.assertEqual(s["tail"], (99, 990.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.summarize([])


class ScaleTest(unittest.TestCase):
    def test_scales_by_the_mean_of_both_calibrations(self):
        ref = run.CALIBRATION_REF_S
        self.assertAlmostEqual(run.scale(1.0, ref, ref), 1.0)
        # A host running at half speed: the loop takes twice as long.
        self.assertAlmostEqual(run.scale(2.0, 2 * ref, 2 * ref), 1.0)
        self.assertAlmostEqual(run.scale(3.0, ref, 2 * ref), 2.0)


SUBJECT = """// header
int f(int *p) {
  free(p);
  return *p;
}
int **g() {
  int **c = malloc();
  return c;
}
"""


class EditTest(unittest.TestCase):
    def test_remap_line(self):
        self.assertEqual(run.remap_line(4, 5), 4)
        self.assertEqual(run.remap_line(5, 5), 6)
        self.assertEqual(run.remap_line(9, 5), 10)

    def make_subject(self, d):
        with open(os.path.join(d, "subject.mc"), "w") as f:
            f.write(SUBJECT)
        with open(os.path.join(d, "truth.tsv"), "w") as f:
            f.write("0\t0\t3\t4\tintra\n0\t1\t7\t8\tfar\n")
        with open(os.path.join(d, "functions.tsv"), "w") as f:
            f.write("f\t2\t1\ng\t6\t0\n")
        s = run.Subject(d, 0.01)
        s.load_functions()
        return s

    def test_headers_and_slice(self):
        with tempfile.TemporaryDirectory() as d:
            s = self.make_subject(d)
            self.assertEqual(s.headers, {"f": 1, "g": 5})
            self.assertEqual((s.inside, s.outside), (["f"], ["g"]))

    def test_header_line_must_name_the_function(self):
        with tempfile.TemporaryDirectory() as d:
            s = self.make_subject(d)
            with open(os.path.join(d, "functions.tsv"), "w") as f:
                f.write("f\t3\t1\n")
            with self.assertRaises(ValueError):
                s.load_functions()

    def test_pad_shifts_lines_below_it_only(self):
        with tempfile.TemporaryDirectory() as d:
            s = self.make_subject(d)
            self.assertEqual(s.insert_pad("g", 7), 7)
            self.assertEqual([r[2:4] for r in s.truth], [["3", "4"], ["8", "9"]])
            self.assertEqual(s.insert_pad("f", 1), 3)
            self.assertEqual([r[2:4] for r in s.truth], [["4", "5"], ["9", "10"]])
            with open(s.path) as f:
                lines = f.read().split("\n")
            self.assertEqual(lines[2], "  int zqpad1 = 1;")
            self.assertEqual(lines[3], "  free(p);")
            self.assertEqual(lines[7], "  int zqpad0 = 7;")
            self.assertEqual(s.headers, {"f": 1, "g": 6})
            truth = os.path.join(d, "t.tsv")
            s.write_truth(truth)
            with open(truth) as f:
                self.assertEqual(f.read(), "0\t0\t4\t5\tintra\n0\t1\t9\t10\tfar\n")


class NativeSelfTest(unittest.TestCase):
    def test_pbtool_selftest(self):
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        pbtool, _ = run.build(target)
        res = subprocess.run([pbtool, "selftest"], capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)

    def test_pbtool_calibrate(self):
        target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        pbtool, _ = run.build(target)
        res = subprocess.run([pbtool, "calibrate"], capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stderr)
        wall, cpu = map(float, res.stdout.split()[:2])
        self.assertGreater(wall, 0)
        self.assertGreater(cpu, 0)


if __name__ == "__main__":
    unittest.main()
