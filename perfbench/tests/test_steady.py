"""Tests of steady.py's arithmetic: quartile spread and the A/B regression rule.

    python3 -m unittest discover -s perfbench/tests
"""
import pathlib
import statistics
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
import steady  # noqa: E402


class SummarizeTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        med, q1, q3, spread = steady.summarize(values)
        self.assertEqual(med, statistics.median(values))
        self.assertEqual([q1, q3], [statistics.quantiles(values, n=4)[0],
                                    statistics.quantiles(values, n=4)[2]])
        self.assertAlmostEqual(spread, (q3 - q1) / med)

    def test_constant_values_have_zero_spread(self):
        self.assertEqual(steady.summarize([2.0, 2.0, 2.0])[3], 0.0)

    def test_single_value(self):
        self.assertEqual(steady.summarize([5.0]), (5.0, 5.0, 5.0, 0.0))


class WorseningTest(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(steady.worsening(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(steady.worsening(100, 90, "lower"), -0.10)
        self.assertAlmostEqual(steady.worsening(100, 90, "higher"), 0.10)
        self.assertAlmostEqual(steady.worsening(100, 110, "higher"), -0.10)

    def test_zero_base(self):
        self.assertEqual(steady.worsening(0, 0, "lower"), 0.0)
        self.assertEqual(steady.worsening(0, 1, "lower"), float("inf"))


class ReportTest(unittest.TestCase):
    METRICS = [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.3},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]

    def test_spread_verdicts(self):
        runs = [{"lat": v, "setup_s": s} for v, s in
                zip([100, 101, 102, 103, 104], [1.0, 1.1, 1.2, 1.1, 1.0])]
        rows, ok = steady.spread_report(runs, self.METRICS)
        self.assertTrue(ok)
        self.assertEqual(rows[0][-1], "steady")
        self.assertEqual(rows[1][-1], "within bound")

        wide = [{"lat": v, "setup_s": 1} for v in [50, 100, 150, 200, 250]]
        rows, ok = steady.spread_report(wide, self.METRICS)
        self.assertFalse(ok)
        self.assertEqual(rows[0][-1], "TOO WIDE")

    def test_setup_spread_is_gated_like_any_bounded_metric(self):
        runs = [{"lat": 100, "setup_s": s} for s in [1, 5, 9, 2, 7]]
        rows, ok = steady.spread_report(runs, self.METRICS)
        self.assertFalse(ok)
        self.assertEqual(rows[1][-1], "TOO WIDE")

    def test_compare_flags_regressions_beyond_the_bound(self):
        a = [{"lat": 100, "setup_s": 1.0}] * 3
        b_ok = [{"lat": 125, "setup_s": 1.2}] * 3
        b_bad = [{"lat": 140, "setup_s": 1.3}] * 3
        self.assertTrue(steady.compare_report(a, b_ok, self.METRICS)[1])
        rows, ok = steady.compare_report(a, b_bad, self.METRICS)
        self.assertFalse(ok)
        self.assertEqual([r[-1] for r in rows], ["REGRESSED", "REGRESSED"])


class InterleaveTest(unittest.TestCase):
    def test_ab_alternates_which_side_runs_first(self):
        calls = []

        def fake_run_once(workload, seed, seconds, trace, root):
            calls.append((seed, root))
            return {"lat": 100.0, "setup_s": 1.0}

        spec = {"workloads": [{"name": "w"}], "run_seconds": 1,
                "end_to_end": ReportTest.METRICS}
        args = steady.argparse.Namespace(a="base", b="cand", workload=None, count=3,
                                         first_seed=1, seconds=None, out_dir=self.tmp)
        with mock.patch.object(steady, "run_once", fake_run_once), \
                mock.patch.object(steady, "load_spec", lambda: spec):
            self.assertEqual(steady.cmd_ab(args), 0)
        self.assertEqual(calls, [(1, "base"), (1, "cand"), (2, "cand"), (2, "base"),
                                 (3, "base"), (3, "cand")])

    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.tmp = self._dir.name

    def tearDown(self):
        self._dir.cleanup()


if __name__ == "__main__":
    unittest.main()
