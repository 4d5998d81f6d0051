"""Self-tests of the benchmark's own logic: python3 perfbench/test_benchlib.py"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib as bl  # noqa: E402

RUN_REPORT = """\
                     quantity                                  value
--------------------------------------------------------------------
                    algorithm                                   aopt
             nodes / diameter                              1024 / 62
            worst global skew  0.131778  (v1010 − v192 at t = 10.00)
             worst local skew      0.080579  (v40 − v39 at t = 4.95)
     A^opt bounds (𝒢 / local)                    6.276003 / 2.523683
                  send events                                  15360
         deliveries / dropped                              59518 / 0
delivery imbalance (max/mean)                                  1.032
"""

RUN_REFERENCE = {
    "global_skew_6": "0.131778", "local_skew_6": "0.080579",
    "global_bound_6": "6.276003", "local_bound_6": "2.523683",
    "global_skew": 0.1317782, "local_skew": 0.0805787,
    "global_bound": 6.276003, "local_bound": 2.523683,
    "send_events": 15360, "deliveries": 59518, "dropped": 0,
}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(bl.percentile(list(range(1000)), 99), 989)
        with self.assertRaises(ValueError):
            bl.percentile(list(range(999)), 99)

    def test_p90_needs_a_hundred_samples(self):
        self.assertEqual(bl.percentile(list(range(1, 101)), 90), 90)
        with self.assertRaises(ValueError):
            bl.percentile(list(range(99)), 90)

    def test_window_rate_is_a_median_over_whole_windows(self):
        # 10/s for three seconds, a stalled fourth second, a partial fifth.
        done = [i / 10 for i in range(30)] + [4.5] * 50
        self.assertEqual(bl.window_rate(done, 4.9), 10)

    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2, 4]), 2.5)
        self.assertEqual(bl.median([3, 1, 2]), 2)


class FailShare(unittest.TestCase):
    def test_refusal_and_mismatch_both_count(self):
        # One 429 (counted by the generator as failed) and one hot body that
        # differs from its cold body, out of 10 requests.
        load = {"attempted": 10, "failed": 1, "rejected": 1, "mismatched": 1}
        tally = bl.Tally()
        tally.add(load["attempted"], bl.serve_failures(load))
        self.assertEqual(tally.failed, 2)
        self.assertAlmostEqual(tally.fail_share(), 0.2)

    def test_wrong_output_counts(self):
        tally = bl.Tally()
        tally.record(True)
        tally.record(not bl.check_run(RUN_REPORT.replace("15360", "15361"), RUN_REFERENCE))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_nothing_attempted_is_total_failure(self):
        self.assertEqual(bl.Tally().fail_share(), 1.0)


class OutputChecks(unittest.TestCase):
    def test_wrong_reference_digest_is_detected(self):
        csv = b"job,topology\n0,path:8\n"
        self.assertTrue(bl.digest_matches(csv, bl.sha256(csv)))
        self.assertFalse(bl.digest_matches(csv, bl.sha256(csv + b"1,ring:16\n")))

    def test_run_report_matches_reference(self):
        self.assertEqual(bl.check_run(RUN_REPORT, RUN_REFERENCE), [])

    def test_changed_skew_is_detected(self):
        problems = bl.check_run(RUN_REPORT.replace("0.080579", "0.080580"), RUN_REFERENCE)
        self.assertEqual(len(problems), 1)

    def test_skew_over_bound_is_detected(self):
        ref = dict(RUN_REFERENCE, local_skew=3.0)
        self.assertIn("local skew exceeds the A^opt bound", bl.check_run(RUN_REPORT, ref))

    def test_unclean_chaos_verdict_is_detected(self):
        report = ("global skew  0.1\nglobal bound 𝒢  2.0\nlocal skew  0.1\nlocal bound  2.0\n"
                  "transmissions  5\ndeliveries  4\ndropped (model)  0\ndropped (faults)  1\n"
                  "duplicated  0\noracle: legal violation at node 3 t 1.5 — UNEXPECTED\n")
        ref = {"global_skew_6": "0.1", "local_skew_6": "0.1", "global_bound_6": "2.0",
               "local_bound_6": "2.0", "transmissions": 5, "deliveries": 4,
               "dropped_model": 0, "dropped_faults": 1, "duplicated": 0, "verdict": "clean",
               "global_skew": 0.1, "local_skew": 0.1, "global_bound": 2.0, "local_bound": 2.0}
        self.assertEqual(bl.check_chaos(report, ref), ["oracle verdict is not clean"])

    def test_wrong_golden_digest_is_detected(self):
        golden = {"csv_sha256": bl.sha256(b"a"), "events": 10}
        self.assertEqual(bl.golden_problems(dict(golden), golden), [])
        self.assertEqual(len(bl.golden_problems(dict(golden, csv_sha256=bl.sha256(b"b")),
                                                golden)), 1)

    def test_missing_golden_record_is_a_problem(self):
        self.assertEqual(len(bl.golden_problems({"events": 1}, None)), 1)
        self.assertEqual(len(bl.golden_problems({"events": 1}, {"events": 1, "jobs": 2})), 1)

    def test_traced_run_must_reproduce_untraced(self):
        ref = {k: 1 for k in bl.FIDELITY_FIELDS}
        self.assertEqual(bl.fidelity_problems(ref, dict(ref)), [])
        self.assertEqual(len(bl.fidelity_problems(ref, dict(ref, deliveries=2))), 1)


if __name__ == "__main__":
    unittest.main()
