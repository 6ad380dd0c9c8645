"""Unit tests of run.py's correctness gate and metric assembly (no JVM).

    python3 -m unittest tricbench/test_run.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def result(engine="tric_plus", ok=True, rounds=3, n=600, **extra):
    r = {"engine": engine, "checks": [{"name": "satisfied_equals_reference", "ok": ok, "detail": "d"}],
         "rounds": rounds, "updates_per_round": n, "index_ms": 5.0,
         "upd_per_s": 1000.0, "p50_ms": 0.1, "p99_ms": 9.0, "mem_mb": 12.0}
    r.update(extra)
    return r


class GateTest(unittest.TestCase):

    def test_clean_run_has_no_failures(self):
        answers = {"tric_plus": ["1", "", "2 3"], "tric": ["1", "", "2 3"]}
        failures, attempted, failed = run.gate({"tric_plus": result(), "tric": result("tric")}, answers)
        self.assertEqual((failures, attempted, failed), ([], 3600, 0))

    def test_corrupted_answer_fails_every_operation(self):
        answers = {"tric_plus": ["1", "", "2 3"], "inc_plus": ["1", "", "2"]}
        failures, attempted, failed = run.gate({"tric_plus": result(), "inc_plus": result("inc_plus")}, answers)
        self.assertEqual(len(failures), 1)
        self.assertIn("inc_plus disagrees with tric_plus on 1 of 3 updates", failures[0])
        self.assertEqual(failed, attempted)

    def test_failed_engine_check_fails_every_operation(self):
        failures, attempted, failed = run.gate({"tric": result("tric", ok=False, rounds=2)}, {"tric": ["1"]})
        self.assertEqual(len(failures), 1)
        self.assertEqual((attempted, failed), (1200, 1200))

    def test_disagreements_count_missing_updates(self):
        self.assertEqual(run.disagreements(["1", "2"], ["1"]), 1)
        self.assertEqual(run.disagreements(["1", "2"], ["1", "3"]), 1)

    def test_end_to_end_sums_index_times_into_setup(self):
        m = run.end_to_end({"tric_plus": result(), "tric": result("tric", index_ms=15.0, upd_per_s=200.0)})
        self.assertAlmostEqual(m["setup_s"]["value"], 0.020)
        self.assertEqual(m["tric.upd_per_s"], {"value": 200.0, "unit": "upd/s"})
        self.assertEqual(m["tric.p99_ms"]["unit"], "ms")
        self.assertEqual(len(m), 1 + 2 * 4)


class FakeJvm:
    """Stands in for run.Jvm: logs what it is asked to do."""
    log = []

    def __init__(self, launch, run_dir, tag, flags, argv):
        self.tag, self.rounds, self.min_rounds = tag, 0, 0
        FakeJvm.log.append(("start", tag))

    def warm_up(self):
        self.min_rounds = 2
        FakeJvm.log.append(("ready", self.tag))

    def round(self):
        self.rounds += 1
        FakeJvm.log.append(("round", self.tag))

    def request_finish(self):
        FakeJvm.log.append(("finish", self.tag))

    def finish(self):
        return {"rounds": self.rounds}


class MeasureTest(unittest.TestCase):

    def test_jvms_warm_up_side_by_side_then_alternate_rounds(self):
        real, run.Jvm = run.Jvm, FakeJvm
        try:
            FakeJvm.log = []
            started = []
            results = run.measure(None, None, 0, [("a", [], []), ("b", [], [])], started)
        finally:
            run.Jvm = real
        self.assertEqual(FakeJvm.log, [("start", "a"), ("start", "b"), ("ready", "a"), ("ready", "b"),
                                       ("round", "a"), ("round", "b"), ("round", "a"), ("round", "b"),
                                       ("finish", "a"), ("finish", "b")])
        self.assertEqual(results, {"a": {"rounds": 2}, "b": {"rounds": 2}})
        self.assertEqual([j.tag for j in started], ["a", "b"])


if __name__ == "__main__":
    unittest.main()
