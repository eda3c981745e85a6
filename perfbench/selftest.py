"""Self-tests of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs each workload's real command chain at tiny N, checks that the output
checks catch tampered samples, and checks the span self-time arithmetic.
Not collected by the repository's pytest run: the file name does not match
``test_*.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import spans

SMOKE = {
    "stream-12k": dict(n=600, k=60),
    "largek-7.5k": dict(n=450, k=300),
    "quality-10k": dict(n=1500, k=50),
}


def smoke_chain(name: str, seed: int = 3) -> tuple[run.Workload, Path, Path, run.Rep, run.Tally]:
    """Generate the smoke-size data and run the workload's chain once."""
    w = dataclasses.replace(run.WORKLOADS[name], **SMOKE[name])
    out = run.fresh_dir(run.WORK / f"selftest-{name}")
    data = out / "data.csv"
    tally = run.Tally()
    _, _, rc, _ = run.run_cli(run.gen_argv(w, data), out / "gen")
    if rc != 0:
        raise RuntimeError(f"gen exited with {rc}")
    rep = run.run_rep(w, data, out, seed, tally)
    return w, data, out, rep, tally


class ChainTest(unittest.TestCase):
    def test_every_workload_chain_passes_its_checks(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                w, data, out, rep, tally = smoke_chain(name)
                self.assertTrue(rep.ok)
                run.verify(w, data, out, rep, tally)
                self.assertEqual(tally.failed, 0)
                self.assertEqual(set(rep.digests), set(rep.reports))
                again = run.run_rep(w, data, out, 3, tally)
                run.check_repeat(rep, again, tally)
                self.assertEqual(tally.failed, 0)

    def test_traced_chain_records_nested_layers(self):
        w = dataclasses.replace(run.WORKLOADS["stream-12k"], **SMOKE["stream-12k"])
        out = run.fresh_dir(run.WORK / "selftest-traced")
        data = out / "data.csv"
        sys.path.insert(0, str(run.SRC))
        import vizsample.cli

        original = vizsample.cli.attach_counts
        argvs = [run.gen_argv(w, data)] + [a for _, a in run.sample_argvs(w, data, out, 3)]
        rec = spans.SpanRecorder()
        with spans.traced(rec):
            self.assertIsNot(vizsample.cli.attach_counts, original)
            _, codes, _ = run.run_in_process(argvs, rec)
        self.assertIs(vizsample.cli.attach_counts, original)
        self.assertEqual(codes, [0, 0])
        m = spans.layer_metrics(rec)
        # one pass, no duplicate points: every streamed point is one expand
        # and one shrink, on top of the K seed-fill expands
        self.assertEqual(m["interchange.expand.calls"] - m["interchange.shrink.calls"], w.k)
        self.assertEqual(m["spatial.nearest_neighbor.calls"], w.n)
        self.assertGreater(m["interchange.seed_fill.s"], 0)
        self.assertLess(m["interchange.seed_fill.s"], m["interchange.run_interchange.s"])
        names = np.array(rec.names)[np.frombuffer(rec.name, dtype=np.int32)]
        parents = np.frombuffer(rec.parent, dtype=np.int32)
        lookup_parents = set(names[parents[names == "spatial.within_radius"]])
        self.assertEqual(lookup_parents, {"interchange.expand", "interchange.shrink"})


class TamperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        w, data_path, out, rep, _ = smoke_chain("stream-12k")
        cls.k = w.k
        cls.data = checks.read_csv(data_path)
        cls.sample = checks.read_csv(out / "vas.csv")
        cls.objective = rep.reports["vas"]["surrogate_objective"]
        cls.eps = checks.default_epsilon(cls.data)

    def test_untampered_sample_passes(self):
        self.assertIsNone(checks.check_sample_rows(self.sample, self.data, self.k))
        self.assertIsNone(checks.check_density(self.sample, self.data))
        self.assertIsNone(checks.check_objective(self.objective, self.sample, self.eps))

    def test_row_not_in_data_is_caught(self):
        bad = self.sample.copy()
        bad[0, 0] += 1e-3
        self.assertIn("not rows of the data", checks.check_sample_rows(bad, self.data, self.k))

    def test_repeated_row_and_wrong_k_are_caught(self):
        bad = self.sample.copy()
        bad[1, :2] = bad[0, :2]
        self.assertIn("repeat", checks.check_sample_rows(bad, self.data, self.k))
        self.assertIn("expected K", checks.check_sample_rows(self.sample[1:], self.data, self.k))

    def test_count_off_by_one_is_caught(self):
        bad = self.sample.copy()
        bad[0, 2] += 1
        self.assertIn("sum to", checks.check_density(bad, self.data))
        bad[1, 2] -= 1  # sum restored, two counts still wrong
        self.assertIn("2 counts differ", checks.check_density(bad, self.data))

    def test_objective_mismatch_is_caught(self):
        self.assertIsNotNone(checks.check_objective(self.objective * (1 + 1e-7), self.sample, self.eps))

    def test_nearest_member_ties_go_to_smallest_index(self):
        members = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        data = np.array([[0.0, 0.0], [1.0, 0.0], [-2.0, 0.0]])
        self.assertEqual(checks.nearest_member_counts(members, data).tolist(), [2, 1, 0])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        rec = spans.SpanRecorder()
        root = rec.add("root", 0.0, 10.0)
        a = rec.add("a", 1.0, 4.0, parent=root)
        rec.add("leaf", 2.0, 3.0, parent=a)
        rec.add("b", 5.0, 6.0, parent=root)
        rec.add("a", 7.0, 9.0, parent=root)
        st = spans.LayerStats(rec)
        self.assertEqual(st.self_total("root"), 10.0 - 3.0 - 1.0 - 2.0)
        self.assertEqual(st.self_total("a"), (3.0 - 1.0) + 2.0)
        self.assertEqual(st.self_total("leaf"), 1.0)
        self.assertEqual(st.total("a"), 5.0)
        self.assertEqual(st.calls("a"), 2)
        self.assertEqual(st.calls("missing"), 0)

    def test_recorder_nests_by_open_order(self):
        rec = spans.SpanRecorder()
        outer = rec.open("outer")
        inner = rec.open("inner")
        rec.close(inner, 5.0)
        rec.close(outer)
        self.assertEqual(list(rec.parent), [-1, outer])
        self.assertEqual(list(rec.value), [0.0, 5.0])
        self.assertTrue(rec.start[outer] <= rec.start[inner] <= rec.end[inner] <= rec.end[outer])


class HarnessTest(unittest.TestCase):
    def test_digest_mismatch_across_runs_fails(self):
        saved = run.WORK
        run.WORK = run.fresh_dir(saved / "selftest-digests")
        try:
            tally = run.Tally()
            w = run.WORKLOADS["stream-12k"]
            run.check_digest_history(w, 1, {"vas": "aa"}, tally)
            run.check_digest_history(w, 1, {"vas": "aa"}, tally)
            self.assertEqual((tally.attempted, tally.failed), (1, 0))
            run.check_digest_history(w, 1, {"vas": "bb"}, tally)
            self.assertEqual((tally.attempted, tally.failed), (2, 1))
        finally:
            run.WORK = saved

    def test_deadline_stops_the_run_and_reports_failure(self):
        saved = run.RUN_DEADLINE_S
        run.RUN_DEADLINE_S = 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                self.assertEqual(run.main(["--workload", "largek-7.5k", "--seconds", "1"]), 0)
        finally:
            run.RUN_DEADLINE_S = saved
        result = json.loads(buf.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left behind

    def test_refuses_to_run_without_the_source(self):
        bare = run.fresh_dir(run.WORK / "selftest-bare")
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("work"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stream-12k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(p.returncode, 0)
        for line in p.stdout.splitlines():
            with self.assertRaises(json.JSONDecodeError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
