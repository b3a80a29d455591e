"""Self-tests of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

Run from the repository root.  Takes about a minute: several checks start
real worker and CLI processes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from fractions import Fraction

import run
import speed
import tracer
import worker
import workloads

sys.path.insert(0, "src")


def _counts(summary):
    return {k: summary[k] for k in ("spans", "calls", "items", "counts",
                                    "distinct", "errors")}


class TracedRuns(unittest.TestCase):

    def test_two_traced_runs_give_identical_counts(self):
        spans = os.path.join(run.OUT, "selftest.spans")
        first = run.run_worker("verify_exhaustive", 5, "trace", spans=spans)
        second = run.run_worker("verify_exhaustive", 5, "trace")
        self.assertNotIn("crashed", first)
        self.assertNotIn("crashed", second)
        self.assertEqual(_counts(first["trace"]), _counts(second["trace"]))
        self.assertGreater(first["trace"]["calls"]["hopf.coproduct"], 0)

        loaded = tracer.load_spans(spans)
        self.assertEqual(len(loaded), first["trace"]["spans"])
        for i, span in enumerate(loaded):
            self.assertLessEqual(span["start"], span["end"])
            self.assertLess(span["parent"], i)
            if span["parent"] >= 0:
                parent = loaded[span["parent"]]
                self.assertLessEqual(parent["start"], span["start"])
                self.assertLessEqual(span["end"], parent["end"])
                self.assertEqual(parent["op"], span["op"])


class CorruptedOutputs(unittest.TestCase):

    def test_wrong_digest_is_a_failure(self):
        tally = run.Tally()
        result = {"errors": {}, "digests": {"a": "1", "b": "2"}}
        run.tally_pass(tally, ["a", "b"], result, {"a": "1", "b": "3"})
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_wrong_antipode_fails_its_second_route(self):
        import hopftower as ht
        ctx = workloads.build_context(ht, "ind_c4")
        x = workloads.to_element(ht, workloads.dense_inputs(5)["c3"])
        good = ht.antipode_closed(ctx, x)
        self.assertIs(worker._check_dense(ht, ctx, "closed", [x], good), True)
        bad = good + ht.TensorElement(3, {(0, 0): Fraction(1, 7)})
        self.assertIsNot(worker._check_dense(ht, ctx, "closed", [x], bad),
                         True)

    def test_corrupted_golden_digest_is_counted(self):
        # seed 5 has no golden digests: the run still checks the
        # development seed against golden.json, once
        golden = run.load_golden()
        digests = golden["digests"]["cli_json"][str(workloads.DEV_SEED)]
        name = "antipode.ind_q3"
        corrupted = dict(golden, digests={"cli_json": {
            str(workloads.DEV_SEED): dict(digests, **{name: "0:0"})}})
        saved = run.load_golden, run.MIN_CLI_SAMPLES
        run.load_golden = lambda: corrupted
        run.MIN_CLI_SAMPLES = 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "cli_json", "--seed", "5",
                                 "--seconds", "0"])
        finally:
            run.load_golden, run.MIN_CLI_SAMPLES = saved
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)


class Seeds(unittest.TestCase):

    def test_seed_changes_inputs_but_not_the_checks_count(self):
        self.assertNotEqual(workloads.dense_inputs(5),
                            workloads.dense_inputs(6))
        self.assertNotEqual(workloads.cli_inputs(5), workloads.cli_inputs(6))
        self.assertEqual(workloads.dense_inputs(5), workloads.dense_inputs(5))
        a = run.run_worker("verify_exhaustive", 5, "time")
        b = run.run_worker("verify_exhaustive", 6, "time")
        self.assertGreater(a["work"], 0)
        self.assertEqual(a["work"], b["work"])


class SpeedScaling(unittest.TestCase):

    def test_sampler_takes_its_own_time_off(self):
        sampler = speed.Sampler(period=0.02)
        start = time.perf_counter()
        sampler.start()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        sampler.stop()
        elapsed = time.perf_counter() - start
        self.assertGreater(len(sampler.durations), 3)
        self.assertLess(sampler.spent, elapsed)
        self.assertGreaterEqual(sampler.spent, sum(sampler.durations))
        self.assertGreater(sampler.scale(), 0)

    def test_worker_times_are_scaled_by_the_probe(self):
        r = run.run_worker("dense_compute", 5, "time")
        self.assertNotIn("crashed", r)
        self.assertGreater(r["probe_chunks"], 10)
        self.assertAlmostEqual(r["wall_s"], r["raw_wall_s"] * r["speed_scale"])
        self.assertAlmostEqual(r["setup_s"],
                               r["raw_setup_s"] * r["speed_scale"])


class Refusal(unittest.TestCase):

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(os.path.abspath(run.OUT), "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_json",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
