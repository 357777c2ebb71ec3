"""Self-tests for the benchmark harness (stdlib unittest, about 20 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

import client
import run
import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Harness(unittest.TestCase):
    def setUp(self):
        self.workdir = wl.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spawner = client.Spawner(run.child_env())

    def tearDown(self):
        self.spawner.__exit__(None, None, None)
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass

    def test_tiny_workloads_run_end_to_end(self):
        names = {0: {m["name"] for m in SPEC["end_to_end"]},
                 1: {m["name"] for m in SPEC["per_layer"]}}
        self.assertEqual(set(wl.TINY), {w["name"] for w in SPEC["workloads"]})
        for name, workload in wl.TINY.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    res = run.run_workload(workload, 5, 0.2, bool(trace), self.workdir,
                                           None, self.spawner)
                    self.assertTrue(res["correct"], res["report"]["failures"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), names[trace])

    def test_golden_mismatch_is_detected(self):
        workload = wl.TINY["oracle-small"]
        first = workload.params(0)[0]
        key = wl.problem_key(dataclasses.asdict(first))
        self.assertEqual(first.divisor_degree, 6)  # g = 4: rank 2 or 3 both meet the bounds
        good = run.run_workload(workload, 0, 0.0, False, self.workdir, None, self.spawner)
        self.assertTrue(good["correct"], good["report"]["failures"])
        wrong = 5 - wl.load_goldens("oracle-small")[key]["rank"]
        gold = self.workdir / "goldens.json"
        gold.write_text(json.dumps({"workloads": {"oracle-small": {
            key: {"rank": wrong, "regime": "mirror"}}}}), encoding="utf-8")
        bad = run.run_workload(workload, 0, 0.0, False, self.workdir, gold, self.spawner)
        self.assertFalse(bad["correct"])
        self.assertGreaterEqual(bad["failed"], 1)
        self.assertIn(f"expected {wrong}", " ".join(bad["report"]["failures"]))

    def test_bounds_reject_impossible_ranks(self):
        self.assertEqual(wl.bound_errors(-1, -3, 4), [])
        self.assertEqual(wl.bound_errors(6, 10, 4), [])
        self.assertEqual(wl.bound_errors(3, 6, 4), [])
        self.assertTrue(wl.bound_errors(4, 6, 4))  # Clifford: r <= deg/2
        self.assertTrue(wl.bound_errors(5, 10, 4))  # above 2g - 2: r = deg - g

    def test_wait4_reads_rss_per_child(self):
        big = self.spawner.call(
            [sys.executable, "-c", "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"],
            30.0)
        small = self.spawner.call([sys.executable, "-c", "pass"], 30.0)
        self.assertEqual((big.exit_code, small.exit_code), (0, 0))
        self.assertGreater(big.rss_mb, 90)
        # a running maximum over children would report the big child again
        self.assertLess(small.rss_mb, 60)

    def test_child_rss_does_not_start_at_the_callers(self):
        b = bytearray(300 << 20)
        b[::4096] = b"x" * len(b[::4096])  # makes every page resident
        with client.Spawner(run.child_env()) as spawner:
            small = spawner.call([sys.executable, "-c", "pass"], 30.0)
        del b
        self.assertEqual(small.exit_code, 0)
        self.assertLess(small.rss_mb, 60)

    def test_timeout_and_crash_count_as_failures(self):
        runner = run.Runner(self.spawner, deadline=float("inf"))
        slow = runner.run([sys.executable, "-c", "import time; time.sleep(30)"], 0.5,
                          lambda c: None)
        self.assertTrue(slow.timed_out)
        self.assertLess(slow.wall_s, 10)
        crash = runner.run([sys.executable, "-c", "raise SystemExit(3)"], 10.0,
                           lambda c: None)
        self.assertEqual(crash.exit_code, 3)
        self.assertEqual((runner.attempted, len(runner.failures)), (2, 2))

    def test_refuses_a_directory_without_the_program(self):
        bare = self.workdir / "bare"
        shutil.copytree(wl.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "midband",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))
        value, level, beyond = run.tail([float(i) for i in range(30)])
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(level, 100 * 20 / 30)
        self.assertAlmostEqual(value, 19.5, delta=0.05)

    def test_harrell_davis(self):
        self.assertAlmostEqual(run.hd_quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0)
        self.assertEqual(run.hd_quantile([7.0], 0.5), 7.0)
        # weights far from the quantile underflow without breaking the sum
        self.assertAlmostEqual(run.hd_quantile([float(i) for i in range(3000)], 0.9),
                               2699.5, delta=0.5)


if __name__ == "__main__":
    unittest.main()
