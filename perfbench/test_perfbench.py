#!/usr/bin/env python3
"""The benchmark's own tests, on tiny-scale workloads.

Run from anywhere: python3 perfbench/test_perfbench.py

- every workload runs untraced and traced, passes its audit and reports
  exactly the metrics BENCHMARK.json lists;
- the audit flags each invariant a result can break;
- the stats digest is identical at 1 and 4 shards;
- a different seed changes the inputs, and the same seed repeats them.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

HARNESS = None  # built once by setUpModule


def drive(*args):
    """Run the harness at tiny scale; returns (report lines, result)."""
    cmd = [str(HARNESS), "--tiny", "--seconds", "1"]
    cmd += [str(a) for a in args]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise AssertionError(f"{cmd} exited {r.returncode}: {r.stderr}")
    lines = r.stdout.strip().split("\n")
    return lines, json.loads(lines[-1])


def digest(lines):
    for line in lines:
        m = re.match(r"stats_digest: ([0-9a-f]{16})", line)
        if m:
            return m.group(1)
    raise AssertionError("no stats_digest line")


def setUpModule():
    global HARNESS
    HARNESS = run.build(run.build_dir())


class Smoke(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for trace in (0, 1):
            want = run.expected_metrics(trace)
            for wl in run.WORKLOADS:
                with self.subTest(workload=wl, trace=trace):
                    _, res = drive("--workload", wl, "--seed", 0,
                                   "--trace", trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    if want is not None:
                        self.assertEqual(set(res["metrics"]), want)

    def test_bad_arguments_are_rejected(self):
        for bad in (["--workload", "nope"], ["--workload",
                    "gather-canonical", "--trace", "2"], ["--seed", "-1",
                    "--workload", "gather-canonical"]):
            r = subprocess.run([str(HARNESS)] + bad, capture_output=True)
            self.assertEqual(r.returncode, 2, bad)


class Audit(unittest.TestCase):
    def test_audit_flags_every_mutated_invariant(self):
        r = subprocess.run([str(HARNESS), "--audit-selftest"],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)


class Determinism(unittest.TestCase):
    def test_digest_is_shard_invariant(self):
        for wl in ("gather-sharded", "multi-tenant-lossy"):
            with self.subTest(workload=wl):
                one, res1 = drive("--workload", wl, "--seed", 3,
                                  "--trace", 0, "--shards", 1)
                four, res4 = drive("--workload", wl, "--seed", 3,
                                   "--trace", 0, "--shards", 4)
                self.assertEqual(digest(one), digest(four))
                self.assertEqual(res1["metrics"]["sim_comm_us"],
                                 res4["metrics"]["sim_comm_us"])

    def test_seed_changes_inputs(self):
        a, _ = drive("--workload", "gather-canonical", "--seed", 0,
                     "--trace", 0)
        b, _ = drive("--workload", "gather-canonical", "--seed", 1,
                     "--trace", 0)
        b2, _ = drive("--workload", "gather-canonical", "--seed", 1,
                      "--trace", 0)
        self.assertNotEqual(digest(a), digest(b))
        self.assertEqual(digest(b), digest(b2))


if __name__ == "__main__":
    unittest.main()
