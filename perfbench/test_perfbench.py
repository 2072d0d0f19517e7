#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulators).

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py if needed, then runs the binary on
short, fast workloads.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, seed, trace, *extra):
    """Run the binary for one second; (result dict, digest lines)."""
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace),
         "--reference", run.REFERENCE] + list(extra),
        capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digests = [l for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), digests


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_spec_names_and_units(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         run.WORKLOADS)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)

    def test_result_carries_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, _ = bench("numerics_fp8", 3, trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, want)
            for v in res["metrics"].values():
                self.assertIsInstance(v["value"], (int, float))

    def test_perturbed_output_counts_as_failed(self):
        res, _ = bench("numerics_fp8", 3, 0, "--perturb")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertGreater(res["attempted"], res["failed"])

    def test_default_seed_matches_stored_reference(self):
        for workload in ("numerics_fp8", "net_fabric"):
            res, _ = bench(workload, 1, 0)
            self.assertTrue(res["correct"], workload)
            self.assertEqual(res["failed"], 0, workload)

    def test_traced_and_untraced_runs_digest_identically(self):
        for workload in ("numerics_fp8", "net_fabric"):
            plain = bench(workload, 5, 0)
            traced = bench(workload, 5, 1)
            self.assertEqual(plain[0]["failed"], 0)
            self.assertEqual(traced[0]["failed"], 0)
            self.assertTrue(plain[1])
            self.assertEqual(plain[1], traced[1], workload)

    def test_held_out_seed_gives_other_inputs(self):
        _, dev = bench("numerics_fp8", 5, 0)
        _, held = bench("numerics_fp8", 5, 0, "--held-out")
        self.assertNotEqual(dev, held)


if __name__ == "__main__":
    unittest.main()
