#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout (builds on first use, about a minute):

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit
on every workload, that the same seed gives the same CC outputs, that
a different seed changes the generated inputs, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

_runs = {}


def run(workload, seed, trace, seconds=1):
    """Run the benchmark once (memoized); return (result, provenance)."""
    key = (workload, seed, trace, seconds)
    if key not in _runs:
        p = subprocess.run(
            RUN + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        assert p.returncode == 0, p.stderr[-3000:]
        lines = p.stdout.strip().splitlines()
        prov = next(l for l in lines if l.startswith("perfbench.provenance "))
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(prov.split(" ", 1)[1]))
    return _runs[key]


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in SPEC[declared]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, prov = run(w["name"], 1, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)
                for key in ("host_cpus", "scheme", "build_type", "git",
                            "seed"):
                    self.assertIn(key, prov)
                self.assertEqual(prov["build_type"], "Release")

    def test_end_to_end_names_and_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check(1, "per_layer")

    def test_traced_run_writes_a_chrome_trace(self):
        run("serve-sweep", 1, 1)
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
        with open(os.path.join(build, "trace-serve-sweep.json")) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for name in ("daemon start", "submit", "wait", "makeWorkload barnes"):
            self.assertIn(name, names)


class Seeds(unittest.TestCase):
    def test_same_seed_same_cc_outputs(self):
        first = run("spec-barnes", 7, 0)[1]
        _runs.pop(("spec-barnes", 7, 0, 1))
        second = run("spec-barnes", 7, 0)[1]
        self.assertEqual(first["inputs"], second["inputs"])
        reference = [k for k in first["outputs"] if k.startswith("reference")]
        self.assertEqual(len(reference), 4)
        for k in reference:
            self.assertEqual(first["outputs"][k], second["outputs"][k], k)

    def test_different_seed_changes_inputs(self):
        a = run("serve-sweep", 1, 0)[1]["inputs"]
        b = run("serve-sweep", 2, 0)[1]["inputs"]
        # Barnes and water draw their inputs from the seed; fft and lu
        # are fixed by their size alone.
        self.assertNotEqual(a["barnes"], b["barnes"])
        self.assertNotEqual(a["water"], b["water"])
        self.assertEqual(a["fft"], b["fft"])
        self.assertEqual(a["lu"], b["lu"])
        self.assertNotEqual(
            run("spec-barnes", 1, 0)[1]["outputs"]["reference_exec_cycles"],
            run("spec-barnes", 2, 0)[1]["outputs"]["reference_exec_cycles"])


class WithoutSources(unittest.TestCase):
    def test_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT)) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "spec-barnes", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True,
                timeout=180, env=env)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
