#!/usr/bin/env python3
"""Self-checks of the benchmark itself (not of the library):

  python3 hostbench/selftest.py

1. Builds and runs the C++ unit tests of the benchmark's own logic
   (bench_core_test.cc: nearest-rank percentiles and the ten-samples-beyond
   rule, self-time subtraction for nested spans, metric-name validation).
2. Checks BENCHMARK.json against the contract it must meet and against the
   harness's catalogue (`hostbench --describe`), and that every metric the
   benchmark's design names (README.md) is in it.
3. Runs every workload briefly in both modes and checks that each reports
   exactly the catalogue's metrics with their units, and passes its output
   checks.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Every metric the benchmark's design names, end-to-end and per layer. All of
# them are reported on every workload (a layer a workload does not exercise
# reads 0). failed_frac is the result line's failed / attempted.
DESIGN_END_TO_END = [
    "devices_per_s", "sim_mips", "wall_s", "setup_s", "peak_rss_mb", "builds_per_s",
    "build_ms_p50", "build_ms_p90",
]
DESIGN_PER_LAYER = [
    "lang.parse_ms", "lang.sema_ms", "compiler.lower_ms", "aft.checks_ms", "aft.opt_ms",
    "compiler.codegen_ms", "asm.assemble_ms", "aft.build_ms", "aft.checks_inserted",
    "aft.checks_elided", "aft.image_bytes", "os.boot_ms", "mcu.snapshot_ms",
    "mcu.snapshot_bytes", "fleet.clone_ms", "fleet.run_ms", "fleet.teardown_ms",
    "fleet.device_ms_p50",
    "fleet.device_ms_p99", "isa.predecode_fills", "isa.cache_hit_ratio",
    "isa.slow_path_frac", "mcu.invalidations", "mcu.instructions_per_device",
    "mcu.bus_data_accesses_per_device", "os.syscalls_per_device",
    "os.dispatches_per_device", "fleet.faults_recorded", "scope.record_us", "scope.merge_us",
    "fleet.ledger_merge_us", "fleet.merge_wait_us", "fleet.checkpoint_ms",
    "fleet.checkpoint_bytes", "fleet.checkpoints", "fleet.worker_busy_frac", "fleet.tail_ms",
    "ota.pack_ms", "ota.verify_ms", "ota.verify_cycles", "fleet.stage_ms",
    "fleet.health_run_ms", "trace.overhead_frac",
]
DESIGN_WORKLOADS = ["fleet_steady", "fleet_churn", "ota_campaign", "toolchain_build"]


def load_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class CoreUnitTests(unittest.TestCase):
    def test_cpp_unit_tests_pass(self):
        build = subprocess.run(["cmake", "--build", run.BUILD, "--target", "hostbench_test"],
                               stdout=sys.stderr, stderr=sys.stderr)
        self.assertEqual(build.returncode, 0, "hostbench_test did not build (GTest missing?)")
        test = subprocess.run([os.path.join(run.BUILD, "hostbench_test")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.assertEqual(test.returncode, 0, test.stdout)


class BenchmarkJsonTests(unittest.TestCase):
    def setUp(self):
        self.spec = load_benchmark_json()

    def test_matches_the_harness_catalogue(self):
        self.assertEqual(self.spec, json.loads(run.describe()),
                         "BENCHMARK.json is stale: run hostbench/run.py --write-benchmark-json")

    def test_meets_the_contract(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertLessEqual(len(spec["command"]), 32)
        for part in spec["command"]:
            self.assertLessEqual(len(part), 200)
            self.assertFalse(part.startswith("/") or ".." in part.split("/"), part)
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)

    def test_names_every_designed_metric_and_workload(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], DESIGN_WORKLOADS)
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        for name in DESIGN_END_TO_END:
            self.assertIn(name, end_to_end)
        for name in DESIGN_PER_LAYER:
            self.assertIn(name, per_layer)


class WorkloadOutputTests(unittest.TestCase):
    """Every workload reports exactly the catalogue, in both modes."""

    def check(self, trace):
        spec = load_benchmark_json()
        catalogue = spec["per_layer" if trace else "end_to_end"]
        for workload in DESIGN_WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, text = run.run_harness(workload, 7, 0.1, trace)
                result = run.last_json(text)
                self.assertEqual(code, 0, text[-2000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in catalogue])
                for m in catalogue:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                if not trace:
                    for m in catalogue:
                        self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_end_to_end_run(self):
        self.check(0)

    def test_traced_run(self):
        self.check(1)


if __name__ == "__main__":
    if not run.build():
        sys.exit("hostbench: build failed")
    unittest.main()
