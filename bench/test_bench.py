"""Tests of the benchmark itself (stdlib only; about a minute).

Run from the root of a checkout::

    python3 bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT = (".calls", ".entries", ".yielded", "term_pairs", "kept_ratio")

with open(ROOT / "BENCHMARK.json") as fh:
    CONTRACT = json.load(fh)
with open(BENCH / "spec.json") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def trace(mode: str, args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), mode, "--", *args],
                          capture_output=True, text=True, env=run.child_env(),
                          check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def exact(metrics: dict) -> dict:
    """The per-layer metrics that are exact counts (or a ratio of them)."""
    return {m["name"]: metrics[m["name"]] for m in CONTRACT["per_layer"]
            if m["name"].endswith(EXACT) and m["name"] in metrics}


class ContractTest(unittest.TestCase):
    def test_names_and_units(self):
        names = [w["name"] for w in CONTRACT["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in CONTRACT[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_spec_covers_the_contract(self):
        self.assertEqual(sorted(SPEC["workloads"]), sorted(WORKLOADS))
        self.assertEqual(list(SPEC["interaction"]),
                         [m["name"] for m in CONTRACT["per_layer"]])
        for name, row in SPEC["interaction"].items():
            self.assertLessEqual(set(row["on"]) | set(row["flat_on"]), set(WORKLOADS), name)
        for workload in SPEC["workloads"].values():
            self.assertEqual(len(workload["family"]), 2)
            for job in workload["family"] + [workload["smoke"]]:
                self.assertRegex(job["sha256"], r"^[0-9a-f]{64}$")

    def test_seed_picks_family_member(self):
        workload = SPEC["workloads"]["sym-table"]
        self.assertIs(run.pick_job(workload, 0, False), workload["family"][0])
        for seed in (1, 2, 7, 12345, -3):
            self.assertIs(run.pick_job(workload, seed, False), workload["family"][1])
        self.assertIs(run.pick_job(workload, 5, True), workload["smoke"])

    def test_percentile_has_ten_samples_beyond(self):
        values = [float(i) for i in range(25)]
        self.assertIn("p60 14.0000 s (n=25)", run.summary("job_s", values, "s"))
        self.assertNotIn(", p", run.summary("job_s", values[:19], "s"))


class SmokeTest(unittest.TestCase):
    def check_result(self, result: dict, group: str):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = {m["name"]: m["unit"] for m in CONTRACT[group]}
        self.assertEqual(sorted(result["metrics"]), sorted(wanted))
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], wanted[name])
            self.assertIsInstance(entry["value"], (int, float))

    def test_end_to_end_smoke(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, text = bench("--workload", workload, "--seed", "0",
                                           "--seconds", "0.5", "--trace", "0", "--smoke")
                self.assertEqual(code, 0, text)
                self.check_result(result, "end_to_end")
                for name, entry in result["metrics"].items():
                    self.assertGreater(entry["value"], 0, name)

    def test_traced_smoke(self):
        # correct=True means both tracer passes reproduced the pinned bytes
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, text = bench("--workload", workload, "--seed", "0",
                                           "--seconds", "0.5", "--trace", "1", "--smoke")
                self.assertEqual(code, 0, text)
                self.check_result(result, "per_layer")
                for name, row in SPEC["interaction"].items():
                    # the overhead is a difference of timings; at smoke size
                    # it is within noise and may come out negative
                    if workload in row["on"] and name != "trace.overhead_s":
                        self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_unknown_workload_is_refused(self):
        code, result, _ = bench("--workload", "nope", "--seconds", "1")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_fails_without_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, tmp / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = bench("--workload", WORKLOADS[0], "--seed", "0",
                                    "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class TracerTest(unittest.TestCase):
    def test_tracer_leaves_output_bytes_unchanged(self):
        for workload in WORKLOADS:
            job = SPEC["workloads"][workload]["smoke"]
            plain = subprocess.run([sys.executable, "-m", "cochar.cli", *job["args"]],
                                   capture_output=True, env=run.child_env(), check=True)
            digest = hashlib.sha256(plain.stdout).hexdigest()
            for mode in ("spans", "counts"):
                with self.subTest(workload=workload, mode=mode):
                    report = trace(mode, job["args"])
                    self.assertEqual((report["exit"], report["sha256"]), (0, digest))

    def test_exact_counts_repeat(self):
        job = SPEC["workloads"]["hook-pipeline"]["smoke"]
        for mode in ("spans", "counts"):
            with self.subTest(mode=mode):
                first = exact(trace(mode, job["args"])["metrics"])
                self.assertTrue(first)
                self.assertEqual(first, exact(trace(mode, job["args"])["metrics"]))

    def test_recorded_seed_counts_reproduce(self):
        job = SPEC["workloads"]["sym-table"]["family"][1]
        counts = {}
        for mode in ("spans", "counts"):
            counts.update(exact(trace(mode, job["args"])["metrics"]))
        self.assertEqual(counts, job["counts"])


if __name__ == "__main__":
    unittest.main()
