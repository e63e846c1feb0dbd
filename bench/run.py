"""End-to-end benchmark of the ``cochar`` command line, with a traced run.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload hook-pipeline --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload sym-table --seed 0 --seconds 2 --trace 1 --smoke

Load model: closed loop, one client, one job in flight.  Every job is a fresh
``python -m cochar.cli ...`` process, so each one pays interpreter start-up,
imports and cold term caches, as a user of the CLI does.  Jobs are started
until ``--seconds`` have passed; each is timed from spawn to exit and its exit
code and stdout sha256 are checked against the pin in ``bench/spec.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` also runs the job twice in-process under ``bench/tracer.py`` (a
span pass and a counter pass) and reports the per-layer metrics instead.
Human-readable lines go first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
SETUP = "import cochar.cli"
# Fixed pure-Python work that does not depend on cochar: a sparse product of
# two dict-of-tuple polynomials, the same kind of work as Series.__mul__.
# On a shared VM the CPU speed drifted by up to 1.8x within minutes (see
# README.md), so every timing is rescaled to a host on which this takes
# CALIBRATION_REF_S.
CALIBRATION = """
a = {(i, j, k): i + 2 * j + 3 * k + 1
     for i in range(13) for j in range(13 - i) for k in range(13 - i - j)}
out = {}
for ea, ca in a.items():
    for eb, cb in a.items():
        key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
        out[key] = out.get(key, 0) + ca * cb
"""
CALIBRATION_REF_S = 0.2


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or specification)."""


def load_spec() -> tuple[dict, dict]:
    if not (SRC / "cochar" / "cli.py").is_file():
        raise BenchError(f"no cochar sources under {SRC}; run from a checkout")
    with open(BENCH / "spec.json") as fh:
        spec = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    return spec, contract


def pick_job(workload: dict, seed: int, smoke: bool) -> dict:
    """Seed 0 runs the workload's main job; any other seed its held-out job."""
    if smoke:
        return workload["smoke"]
    return workload["family"][0 if seed == 0 else 1]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("COCHAR_THREADS", None)  # the CLI default: one route at a time
    return env


def build() -> None:
    """Byte-compile the package so that set-up time excludes compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cochar")],
                   check=True, stdout=subprocess.DEVNULL, env=child_env())


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, float, float, int, bytes]:
    """Run one child to completion: wall s, cpu s, peak RSS MB, exit code, stdout."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out)


def probe(code: str) -> float:
    """Wall seconds of one ``python -c code`` process; raises if it fails."""
    wall, _, _, status, _ = spawn([sys.executable, "-c", code], SCRATCH / "probe.err")
    if status != 0:
        raise BenchError(f"probe {code.strip()[:40]!r} failed: "
                         + (SCRATCH / "probe.err").read_text()[-2000:])
    return wall


def check(job: dict, code: int, digest: str, what: str) -> bool:
    if code == job["exit"] and digest == job["sha256"]:
        return True
    print(f"MISMATCH {what}: cochar {' '.join(job['args'])}: exit {code} "
          f"(pinned {job['exit']}), sha256 {digest} (pinned {job['sha256']})")
    return False


def timed_loop(job: dict, seconds: float):
    """Closed loop until ``seconds`` pass.

    Before each job run one calibration probe and one set-up probe, and one
    more calibration probe after the last job, so that every job is
    bracketed by two calibrations.  Returns (wall, cpu, rss) job samples,
    set-up samples, calibration samples and the failure count.
    """
    argv = [sys.executable, "-m", "cochar.cli", *job["args"]]
    samples, setup, calib, failed = [], [], [], 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        calib.append(probe(CALIBRATION))
        setup.append(probe(SETUP))
        wall, cpu, rss, code, out = spawn(argv, SCRATCH / "job.err")
        samples.append((wall, cpu, rss))
        if not check(job, code, hashlib.sha256(out).hexdigest(), "timed job"):
            failed += 1
            print((SCRATCH / "job.err").read_text()[-2000:], end="")
    calib.append(probe(CALIBRATION))
    return samples, setup, calib, failed


def traced(job: dict, mode: str) -> tuple[float, dict | None]:
    """Run one tracer pass as a child; returns its wall s and its report."""
    argv = [sys.executable, str(BENCH / "tracer.py"), mode, "--", *job["args"]]
    wall, _, _, code, out = spawn(argv, SCRATCH / f"trace-{mode}.err")
    if code != 0:
        print(f"tracer {mode} pass failed with exit {code}:")
        print((SCRATCH / f"trace-{mode}.err").read_text()[-2000:], end="")
        return wall, None
    return wall, json.loads(out.decode().splitlines()[-1])


def summary(name: str, values: list[float], unit: str) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    line = f"{name}: median {statistics.median(ordered):.4f} {unit}"
    if n >= 20:
        pct = 100.0 * (n - 10) / n
        line += f", p{pct:.0f} {ordered[n - 11]:.4f} {unit}"
    return line + f" (n={n})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's tiny job instead (seconds)")
    args = parser.parse_args(argv)
    try:
        spec, contract = load_spec()
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    job = pick_job(spec["workloads"][args.workload], args.seed, args.smoke)
    SCRATCH.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed}: cochar {' '.join(job['args'])}")
    try:
        build()
        probe(SETUP)  # untimed: warms the page cache
        samples, setup, calib, failed = timed_loop(job, args.seconds)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = len(samples)
    walls, cpus, rsss = (list(col) for col in zip(*samples))
    # host speed around job i, relative to the reference host
    speed = [CALIBRATION_REF_S / ((a + b) / 2) for a, b in zip(calib, calib[1:])]
    for name, values, unit in (("raw job", walls, "s"), ("raw cpu", cpus, "s"),
                               ("raw setup", setup, "s"), ("calibration", calib, "s"),
                               ("peak_rss_mb", rsss, "MB")):
        print(summary(name, values, unit))

    if args.trace == 0:
        scaled = {name: [v * f for v, f in zip(values, speed)]
                  for name, values in (("job_s", walls), ("cpu_s", cpus),
                                       ("setup_s", setup))}
        for name, values in scaled.items():
            print(summary(name + " at reference speed", values, "s"))
        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics.update({"peak_rss_mb": statistics.median(rsss),
                        "ok_ratio": (attempted - failed) / attempted})
        wanted = contract["end_to_end"]
    else:
        metrics = {}
        for mode in ("spans", "counts"):
            wall, report = traced(job, mode)
            attempted += 1
            if report is None:
                failed += 1
                continue
            if not check(job, report["exit"], report["sha256"], f"traced {mode} pass"):
                failed += 1
            metrics.update(report["metrics"])
            if mode == "spans":
                metrics["trace.overhead_s"] = wall - statistics.median(walls)
        wanted = contract["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    for name, entry in result.items():
        print(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
