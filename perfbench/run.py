#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The harness (perfbench/*.cpp) is compiled together with the library sources
under src/ into .bench_build/perfbench on first use.  A run prints report
lines, a provenance line, and -- as its last line -- one JSON object with
the keys correct, attempted, failed and metrics.  --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the spans to
.bench_build/traces/.  --smoke runs every workload at minimum size in both
modes and checks that every metric named in BENCHMARK.json is printed with
its unit and that every output check passes.

Everything is read and written inside the checkout this file lives in.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"
TRACE_DIR = OUT_DIR / "traces"
WORKLOADS = ["sweep_ckpt", "daemon_mix", "campaign_corners"]
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then an incremental build (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    harness = BUILD_DIR / "perfbench_harness"
    if not harness.is_file():
        fail("build produced no harness")
    return harness


def commit_id():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_harness(harness, workload, seed, seconds, trace, smoke):
    """Run one workload; returns (stdout lines, parsed last line) or fails."""
    # Relative paths keep the daemon's Unix socket path short.
    work = OUT_DIR / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(harness), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--trace-dir", os.path.relpath(TRACE_DIR, ROOT), "--commit", commit_id()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness timed out after {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        fail(f"{workload}: no result line")
    return lines, result


def smoke(harness):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json workloads differ from " + ", ".join(WORKLOADS))
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report, result = run_harness(harness, workload, 1, 1, trace, True)
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} checks "
                                "failed: " + "; ".join(l for l in report if "CHECK FAILED" in l))
            print(f"{where}: {len(got)} metrics, {result['attempted']} checks, "
                  f"{result['failed']} failed")
    for p in problems:
        print("SMOKE FAILURE: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at minimum size and check metrics and outputs")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    # Compiler and library temporaries stay inside the checkout too.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    harness = build()
    if args.smoke:
        return smoke(harness)
    lines, _ = run_harness(harness, args.workload, args.seed, args.seconds, args.trace, False)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
