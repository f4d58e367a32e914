#!/usr/bin/env python3
"""Perf regression gate for the microbench suites.

Re-runs one microbench suite in a scratch directory, then compares the
fresh BENCH_<suite>.json against the committed baseline under
bench/baselines/.  The machine running CI is not the machine that produced
the baseline, so the gate is deliberately generous: a failure means the hot
path got ~2-3x slower (the suite's threshold, below) relative to its own
in-binary reference configuration, or the optimized path stopped being
bit-identical -- both genuine regressions, not noise.

Suites:
  spice  SPICE hot path (BENCH_spice.json).  The in-binary reference is the
         legacy per-call configuration; also requires the device-evaluation
         bypass to fire (bypass_hits > 0).
  vbs    Batch VBS kernel (BENCH_vbs.json).  The in-binary reference is the
         scalar VbsSimulator sweep; single-threaded on both legs.  The
         batch/scalar ratio cancels host speed, so this suite gates at 2x.
  campaign
         Streaming columnar campaign (BENCH_campaign.json, produced by the
         campaign_bench binary -- pass it as --microbench).  Gates on
         throughput (rows_per_second) instead of a speedup ratio, and
         additionally requires rss_bounded: the ~1.18M-row acceptance
         campaign must finish with bounded peak-RSS growth.
  daemon Sizing-as-a-service daemon (BENCH_daemon.json, produced by the
         daemon_bench binary -- pass it as --microbench).  Gates on
         dedup-hit replay throughput (rows_per_second) over the socket,
         and additionally requires clean_exit: the daemon must drain to
         exit code 0 after the run.

Common checks:
  * the benchmark itself succeeds (each suite self-checks the optimized
    results bit-for-bit against its reference and exits nonzero on
    mismatch);
  * fresh "identical" is true;
  * the fresh figure of merit (speedup, or rows_per_second for the
    campaign and daemon suites) >= baseline / threshold (default threshold
    2x for vbs, 3x for the other suites).
    Skipped with a warning when the fresh and baseline builds disagree on
    march_native -- ISA-specific baselines must not gate generic builds or
    vice versa.

Usage:
  check_bench.py --microbench build/bench/microbench \
                 --baseline bench/baselines/BENCH_spice.json \
                 [--suite spice|vbs|campaign|daemon] [--threshold X] [--threads N]

--suite defaults from the baseline filename (BENCH_<suite>.json).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

# Allowed slowdown factor of the figure of merit vs the baseline, per suite.
DEFAULT_THRESHOLDS = {"spice": 3.0, "vbs": 2.0, "campaign": 3.0, "daemon": 3.0}


def load_json(path: str, what: str, merit: str):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        print(f"FAIL: {what} {path} does not exist")
        return None
    except json.JSONDecodeError as e:
        print(f"FAIL: {what} {path} is not valid JSON: {e}")
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get(merit), (int, float)):
        print(f"FAIL: {what} {path} has no numeric '{merit}' field "
              "(wrong file, or written by an incompatible microbench?)")
        return None
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--microbench", required=True, help="path to the microbench binary")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline (bench/baselines/BENCH_<suite>.json)")
    ap.add_argument("--suite", choices=["spice", "vbs", "campaign", "daemon"],
                    help="which microbench suite to run (default: from the baseline filename)")
    ap.add_argument("--threshold", type=float,
                    help="allowed slowdown factor vs the baseline figure of merit "
                         "(default: 2 for vbs, 3 for the other suites)")
    ap.add_argument("--threads", type=int,
                    default=int(os.environ.get("MTCMOS_THREADS", "8") or "8"),
                    help="thread count for the spice parallel leg (default MTCMOS_THREADS or 8)")
    args = ap.parse_args()

    suite = args.suite
    if suite is None:
        m = re.search(r"BENCH_(\w+)\.json$", os.path.basename(args.baseline))
        if not m or m.group(1) not in ("spice", "vbs", "campaign", "daemon"):
            print(f"FAIL: cannot infer --suite from baseline name "
                  f"'{os.path.basename(args.baseline)}'; pass --suite explicitly")
            return 1
        suite = m.group(1)
    merit = "rows_per_second" if suite in ("campaign", "daemon") else "speedup"
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLDS[suite]

    baseline = load_json(args.baseline, "baseline", merit)
    if baseline is None:
        print("(run microbench once and commit the BENCH json it writes)")
        return 1

    cmd = [os.path.abspath(args.microbench), "--only", suite]
    if suite == "spice":
        cmd += ["--threads", str(args.threads)]
    bench_name = f"BENCH_{suite}.json"
    with tempfile.TemporaryDirectory(prefix=f"bench_{suite}.") as tmp:
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"FAIL: microbench exited {proc.returncode} "
                  "(optimized results diverged or the run crashed)")
            return 1
        fresh = load_json(os.path.join(tmp, bench_name), "fresh", merit)
        if fresh is None:
            return 1

    failures = []
    if not fresh.get("identical", False):
        failures.append("optimized results are not bit-identical to the reference run")
    if suite == "spice" and fresh.get("bypass_hits", 0) <= 0:
        failures.append("bypass_hits == 0: the device-evaluation bypass never fired")
    if suite == "daemon" and not fresh.get("clean_exit", False):
        failures.append("clean_exit is false: the daemon did not drain to exit code 0")
    if suite == "campaign" and not fresh.get("rss_bounded", False):
        failures.append(
            f"rss_bounded is false: peak RSS grew {fresh.get('rss_delta_mb', 0.0):.1f} MB "
            "over the streaming campaign (or the campaign did not complete)")

    fresh_native = bool(fresh.get("march_native", False))
    base_native = bool(baseline.get("march_native", False))
    fresh_isa = fresh.get("simd_isa")
    base_isa = baseline.get("simd_isa")
    if fresh_native != base_native:
        # An -march=native binary vs a generic baseline (or vice versa) is an
        # ISA change, not a regression: check only the invariants above.
        print(f"NOTE: march_native mismatch (fresh {fresh_native}, baseline {base_native}); "
              f"skipping the {merit} comparison -- regenerate the baseline on this build "
              "to re-arm it")
    elif fresh_isa is not None and base_isa is not None and fresh_isa != base_isa:
        # Same rule for the compile-time SIMD ISA: an avx512 baseline must
        # not gate an sse2 CI box (or vice versa).  Older baselines without
        # the field still gate on march_native alone.
        print(f"NOTE: simd_isa mismatch (fresh {fresh_isa}, baseline {base_isa}); "
              f"skipping the {merit} comparison -- regenerate the baseline on this build "
              "to re-arm it")
    else:
        unit = " rows/s" if suite in ("campaign", "daemon") else "x"
        floor = baseline[merit] / threshold
        if fresh[merit] < floor:
            failures.append(
                f"{merit} {fresh[merit]:.2f}{unit} fell below {floor:.2f}{unit} "
                f"(baseline {baseline[merit]:.2f}{unit} / threshold {threshold:g})")
        print(f"{merit}: fresh {fresh[merit]:.2f}{unit} vs baseline "
              f"{baseline[merit]:.2f}{unit} (floor {floor:.2f}{unit})")
    if suite == "spice":
        print(f"bypass hit rate {fresh.get('bypass_hit_rate', 0.0):.1%}")
    if suite == "daemon":
        print(f"status RTT p50 {fresh.get('rtt_p50_us', 0.0):.0f} us "
              f"(mean {fresh.get('rtt_mean_us', 0.0):.0f} us)")
    if suite == "campaign":
        print(f"peak RSS growth {fresh.get('rss_delta_mb', 0.0):.1f} MB "
              f"(bounded: {fresh.get('rss_bounded', False)})")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}")
        return 1
    print(f"OK: {suite} hot path within the regression envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
