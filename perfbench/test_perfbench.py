#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload at a short length through perfbench/run.py (building
first if needed) and checks that:
  * every metric BENCHMARK.json names is printed, by name and with its unit,
    untraced (end-to-end) and traced (per-layer);
  * no attempt failed (failed_frac is 0 and the result is correct);
  * the result digest repeats between two untraced runs and the traced run;
  * on the standalone workloads the traced model, wave-overhead and engine
    self shares account for the search time, and the isolated per-op costs
    times the call counts explain it within ATTRIBUTION_TOLERANCE;
  * run from a directory that holds only BENCHMARK.json and perfbench/, the
    command fails without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SECONDS = "1"
ATTRIBUTION_TOLERANCE = 0.5  # |unattributed_share|, documented in README.md
STANDALONE = ("query_router_model", "figures_dataset")
ALL_WORKLOADS = STANDALONE + ("serve_mixed",)


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def parse(workload, trace, result):
    if result.returncode != 0:
        fail(f"{workload} trace {trace}: exit {result.returncode}\n{result.stderr[-2000:]}")
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(last)}")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    failed_frac = next((l for l in lines if "failed_frac" in l), "")
    return last, digest, failed_frac, lines


def check_metrics(workload, trace, last, lines, specs):
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)$", line)
        if m:
            printed[m.group(1)] = m.group(3)
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if printed.get(name) != unit:
            fail(f"{workload} trace {trace}: metric {name} not printed with unit {unit}")
        got = last["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            fail(f"{workload} trace {trace}: metric {name} missing from the result")
    if set(last["metrics"]) != {s["name"] for s in specs}:
        fail(f"{workload} trace {trace}: unexpected metrics in the result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in ALL_WORKLOADS:
        digests = []
        for trace in (0, 0, 1):
            last, digest, failed_frac, lines = parse(workload, trace, run(workload, trace))
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            check_metrics(workload, trace, last, lines, specs)
            ok = last["correct"] and last["failed"] == 0
            if not ok or "failed_frac 0.000000" not in failed_frac:
                fail(f"{workload} trace {trace}: attempts failed\n" + "\n".join(lines[:-1]))
            digests.append(digest)
            if trace and workload in STANDALONE:
                m = {k: v["value"] for k, v in last["metrics"].items()}
                shares = m["model.share"] + m["core.pool.wave_share"] + m["core.engine.self_share"]
                if abs(shares - 1.0) > 1e-9:
                    fail(f"{workload}: layer shares sum to {shares}")
                if abs(m["unattributed_share"]) > ATTRIBUTION_TOLERANCE:
                    fail(f"{workload}: unattributed_share {m['unattributed_share']:.3f} beyond "
                         f"{ATTRIBUTION_TOLERANCE}")
        if digests[0] is None or len(set(digests)) != 1:
            fail(f"{workload}: digest does not repeat: {digests}")
        print(f"ok   {workload}: metrics, failed_frac 0, digest {digests[0]} x3")

    # A directory with only BENCHMARK.json and the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_out", "bare-test")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", STANDALONE[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    result = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if result.returncode == 0 or result.stdout.strip():
        fail("a bare directory did not fail without output")
    print("ok   bare directory: exit", result.returncode, "with no result")
    print("PASS")


if __name__ == "__main__":
    main()
