#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py      (from the repository root)

1. perfbench --self-test: the percentile helper returns the highest
   percentile with at least ten samples beyond it, the answer check
   rejects perturbed answers (and tells a re-broken tie apart), and the
   span self-time arithmetic holds.
2. A tiny-size run of every workload, untraced and traced, through
   perfbench/run.py: it exits 0, its last line is the result object with
   exactly the keys correct/attempted/failed/metrics, and every metric
   BENCHMARK.json lists for that mode is printed by name with its unit.
"""

import json
import os
import subprocess
import sys

def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    # Building happens on the first run.py call; self-test afterwards.
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--tiny", "1"])
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: not correct / nothing attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            printed = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            for entry in wanted:
                name, unit = entry["name"], entry["unit"]
                if printed.get(name) != unit:
                    failures.append(f"{label}: {name} not printed with {unit}")
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    failures.append(f"{label}: {name} missing from result")
            if set(result["metrics"]) != {e["name"] for e in wanted}:
                failures.append(f"{label}: result metrics differ from list")
            print(f"ok   {label}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    self_test = run([os.path.join(build_dir, "perfbench"), "--self-test"])
    print(self_test.stdout, end="")
    if self_test.returncode != 0:
        failures.append("perfbench --self-test failed")

    for failure in failures:
        print(f"FAIL {failure}")
    print("all benchmark tests passed" if not failures
          else f"{len(failures)} benchmark test(s) failed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
