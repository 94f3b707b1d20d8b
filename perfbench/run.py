#!/usr/bin/env python3
"""Build and run the CELIA planner benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the workloads are the ones BENCHMARK.json
lists. The first run configures and builds perfbench/ (a CMake project
that compiles the planner from ../src in Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only re-check the build.
The benchmark binary prints every metric it measured; this script prints,
as its last stdout line, one JSON object with the keys correct, attempted,
failed and metrics, where metrics holds the end_to_end metrics of
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1). Exits nonzero, without a result line, when the build
fails or a listed metric is missing; exits 1 after the result line when an
answer failed the reference check.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

RESULT_PREFIX = "PERFBENCH_RESULT "
# Address-space cap of the benchmark process: the largest workload peaks
# near 1 GiB resident, and a runaway must not take a shared machine down.
ADDRESS_SPACE_BYTES = 8 << 30


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure (once) and build the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", "perfbench", "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail(f"{binary} missing after the build")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0,
                        help="shrunken catalogs (the benchmark's own tests)")
    args = parser.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--tiny", str(args.tiny)],
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES)))
    result = None
    for line in proc.stdout:
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        else:
            sys.stdout.write(line)
    code = proc.wait()
    if result is None:
        fail(f"benchmark exited with {code} and no result", code or 2)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            fail(f"metric {name} was not measured", 3)
        if measured["unit"] != entry["unit"]:
            fail(f"metric {name} has unit {measured['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}", 3)
        metrics[name] = measured
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
