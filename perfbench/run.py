#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload query_warm --seed 1 --seconds 15 --trace 0

Run from the root of a repository checkout.  The OCaml benchmark
(perfbench/main.ml) is built with dune in release mode, without dune's
shared cache, into the directory named by CARGO_TARGET_DIR (default
.bench_build), then run with the same arguments.  Scratch files (the
input document, stores, span dumps) go to .perfbench/.

main.exe measures values by metric name.  BENCHMARK.json is the only
catalogue of metrics: this script prints main.exe's comment lines, then
one JSON result line holding the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1), each with its unit.  A
value main.exe measured that BENCHMARK.json does not list, or a missing
end-to-end value, is an error.  A per-layer metric the workload never
reaches reads 0.

Exits non-zero, without a result, when the checkout holds no engine
sources, the build fails or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

TIMEOUT_S = 170


def result_line(raw, trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    listed = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    unlisted = sorted(set(raw["values"]) - listed)
    if unlisted:
        sys.exit(f"perfbench: measured metrics that BENCHMARK.json does not list: {unlisted}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["values"]]
    if missing and not trace:
        sys.exit(f"perfbench: end-to-end metrics not measured: {missing}")
    if missing:
        print(f"# not reached on this workload, reported as 0: {' '.join(missing)}")
    metrics = {}
    for m in wanted:
        value = raw["values"].get(m["name"], 0.0)
        if not math.isfinite(value):
            sys.exit(f"perfbench: metric {m['name']} is not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                       "failed": raw["failed"], "metrics": metrics})


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no engine sources here (run from the repository root)", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", build_dir,
         "--display", "quiet", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 124
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: main.exe exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(result_line(json.loads(lines[-1]), args.trace == "1"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
