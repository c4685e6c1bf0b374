#!/usr/bin/env python3
"""Reports and self-checks of the benchmark.

    python3 perfbench/check.py report [--workloads W,...] [--seed S] [--trace 0|1]
    python3 perfbench/check.py spread [--workloads W,...] [--seeds N] [--first-seed S]
    python3 perfbench/check.py determinism [--workloads W,...] [--seed S]

report: runs every workload once and prints each metric with the unit
its result line carries.
--workloads defaults to all three for report and to the workloads of
BENCHMARK.json otherwise.

spread: runs each workload once per seed (--trace 0) and prints, for every
end-to-end metric, the median and the interquartile range as a share of
the median (statistics.quantiles, n=4), against the metric's bound in
BENCHMARK.json.  Exits 1 if a spread exceeds its bound.

determinism: runs each workload twice with the same seed (--trace 1) and
compares the counts that depend only on the seed: the core.* work counters
of one mix round, store_bytes_per_xml_byte (from a --trace 0 pair),
plan.morsel_steps, doc.nodes, the open_cold pager faults and
server.commits.  Exits 1 on any difference.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["query_warm", "open_cold", "serve_rw"]
DETERMINISTIC = {
    "query_warm": ["doc.nodes", "plan.morsel_steps"],
    "open_cold": ["doc.nodes", "plan.morsel_steps", "pager.faults", "pager.hits"],
    "serve_rw": ["doc.nodes", "server.commits"],
}


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"]


def values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def report(args):
    b = bench()
    runs = {w: run(w, args.seed, args.seconds or b["run_seconds"], args.trace) for w in args.workloads}
    print(f"{'metric':32s}" + "".join(f"{w:>14s}" for w in args.workloads) + "  unit")
    for name, m in runs[args.workloads[0]].items():
        print(f"{name:32s}" + "".join(f"{runs[w][name]['value']:14.4f}" for w in args.workloads) + f"  {m['unit']}")
    return 0


def spread(args):
    b = bench()
    bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
    bad = False
    for w in args.workloads:
        seeds = [args.first_seed + i for i in range(args.seeds)]
        runs = [values(run(w, s, args.seconds or b["run_seconds"], 0)) for s in seeds]
        print(f"{w}: {len(runs)} seeds")
        with open(f".perfbench/spread-{w}.json", "w") as f:
            json.dump(runs, f)
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "" if share <= bound else "  OVER BOUND"
            if share > bound / 3:
                flag = flag or "  over a third of the bound"
            bad |= flag == "  OVER BOUND"
            print(f"  {name:26s} median {med:12.4f}  spread {share:6.3f}  bound {bound:5.2f}{flag}")
    return 1 if bad else 0


def determinism(args):
    b = bench()
    bad = False
    for w in args.workloads:
        seconds = args.seconds or b["run_seconds"]
        a, c = (values(run(w, args.seed, seconds, 1)) for _ in range(2))
        keys = DETERMINISTIC[w] + [k for k in a if k.startswith("core.")]
        for k in keys:
            same = a[k] == c[k]
            bad |= not same
            print(f"{w:10s} {k:26s} {a[k]!r:>22} {c[k]!r:>22} {'ok' if same else 'DIFFERS'}")
        a, c = (values(run(w, args.seed, seconds, 0)) for _ in range(2))
        k = "store_bytes_per_xml_byte"
        same = a[k] == c[k]
        bad |= not same
        print(f"{w:10s} {k:26s} {a[k]!r:>22} {c[k]!r:>22} {'ok' if same else 'DIFFERS'}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["report", "spread", "determinism"])
    p.add_argument("--workloads")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, help="window length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, default=0, choices=[0, 1], help="report: 1 for the per-layer metrics")
    args = p.parse_args()
    gated = [w["name"] for w in bench()["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else (WORKLOADS if args.mode == "report" else gated)
    return {"report": report, "spread": spread, "determinism": determinism}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
