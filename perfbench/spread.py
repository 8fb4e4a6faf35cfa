#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads table1,stats,fleet]
        [--seeds 1-10] [--trace 0|1] [--seconds N]

For every workload it runs the command in BENCHMARK.json once per seed,
sequentially, and prints for each metric the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread,
(q3 - q1) / median. For end-to-end metrics the spread is compared with a
third of the metric's bound from BENCHMARK.json, the steadiness the
benchmark aims for. Exits 1 when a run fails or reports correct: false.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                    help="comma-separated; defaults to the workloads in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        walls = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace,
            ]
            t = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: rc={proc.returncode} "
                      f"correct={result.get('correct')}", file=sys.stderr)
                ok = False
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            mark = ""
            if name in bounds and name != "setup_s":
                mark = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {name:<36} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f} {units[name]:<6} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
