#!/usr/bin/env python3
"""Re-run the acceptance check the benchmark contract applies to BENCHMARK.json.

For every workload, run `benchmark/run.sh` N times, each with another
--seed, and print for each end-to-end metric the distance between the first
and third quartile of the N values (statistics.quantiles(v, n=4)) as a share
of their median, next to the metric's bound. A spread above a third of the
bound is flagged.

    benchmark/selfcheck.py [--runs 10] [--first-seed 1] [--workload W]...

Run it from the repo root on an otherwise idle machine. It takes
runs x workloads x ~20 s.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flagged = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        started = time.time()
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {args.first_seed + i}: exit {out.returncode}")
                return 1
            line = json.loads(out.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                print(f"{workload} seed {args.first_seed + i}: incorrect: {line}")
                return 1
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"== {workload}  ({args.runs} seeds, {per_run:.1f} s per run)")
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            constant = len(set(v)) == 1
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                flagged += 1
            if constant:
                flag += "  <-- reads the same on every run"
                flagged += 1
            print(
                f"  {name:<16} median {q2:<14.6g} spread {100 * spread:6.2f} %"
                f"  bound {100 * bounds[name]:4.0f} %{flag}"
            )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
