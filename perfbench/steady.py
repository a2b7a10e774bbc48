#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and report the spread.

Run from the repository root:

    python3 perfbench/steady.py                       # every workload, 10 seeds
    python3 perfbench/steady.py --workload fleet_incident --runs 5

Each workload first gets one discarded warm-up run (it also builds), then
--runs measured runs with seeds first-seed, first-seed+1, ... For every
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the interquartile range as a share of
the median, next to the bound in BENCHMARK.json. It also prints the share of
failed operations of each run, which must be identical across runs. The
bounds in BENCHMARK.json were set from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: outputs incorrect" % (workload, seed))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        run_once(workload, args.first_seed + 1000, args.seconds)  # warm-up, discarded
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs, failed share %s" % (
            workload, len(results), ", ".join("%.6f" % s for s in shares)))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  iqr/median %6.3f"
                  "  bound %.2f%s" % (name, med, q1, q3, spread, bound,
                                      "  WIDE" if spread > bound / 3 else ""))
        sys.stdout.flush()
    print("largest spread as a share of its bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
