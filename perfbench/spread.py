#!/usr/bin/env python3
"""Check the benchmark's run-to-run spread against its bounds.

Runs perfbench/run.py once per seed on each workload (one run at a time)
and, for every end-to-end metric, reports the median and the distance
between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them.  A spread must stay
within the metric's bound in BENCHMARK.json, setup_s's too, and
with --baseline, each median must not be worse than the baseline's by
more than the bound.  Use seeds not used while tuning (held out):

    python3 perfbench/spread.py --seeds 101-110 --save a.json
    python3 perfbench/spread.py --seeds 201-210 --baseline a.json

Exit status 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed}: " +
          " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", help="write the per-run values here")
    parser.add_argument("--baseline", help="values saved by an earlier run")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    values = {}
    ok = True
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in parse_seeds(args.seeds)]
        values[workload] = runs
        for name, metric in bounds.items():
            series = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:12s} {name:18s} median {med:12.5f} "
                    f"spread {spread:7.4f} bound {metric['bound']:.3f}")
            if spread > metric["bound"]:
                line += "  SPREAD TOO WIDE"
                ok = False
            if workload in baseline:
                base = statistics.median(r[name] for r in baseline[workload])
                worse = ((med - base) / base if metric["better"] == "lower"
                         else (base - med) / base)
                line += f"  vs baseline {worse:+.4f}"
                if worse > metric["bound"]:
                    line += "  WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
