#!/usr/bin/env python3
"""Steadiness check for the perfbench workloads.

    python3 perfbench/steady.py [--workloads mls-d300,...] [--seeds 1-10]
                                [--sets 1] [--seconds N]

Runs every workload once per seed (`--sets 2` runs the whole seed list twice)
from the root of a checkout, then reports per end-to-end metric the spread of
its values across seeds: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median.  Every spread
except set-up time's must stay within a third of the metric's bound in
BENCHMARK.json; with two sets each median must not be worse than the first
set's by more than the bound, and the counters a workload marks exact must
repeat exactly for every seed.  Exit status 1 when any of that fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    exact = {}
    raw = ""
    for line in lines:
        if line.startswith("exact counters"):
            exact = json.loads(line.split(": ", 1)[1])
        if line.startswith("meta: "):
            # Raw rate and machine speed, medians over the run's repetitions.
            meta = json.loads(line[len("meta: "):])
            raw = ", ".join(
                f"{key} median {statistics.median(float(v) for v in meta[key].split()):.4g}"
                for key in ("raw_candidates_per_s_reps", "speed_reps") if meta.get(key))
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    return result, exact, raw


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        medians = []
        exact_by_seed = {}
        for index in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result, exact, raw = run(workload, seed, args.seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: output check FAILED")
                    ok = False
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items())
                    + (f" ({raw})" if raw else ""), flush=True)
                previous = exact_by_seed.setdefault(seed, exact)
                if previous != exact:
                    print(f"{workload} seed {seed}: exact counters differ: {previous} vs {exact}")
                    ok = False
            set_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                if len(values[name]) < 2:
                    continue
                share, med = spread(values[name])
                set_medians[name] = med
                steady = name == "setup_s" or share <= bound / 3
                ok = ok and steady
                print(f"{workload:15s} set {index + 1} {name:20s} median {med:12.6g}  "
                      f"IQR/median {share:7.4f}  bound {bound:.2f}  "
                      f"{'ok' if steady else 'UNSTEADY'}")
            medians.append(set_medians)
        if len(medians) == 2:
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                if name not in medians[0] or name not in medians[1]:
                    continue
                first, second = medians[0][name], medians[1][name]
                worse = (second - first) / first if metric["better"] == "lower" \
                    else (first - second) / first
                agree = worse <= bound
                ok = ok and agree
                print(f"{workload:15s} {name:20s} set 2 vs set 1: {worse:+.4f} "
                      f"(bound {bound:.2f}) {'ok' if agree else 'DRIFT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
