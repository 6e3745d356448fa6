#!/usr/bin/env python3
"""Build the perfbench driver from this checkout's sources, run one workload,
and print its result.

    python3 perfbench/run.py --workload mls-d300 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) inside the
checkout; the first run configures and builds, later runs rebuild
incrementally.  Standard output ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; each carries its unit.  Lines before it give the
run metadata, the work counters (those that must repeat exactly for a seed,
and the trajectory-dependent ones), reconciliation flags and failed checks.
The exit status is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    base = (ROOT / base).resolve()
    if ROOT not in base.parents and base != ROOT:
        base = ROOT / ".bench_build"  # never build outside the checkout
    return base / "perfbench"


def build(directory):
    """Configures (once) and builds the driver; returns its path or None."""
    directory.mkdir(parents=True, exist_ok=True)
    log_path = directory / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(directory), "-j", jobs,
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed, see {log_path}", file=sys.stderr)
                return None
    return directory / "perfbench"


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the driver is built from (any checkout)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE):
        files += [p for p in tree.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for path in sorted(files):
        if path.exists():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2

    directory = build_dir()
    binary = build(directory)
    if binary is None:
        return 1
    trace_out = directory / "traces" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--trace-out={trace_out if args.trace else ''}",
               f"--digests={HERE / 'digests.txt'}",
               f"--commit={commit()}", f"--source-digest={source_digest()}"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode not in (0, 1) or not lines:
        print(run.stdout, end="")
        print(f"perfbench: driver exited with {run.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    failures = list(raw["failures"])
    metrics = {}
    for metric in declared:
        if metric["name"] not in raw["metrics"]:
            failures.append(f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": raw["metrics"][metric["name"]],
                                   "unit": metric["unit"]}

    print("meta: " + json.dumps(raw["meta"], sort_keys=True))
    print("exact counters (must repeat for this seed): " +
          json.dumps(raw["exact"], sort_keys=True))
    print("trajectory-dependent counters: " + json.dumps(raw["trajectory"], sort_keys=True))
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"failed_ratio = {failed / max(attempted, 1):.6g} ({failed}/{attempted} operations)")
    for flag in raw["flags"]:
        print(f"reconciliation flag: {flag}")
    for why in failures:
        print(f"FAILED CHECK: {why}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = raw["correct"] and not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
