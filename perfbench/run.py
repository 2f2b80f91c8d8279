#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds the benchmark binary
(perfbench/src, linked against the library built from src/) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs it.  The
binary's readable lines pass through; the last line printed here is one
JSON object with the metrics BENCHMARK.json lists for the run's mode
(end_to_end untraced, per_layer traced).  Exits non-zero, printing no result, when the build fails or a
metric is missing; exits non-zero after the result when an answer was
wrong.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    if not (ROOT / "src" / "core" / "fasted.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    binary = out_dir / "fasted_perfbench"
    if not binary.is_file():
        fail("build produced no fasted_perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    manifest = json.loads(manifest_path.read_text())
    if args.workload not in {w["name"] for w in manifest["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = manifest["per_layer" if args.trace == "1" else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        run = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"fasted_perfbench exited {proc.returncode} without a result")

    measured = run["per_layer" if args.trace == "1" else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        value = None if got is None else got["value"]
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, "
                 f"manifest says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": bool(run["correct"]), "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
