#!/usr/bin/env python3
"""Build and run one workload of the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 prints every end_to_end metric of
BENCHMARK.json and --trace 1 every per_layer metric, each with its unit.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not (ROOT / "src" / "sim" / "engine.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", target])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return bdir / target


def commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        cmd += ["--span-log",
                str(build_dir() / f"spans-{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")

    printed = raw.get("metrics", {})
    if set(printed) != set(declared):
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    bad = [k for k, v in printed.items()
           if isinstance(v, bool) or not isinstance(v, (int, float))]
    if bad:
        fail(f"non-numeric metric values: {bad}")

    for line in lines[:-1]:
        print(line)
    for name in declared:  # declaration order
        print(f"{name:32s} {printed[name]!r:>24} {declared[name]}")
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": printed[name], "unit": declared[name]}
                    for name in declared},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
