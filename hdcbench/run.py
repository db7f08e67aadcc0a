#!/usr/bin/env python3
"""Build and run the wall-clock benchmark (see README.md).

    python3 hdcbench/run.py --workload edge_infer --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
benchmark binary under .bench_build/; later calls rebuild incrementally.
The last line of standard output is the result object; build logs go to
standard error. With --trace 1 the span log is written to
.bench_build/traces/<workload>-seed<seed>.json (Perfetto trace-event JSON).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hdcbench"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "hdcbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "hdcbench"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"error: benchmark build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"error: benchmark exited with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode

    result = json.loads(proc.stdout.splitlines()[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    if got != want:
        print("error: metric names or units differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
