#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise, or compare two summaries.

    # ten runs of one workload, one result line per run appended to a file
    python3 hdcbench/stats.py run --workload edge_infer --seeds 1-10 \\
        --out .bench_build/edge_infer.jsonl
    # median, quartiles and quartile spread of every metric in that file
    python3 hdcbench/stats.py summary .bench_build/edge_infer.jsonl
    # parent versus change: median shift of each metric against its bound,
    # and any change of accuracy on a seed both files ran
    python3 hdcbench/stats.py compare parent.jsonl change.jsonl

Run from the repository root. Runs are untraced and last run_seconds; the
bounds and better-directions come from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_values(results):
    out = {}
    for r in results:
        for name, m in r["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def cmd_run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(args.out, "a") as out:
        for s in seeds(args.seeds):
            proc = subprocess.run(
                spec["command"] + ["--workload", args.workload, "--seed", str(s),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"seed {s}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            line = proc.stdout.splitlines()[-1]
            result = json.loads(line)
            result["seed"] = s
            out.write(json.dumps(result) + "\n")
            out.flush()
            print(f"seed {s}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
    return 0


def cmd_summary(args):
    results = load(args.file)
    print(f"{len(results)} runs, all correct: "
          f"{all(r['correct'] and r['failed'] == 0 for r in results)}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in metric_values(results).items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 0


def accuracy_by_seed(results):
    return {r["seed"]: r["metrics"]["accuracy"]["value"] for r in results
            if "seed" in r and "accuracy" in r["metrics"]}


def cmd_compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    base = metric_values(parent)
    new = metric_values(change)
    worse_any = False
    # Accuracy is deterministic for a seed, so on seeds both files share it
    # must not change at all; the bound only covers differing seed sets.
    pa, ca = accuracy_by_seed(parent), accuracy_by_seed(change)
    for seed in sorted(pa.keys() & ca.keys()):
        if ca[seed] != pa[seed]:
            lower = ca[seed] < pa[seed]
            worse_any = worse_any or lower
            print(f"accuracy on seed {seed}: {pa[seed]:.6g} -> {ca[seed]:.6g}  "
                  f"{'REGRESSION' if lower else 'changed'}")
    print(f"{'metric':20} {'parent':>12} {'change':>12} {'shift':>8} "
          f"{'bound':>6} {'parent spread':>13}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in base or name not in new:
            continue
        q1, pm, q3 = quartiles(base[name])
        cm = statistics.median(new[name])
        shift = (cm - pm) / pm if pm else 0.0
        worse = -shift if m["better"] == "higher" else shift
        spread = (q3 - q1) / pm if pm else 0.0
        if worse > m["bound"]:
            verdict, worse_any = "REGRESSION", True
        elif spread > m["bound"]:
            verdict = "unresolved (spread over bound)"
        elif -worse > spread:
            verdict = "better"
        else:
            verdict = "no change"
        print(f"{name:20} {pm:12.6g} {cm:12.6g} {shift:+8.4f} {m['bound']:6.2f} "
              f"{spread:13.4f}  {verdict}")
    return 1 if worse_any else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = ap.parse_args()
    return {"run": cmd_run, "summary": cmd_summary, "compare": cmd_compare}[
        args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
