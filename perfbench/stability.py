#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each with another seed,
and report each end-to-end metric's spread: the distance between the
first and third quartile of its values as a share of their median.

Run from the repository root:

    python3 perfbench/stability.py [--first-seed 11] [--workloads fixpoint,a2av-scale]

It reads BENCHMARK.json for the command, run length, workloads and
bounds and prints one table per workload. A metric is steady when its
spread is under a third of its bound. --out writes every run's metrics
as JSON; --md appends the tables as markdown, as in
perfbench/STABILITY.md.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="", help="write every run's metrics as JSON")
    ap.add_argument("--md", default="", help="append the tables as markdown")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {}
    for name in names:
        runs = [run_once(bench["command"], name, a.first_seed + i, seconds, 0) for i in range(RUNS)]
        rows = {}
        print(f"\n{name}: {RUNS} runs, {seconds}s each, seeds {a.first_seed}..{a.first_seed + RUNS - 1}")
        print(f"  {'metric':20} {'median':>12} {'spread':>8} {'bound':>6}  steady")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            sp, med = spread(vals)
            ok = sp < m["bound"] / 3
            rows[m["name"]] = {"median": med, "spread": sp, "values": vals}
            print(f"  {m['name']:20} {med:12.6g} {sp:8.2%} {m['bound']:6.2f}  {'yes' if ok else 'NO'}")
        fails = [r["failed"] for r in runs]
        print(f"  failed ops per run: {fails}; all correct: {all(r['correct'] for r in runs)}")
        record[name] = {"metrics": rows, "failed": fails, "attempted": [r["attempted"] for r in runs],
                        "correct": all(r["correct"] for r in runs)}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
    if a.md:
        with open(a.md, "a") as f:
            for name, rec in record.items():
                f.write(f"\n### {name}\n\n{RUNS} runs of {seconds} s, seeds "
                        f"{a.first_seed}..{a.first_seed + RUNS - 1}; failed ops per run "
                        f"{rec['failed']}; all correct: {rec['correct']}\n\n"
                        "| metric | median | spread | bound | steady |\n|---|---|---|---|---|\n")
                for m in bench["end_to_end"]:
                    r = rec["metrics"][m["name"]]
                    steady = "yes" if r["spread"] < m["bound"] / 3 else "no"
                    f.write(f"| `{m['name']}` | {r['median']:.6g} {m['unit']} | {r['spread']:.1%} | {m['bound']} | {steady} |\n")


if __name__ == "__main__":
    main()
