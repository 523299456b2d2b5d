#!/usr/bin/env python3
"""Steadiness check: run one workload several times, each with another
seed and in its own process, and print for every end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
                                [--seconds S] [--json OUT]

Run from the repository root.  Exits 1 when a spread exceeds its bound,
when a run fails or reports incorrect outputs, or when the share of
failed operations differs between runs.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write the raw results here")
    args = ap.parse_args()

    results = []
    for k in range(args.runs):
        seed = args.seed0 + k
        r = run_once(args.workload, seed, args.seconds)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", file=sys.stderr, flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)

    bad = []
    if not all(r["correct"] for r in results):
        bad.append("a run reported incorrect outputs")
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) > 1:
        bad.append(f"failed share differs between runs: {sorted(shares)}")
    print(f"{args.workload}: {args.runs} runs, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
    print(f"{'metric':<18} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= m["bound"] else "  EXCEEDS"
        if flag:
            bad.append(f"{m['name']} spread {spread:.3f} > {m['bound']}")
        print(f"{m['name']:<18} {m['unit']:>6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")
    for b in bad:
        print("FAIL: " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
