#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 e2ebench/steady.py [--runs 10]

Runs every workload BENCHMARK.json lists in two sets of --runs untraced
runs each, interleaved (set A run i, then set B run i), each run with its
own seed, at the run length BENCHMARK.json fixes.  For each end-to-end
metric it prints each set's median, its spread (the distance between the
first and third quartile, statistics.quantiles(n=4), as a share of the
median) against the metric's bound, and how far set B's median moved
from set A's, either way.  It checks that the share of failed operations
is the same in every run, then makes two traced runs per workload with
different seeds and checks that the counts in EXACT_COUNTS agree.  Exit
code 0 when every spread and every median shift is within its bound, the
failed shares agree and the counts repeat; 1 otherwise.  Run from the
root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer counts that must repeat exactly from run to run and seed to
# seed (README: "Per-layer metrics").
EXACT_COUNTS = [
    "kernels.calls", "mpi.messages", "mpi.bytes", "mpi.bytes_copied", "mpi.bytes_moved",
    "mpi.shm.spill_hits", "mpi.sock.frames", "mr.shuffle_pairs", "mr.shuffle_bytes",
    "spark.tasks", "spark.shuffles", "spark.shuffle_records", "pool.tasks",
]


def run_once(spec, workload, seed, trace=0):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    results = {w: {"A": [], "B": []} for w in names}
    for i in range(args.runs):
        for w in names:
            for s, seed in (("A", 1 + i), ("B", 101 + i)):
                r = run_once(spec, w, seed)
                results[w][s].append(r)
                print(f"run {i + 1}/{args.runs} {w} set {s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      file=sys.stderr)

    ok = True
    for w in names:
        print(f"\n{w}")
        runs = results[w]["A"] + results[w]["B"]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        wrong = sum(not r["correct"] for r in runs)
        print(f"  failed share per run: {sorted(str(s) for s in shares)}; wrong answers: {wrong}")
        ok &= len(shares) == 1 and wrong == 0
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            sa, sb = spread(a), spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            shift = (mb - ma) / ma
            good = max(sa, sb) <= bound and abs(shift) <= bound
            ok &= good
            print(f"  {name:12s} median A {ma:.4g} B {mb:.4g} {m['unit']:3s} | spread A {sa:6.2%}"
                  f" B {sb:6.2%} (bound {bound:.0%}, target < {bound / 3:.2%})"
                  f" | B moved {shift:+.2%} {'ok' if good else 'OUT'}")

    print("\ncounts of two traced runs (seeds 1 and 2)")
    for w in names:
        r1, r2 = (run_once(spec, w, seed, trace=1)["metrics"] for seed in (1, 2))
        differ = [c for c in EXACT_COUNTS if r1[c]["value"] != r2[c]["value"]]
        ok &= not differ
        print(f"  {w}: " + (f"DIFFER {', '.join(differ)}" if differ else "all equal"))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
