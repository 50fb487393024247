#!/usr/bin/env python3
"""Steadiness self-check: run one workload repeatedly and print, for every
metric, the median, quartiles and spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload sta_incr [--runs 10] [--seed 1]
                                [--same-seed] [--trace 0|1] [--seconds N]

Run from the repo root.  Each run uses seed, seed+1, ... (or the same seed
with --same-seed, which checks that identical runs agree).  Spread is
(q3 - q1) / median with quartiles from statistics.quantiles(values, n=4).
An end-to-end metric is "steady" when its spread is below a third of its
bound; setup_s is compared too, though only its medians are gated.  With
--trace 1 the per-layer metrics are listed (they have no bound) and
sta.tasks_per_op is checked to repeat exactly under --same-seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run failed (seed %d, exit %d)" % (seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    all_correct = True
    for i in range(args.runs):
        seed = args.seed if args.same_seed else args.seed + i
        res = run_once(args.workload, seed, seconds, args.trace)
        all_correct = all_correct and res["correct"] and res["failed"] == 0
        print("run %2d seed %d correct=%s attempted=%d failed=%d  %s" %
              (i + 1, seed, res["correct"], res["attempted"], res["failed"],
               " ".join("%s=%.4g" % (k, m["value"]) for k, m in res["metrics"].items()
                        if k in bounds)), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])

    print("\n%-24s %-6s %14s %14s %14s %8s %7s %s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict"))
    steady = True
    for name, (unit, vals) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            ok = spread < bound / 3
            verdict = "steady" if ok else ("within bound" if spread <= bound else "TOO NOISY")
            if name != "setup_s":
                steady = steady and spread <= bound
        if name == "sta.tasks_per_op" and args.same_seed and len(set(vals)) != 1:
            verdict = "NOT EXACT"
            steady = False
        print("%-24s %-6s %14.6g %14.6g %14.6g %8.4f %7s %s" %
              (name, unit, med, q1, q3, spread, "" if bound is None else bound, verdict))
    print("\nall runs correct: %s; every gated spread within its bound: %s" % (all_correct, steady))
    sys.exit(0 if all_correct and steady else 1)


if __name__ == "__main__":
    main()
