#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload page_loads --seeds 1-10 [--trace 0]

For every metric: median, first and third quartile (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median.  End-to-end spreads are compared
with the bounds in BENCHMARK.json: a spread above a third of its bound is
flagged.  Prints each seed's output digest, and appends the raw results as
JSON lines to --out if given, so two sets of runs can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), None)
    return json.loads(lines[-1]), digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    digests = {}
    ok = True
    records = []
    for seed in seeds_from(args.seeds):
        result, digest = run_once(args.workload, seed, seconds, args.trace)
        records.append({"seed": seed, "digest": digest, "result": result})
        digests[seed] = digest
        if not result["correct"] or result["failed"]:
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d digest %s correct %s" % (seed, digest, result["correct"]),
              flush=True)

    if args.out:
        with open(args.out, "a") as f:
            for record in records:
                f.write(json.dumps({"workload": args.workload, **record}) + "\n")

    print("%-28s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if args.trace == "0" else None
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print("%-28s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread, bound if bound is not None else "-",
               flag))
    if not ok:
        print("some runs were not correct")
        sys.exit(1)


if __name__ == "__main__":
    main()
