#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny preset of every workload.

    python3 perfbench/selftest.py

Checks, per workload:
  - the tiny preset runs, untraced and traced, and reports correct results;
  - every metric BENCHMARK.json names is printed, with its unit, and every
    name matches [A-Za-z0-9_.-]+;
  - the traced run's spans nest (each child lies inside its parent, in the
    same operation) and no span has negative self time;
  - the digest repeats for a fixed seed and changes with the seed.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--preset", "tiny"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    digests = [l.split()[1] for l in lines if l.startswith("digest ")]
    return json.loads(lines[-1]), (digests[0] if digests else None)


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def check_metrics(workload, result, expected):
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "%s: result not correct: %s" % (workload, result))
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          "%s: metrics %s != expected %s" % (workload, sorted(metrics),
                                             sorted(expected)))
    for name, metric in metrics.items():
        check(NAME.match(name), "%s: bad metric name %r" % (workload, name))
        check(metric["unit"] == expected[name],
              "%s: %s unit %s != %s" % (workload, name, metric["unit"],
                                         expected[name]))
        check(isinstance(metric["value"], (int, float)),
              "%s: %s is not a number" % (workload, name))


def check_spans(workload, seed):
    path = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"), "spans",
                        "%s-seed%d.tsv" % (workload, seed))
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    check(rows, "%s: no spans written" % workload)
    spans = [(int(op), int(parent), name, int(start), int(end))
             for _, op, parent, name, start, end in rows]
    self_ns = [end - start for _, _, _, start, end in spans]
    for index, (op, parent, name, start, end) in enumerate(spans):
        check(end >= start, "%s: span %d ends before it starts" % (workload, index))
        if parent < 0:
            continue
        p_op, _, p_name, p_start, p_end = spans[parent]
        check(parent < index and p_op == op and p_start <= start and end <= p_end,
              "%s: span %d (%s) is not inside its parent %s" %
              (workload, index, name, p_name))
        self_ns[parent] -= end - start
    check(min(self_ns) >= 0, "%s: negative self time" % workload)
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first, digest1 = run(workload, 1, 0)
        check_metrics(workload, first, end_to_end)
        _, digest1_again = run(workload, 1, 0)
        _, digest2 = run(workload, 2, 0)
        check(digest1 and digest1 == digest1_again,
              "%s: digest does not repeat for seed 1 (%s, %s)" %
              (workload, digest1, digest1_again))
        check(digest2 != digest1, "%s: digest ignores the seed" % workload)
        traced, _ = run(workload, 1, 1)
        check_metrics(workload, traced, per_layer)
        spans = check_spans(workload, 1)
        print("ok %-16s digest %s, %d spans" % (workload, digest1, spans))
    print("all self-tests passed")


if __name__ == "__main__":
    main()
