#!/usr/bin/env python3
"""Compare two sets of idrepair benchmark result files.

    python3 benchmark/compare.py A/*.json -- B/*.json
    python3 benchmark/compare.py A/*.json            # summarize one set

Result files are the JSON files run.sh writes (one per workload and run).
For every workload and metric, prints the median and quartiles of each set
and, for the end-to-end metrics, a verdict against the bound in
BENCHMARK.json:

    ok          B's median is not worse than A's by more than the bound
    worse       it is
    unresolved  a set's spread (Q3 - Q1, as a share of its median) exceeds
                the bound, unless every run of B reads better than every
                run of A (then ok) or worse than every run of A (then worse)

It also checks the failed share of operations (failed / attempted), which
may not increase. Exits 1 when any verdict is worse or unresolved, when a
result file failed a correctness gate ("correct": false), or when a
workload or metric of one set is missing from the other.
"""

import json
import os
import statistics
import sys


def load_spec():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], m)
    return metrics


def load_results(paths):
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}"""
    sets = {}
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        if result.get("benchmark") != "idrepair":
            raise SystemExit(f"{path}: not an idrepair benchmark result file")
        w = sets.setdefault(result["workload"],
                            {"metrics": {}, "attempted": 0, "failed": 0,
                             "runs": 0, "incorrect": []})
        w["runs"] += 1
        if not result["correct"]:
            w["incorrect"].append(path)
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            w["metrics"].setdefault(name, []).append(m["value"])
    return sets


def summary(values):
    """(median, Q1, Q3, spread as a share of the median)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(spec, a, b):
    if spec is None or "bound" not in spec:
        return "-"
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    ma, _, _, sa = summary(a)
    mb, _, _, sb = summary(b)

    def worse(x, y):  # y worse than x
        return y > x if lower else y < x

    if max(sa, sb) > bound:
        if all(worse(y, x) for x in a for y in b):
            return "ok"
        if all(worse(x, y) for x in a for y in b):
            return "worse"
        return "unresolved"
    change = (mb - ma) / abs(ma) if ma else 0.0
    if not lower:
        change = -change
    return "worse" if change > bound else "ok"


def fmt(v):
    return f"{v:.6g}"


def main(argv):
    if "--" in argv:
        split = argv.index("--")
        paths_a, paths_b = argv[:split], argv[split + 1:]
    else:
        paths_a, paths_b = argv, []
    if not paths_a:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    a_sets = load_results(paths_a)
    b_sets = load_results(paths_b) if paths_b else {}
    bad = 0
    for path in (p for s in (a_sets, b_sets) for w in s.values()
                 for p in w["incorrect"]):
        print(f"{path}: failed a correctness gate")
        bad += 1
    if b_sets:
        for workload in sorted(set(a_sets) ^ set(b_sets)):
            side = "B" if workload in a_sets else "A"
            print(f"{workload}: missing from {side}")
            bad += 1

    for workload in sorted(a_sets):
        a = a_sets[workload]
        b = b_sets.get(workload)
        if b_sets and not b:
            continue
        print(f"== {workload}  (A: {a['runs']} runs"
              + (f", B: {b['runs']} runs)" if b else ")"))
        if b:
            print(f"  {'metric':34} {'A median':>12} {'A q1..q3':>25} "
                  f"{'B median':>12} {'B q1..q3':>25} {'change':>8}  verdict")
        else:
            print(f"  {'metric':34} {'median':>12} {'q1..q3':>25} "
                  f"{'spread':>8}  bound")
        for name, values in a["metrics"].items():
            m = spec.get(name)
            ma, qa1, qa3, sa = summary(values)
            if not b:
                bound = m.get("bound", "-") if m else "-"
                print(f"  {name:34} {fmt(ma):>12} "
                      f"{fmt(qa1) + '..' + fmt(qa3):>25} {sa:8.2%}  {bound}")
                continue
            if name not in b["metrics"]:
                print(f"  {name:34} missing from B")
                bad += 1
                continue
            bv = b["metrics"][name]
            mb, qb1, qb3, _ = summary(bv)
            change = (mb - ma) / abs(ma) if ma else 0.0
            v = verdict(m, values, bv)
            if v in ("worse", "unresolved"):
                bad += 1
            print(f"  {name:34} {fmt(ma):>12} {fmt(qa1) + '..' + fmt(qa3):>25}"
                  f" {fmt(mb):>12} {fmt(qb1) + '..' + fmt(qb3):>25}"
                  f" {change:+8.2%}  {v}")
        for name in b["metrics"] if b else ():
            if name not in a["metrics"]:
                print(f"  {name:34} missing from A")
                bad += 1
        fa = a["failed"] / max(a["attempted"], 1)
        line = f"  {'failed_ratio':34} {fmt(fa):>12}"
        if b:
            fb = b["failed"] / max(b["attempted"], 1)
            v = "worse" if fb > fa else "ok"
            if v == "worse":
                bad += 1
            line += f" {'':>25} {fmt(fb):>12} {'':>25} {'':>8}  {v}"
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
