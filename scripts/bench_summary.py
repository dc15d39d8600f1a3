#!/usr/bin/env python3
"""Summarise benchmark run records into a committed BENCH_<n>.json.

    python3 scripts/bench_summary.py N LABEL=DIR [LABEL=DIR ...]

Each DIR holds the JSON records that perfbench/run.py writes to its
results/ folder; LABEL names the tree they ran on (parent, change, ...).
For each label and workload, the untraced records give the median and
quartiles of every end-to-end metric, with the seeds, commits and CPU
models behind them.  Seeds run under both `parent` and `change` are pairs,
and `wins` counts the pairs whose change is better ("better" as
BENCHMARK.json declares it).  For a workload with pairs, `ratio` is the
change median over the parent median of each metric (None when the
parent's is 0), and `beyond_bound` lists the metrics whose change median
is worse than the parent's by more than the metric's `bound` in
BENCHMARK.json.  Writes BENCH_<N>.json at the repo root.  Stdlib only.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def spread(values):
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, better, bounds):
    """runs: {label: [record]}; better: {metric: "higher" | "lower"};
    bounds: {metric: largest relative worsening}."""
    out = {}
    for label, records in runs.items():
        for rec in records:
            if not rec["trace"]:
                out.setdefault(rec["workload"], {}).setdefault(label, []).append(rec)
    for workload, by_label in out.items():
        paired = {}
        for label, recs in by_label.items():
            by_label[label] = {
                "runs": len(recs),
                "seeds": sorted(r["seed"] for r in recs),
                "commits": sorted({str(r["git_commit"]) for r in recs}),
                "cpu_models": sorted({str(r["cpu_model"]) for r in recs}),
                "metrics": {m: spread([r["metrics"][m] for r in recs]) for m in better},
            }
            paired[label] = {r["seed"]: r["metrics"] for r in recs}
        seeds = sorted(set(paired.get("parent", ())) & set(paired.get("change", ())))
        if seeds:
            sign = {m: 1.0 if b == "higher" else -1.0 for m, b in better.items()}
            med = {label: {m: by_label[label]["metrics"][m]["median"] for m in better}
                   for label in ("parent", "change")}
            by_label["pairs"] = {
                "seeds": seeds,
                "wins": {m: sum(sign[m] * (paired["change"][s][m] - paired["parent"][s][m]) > 0
                                for s in seeds) for m in better},
                "ratio": {m: med["change"][m] / med["parent"][m] if med["parent"][m] else None
                          for m in better},
                "beyond_bound": [m for m in better if sign[m] * (
                    med["change"][m] - med["parent"][m]) < -bounds[m] * abs(med["parent"][m])],
            }
    return out


def main(argv, root=ROOT):
    n, specs = argv[0], [a.split("=", 1) for a in argv[1:]]
    runs = {}
    for label, folder in specs:
        for path in sorted(glob.glob(os.path.join(folder, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                runs.setdefault(label, []).append(json.load(fh))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    path = os.path.join(root, f"BENCH_{int(n)}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summarise(runs, better, bounds), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)


if __name__ == "__main__":
    main(sys.argv[1:])
