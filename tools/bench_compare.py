"""Compare two recorded BENCH_*.json files, metric by metric; runs nothing.

    python3 tools/bench_compare.py OLD.json NEW.json

A BENCH file holds the last-line JSON of each `perfbench/run.py` run, keyed
by workload, trace and seed (`runs.<workload>.trace0.seed<n>.result`). For
each workload and end-to-end metric that BENCHMARK.json names, prints each
file's median over its untraced (`trace0`) seeds, the relative change
(new - old) / old, the metric's bound, and `WORSE` where the change goes the
wrong way (by the metric's `better`) by more than the bound, a share of the
old median, else `within`. A workload or metric one file lacks prints
`absent`. Exits 1 when a metric is worse beyond its bound, else 0.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def medians(bench, workload):
    """Median of each metric over the untraced seeds of one workload."""
    values = {}
    for run in bench["runs"].get(workload, {}).get("trace0", {}).values():
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(old, new, metric):
    """The relative change from old to new, and whether it is worse than the
    metric's bound allows."""
    change = (new - old) / old if old else (0.0 if new == old else math.inf)
    worse = change if metric["better"] == "lower" else -change
    return change, worse > metric["bound"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", help="the earlier BENCH_*.json")
    ap.add_argument("new", help="the later BENCH_*.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    benches = []
    for path in (args.old, args.new):
        with open(path) as fh:
            benches.append(json.load(fh))
    print(f"{'workload':<10}{'metric':<13}{'old':>12}{'new':>12}{'change':>10}{'bound':>8}"
          "  verdict")
    any_worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        old, new = (medians(bench, workload) for bench in benches)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in old or name not in new:
                print(f"{workload:<10}{name:<13}  absent")
                continue
            change, worse = compare(old[name], new[name], metric)
            any_worse |= worse
            print(f"{workload:<10}{name:<13}{old[name]:>12.6g}{new[name]:>12.6g}"
                  f"{change:>+10.2%}{metric['bound']:>8.0%}  {'WORSE' if worse else 'within'}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
