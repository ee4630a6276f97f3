#!/usr/bin/env python3
"""Quartiles across runs, from the run table.

Usage, from the root of a checkout, after some runs::

    python3 perfbench/summary.py [--trace 0|1]

For each workload and metric: the number of runs, the first quartile,
median and third quartile (``statistics.quantiles(n=4)``), and the
spread, the inter-quartile distance as a share of the median.  For an
end-to-end metric it also prints ``BENCHMARK.json``'s bound and whether
the spread is within a third of it.
"""

from __future__ import annotations

import argparse
import csv
import json
from typing import Dict, List

import stats
from run import OUT, benchmark_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    spec = benchmark_spec()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {}
    with (OUT / "run_table.csv").open() as handle:
        for row in csv.DictReader(handle):
            if row["trace"] != str(arguments.trace):
                continue
            for name, value in json.loads(row["metrics"]).items():
                values.setdefault(row["workload"], {}).setdefault(name, []).append(value)
    for workload, metrics in values.items():
        print(f"== {workload}")
        for name, samples in metrics.items():
            if len(samples) < 2:
                print(f"  {name:34s} n={len(samples)}")
                continue
            q1, q2, q3 = stats.quartiles(samples)
            spread = stats.relative_spread(samples) if q2 else 0.0
            line = f"  {name:34s} n={len(samples):<3d} q1 {q1:12.6g}  median {q2:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}"
            if name in bounds:
                steady = "ok" if spread < bounds[name] / 3 else "over bound/3"
                line += f"  bound {bounds[name]}  {steady}"
            print(line)


if __name__ == "__main__":
    main()
