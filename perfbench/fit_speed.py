"""Fit the speed exponents of probe.EXPONENTS from result files.

    python3 perfbench/fit_speed.py .perfbench/results/BENCH_*_trace0.json

Give it untraced runs of identical code, several per workload.  For each
phase (decompose, reverify) it tries every exponent beta from 0 to 1.5 in
steps of 0.05, normalises every run's batch total with it, divides each
total by its workload's median and takes the spread of all of them
(quartile distance over median).  It prints the beta with the smallest
spread and, per workload, the spread raw (beta 0), with probe.EXPONENTS and
with the best beta.
"""

import json
import statistics
import sys
from collections import defaultdict

from probe import EXPONENTS, normalise


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def batch_total(result, phase, beta):
    total = 0.0
    for case in result["cases"]:
        samples = case["speed_samples"][phase]
        if case["expected"]["timed"] and samples:
            total += statistics.median(normalise(wall, reading, beta)
                                       for wall, reading in samples)
    return total


def relative_totals(by_workload, phase, beta):
    """Every run's batch total over its workload's median."""
    out = []
    for runs in by_workload.values():
        totals = [batch_total(r, phase, beta) for r in runs]
        median = statistics.median(totals)
        out.extend(t / median for t in totals)
    return out


def main(paths):
    by_workload = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        by_workload[result["workload"]].append(result)
    by_workload = {w: runs for w, runs in by_workload.items() if len(runs) > 1}
    if not by_workload:
        raise SystemExit("give at least two runs of a workload")
    for phase in ("decompose", "reverify"):
        best = min((i / 20 for i in range(31)),
                   key=lambda b: spread(relative_totals(by_workload, phase, b)))
        print(f"{phase}: best beta {best:.2f}, in use {EXPONENTS[phase]}")
        for workload, runs in sorted(by_workload.items()):
            cols = [spread([batch_total(r, phase, b) for r in runs])
                    for b in (0.0, EXPONENTS[phase], best)]
            print(f"  {workload:12s} spread over {len(runs)} runs: raw "
                  f"{cols[0]:.3f}, in use {cols[1]:.3f}, best {cols[2]:.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
