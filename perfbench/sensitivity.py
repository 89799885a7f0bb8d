#!/usr/bin/env python3
"""Fits the contention correction's constants from untraced details files.

    python3 perfbench/sensitivity.py FILE_OR_DIR...

Reads the details files that untraced runs write to perfbench/_out/ and
prints, per workload and over all of them:

- the slope of log(op wall time) against log(mean reference-kernel time
  around the op), fitted within each program (each program's own mean
  taken off both sides, then pooled): how much faster than the kernel
  the ops slow down on a contended host, the harness's [sensitivity];
- the kernel's idle time, the 2nd percentile of every kernel time seen,
  and how far corrected times read from uncontended wall times because
  the harness's [reference_s] differs from it.
"""

import json
import math
import os
import sys


def details(paths):
    for path in paths:
        if os.path.isdir(path):
            names = sorted(os.listdir(path))
            files = [os.path.join(path, n) for n in names
                     if n.endswith("-trace0.json")]
        else:
            files = [path]
        for f in files:
            with open(f) as fh:
                yield json.load(fh)


def slope(groups):
    """Least-squares slope of y on x, each group centred on its own mean."""
    sxy = sxx = 0.0
    n = 0
    for pts in groups:
        if len(pts) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        n += len(pts)
    return (sxy / sxx if sxx > 0 else float("nan")), n


def percentile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    by_workload = {}
    kernels = []
    runs = {}
    for d in details(sys.argv[1:]):
        reference_s, sensitivity = d["reference_s"], d["sensitivity"]
        w = d["workload"]
        runs[w] = runs.get(w, 0) + 1
        groups = by_workload.setdefault(w, {})
        for prog, walls in d["op_wall_s_by_round"].items():
            for wall, ks in zip(walls, d["op_kernels_by_round"][prog]):
                kernels.extend(ks)
                mean_k = sum(ks) / len(ks)
                groups.setdefault((d["seed"], prog), []).append(
                    (math.log(mean_k), math.log(wall)))
    if not by_workload:
        print("no untraced details files given", file=sys.stderr)
        return 1
    print("%-10s %5s %7s %9s" % ("workload", "runs", "ops", "slope"))
    for w in sorted(by_workload):
        s, n = slope(by_workload[w].values())
        print("%-10s %5d %7d %9.3f" % (w, runs[w], n, s))
    s, n = slope(g for gs in by_workload.values() for g in gs.values())
    print("%-10s %5d %7d %9.3f" % ("all", sum(runs.values()), n, s))
    idle = percentile(kernels, 0.02)
    print("kernel idle time (2nd percentile of %d): %.4f ms"
          % (len(kernels), idle * 1e3))
    print("uncontended calls read %+.1f%% off their wall time "
          "(reference %.4f ms, sensitivity %g)"
          % (((reference_s / idle) ** sensitivity - 1) * 100,
             reference_s * 1e3, sensitivity))
    return 0


if __name__ == "__main__":
    sys.exit(main())
