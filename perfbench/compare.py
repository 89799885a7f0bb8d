#!/usr/bin/env python3
"""Per-layer compare of two commits' traced runs.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a traced output of perfbench/run.py --trace 1 (a
perfbench/_out/<workload>-seed<N>-trace1.json file) or a directory of
them. For every workload both sides ran, each per-layer metric is printed
with its change beside its own run-to-run spread: the distance between
the quartiles of its values over the side's runs, as a share of their
median. With one run on a side, the spread of its per-round figures
stands in. A change larger than both sides' spreads is marked.
"""

import json
import os
import statistics
import sys


def load(path):
    """workload -> list of traced run records found at path."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith("-trace1.json")]
             if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("traced"):
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values):
    """Interquartile distance as a share of the median (None if unknown)."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    med = statistics.median(values)
    if med == 0:
        return 0.0 if max(values) == min(values) else None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(med)


def side(runs, name):
    """(median value, spread) of one metric over one side's runs."""
    values = [r["metrics"][name]["value"] for r in runs]
    if len(runs) > 1:
        return statistics.median(values), spread(values)
    return values[0], spread(runs[0]["metrics"][name]["rounds"])


def pct(x):
    return "   n/a" if x is None else "%+6.1f%%" % (100 * x)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    common = sorted(set(old) & set(new))
    if not common:
        print("no workload was traced on both sides", file=sys.stderr)
        return 1
    for w in common:
        print("%s: %d old run(s), %d new run(s)" % (w, len(old[w]), len(new[w])))
        print("  %-28s %-6s %14s %14s %8s %8s" %
              ("metric", "unit", "old", "new", "change", "spread"))
        for name, m in old[w][0]["metrics"].items():
            if name not in new[w][0]["metrics"]:
                continue
            o, so = side(old[w], name)
            n, sn = side(new[w], name)
            change = (n - o) / abs(o) if o else None
            spreads = [s for s in (so, sn) if s is not None]
            worst = max(spreads) if spreads else None
            moved = (change is not None and worst is not None
                     and abs(change) > worst)
            print("  %-28s %-6s %14.6g %14.6g %8s %8s%s" %
                  (name, m["unit"], o, n, pct(change),
                   pct(worst).replace("+", " "), "  <-- moved" if moved else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
