#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``bench/run.py --out DIR``
writes, any number of seeds per workload.  For every workload and every
end-to-end metric in BENCHMARK.json this prints each side's median and
quartiles and the ratio of the medians (change / parent).  A pairing is
"worse" when the change's median is worse than the parent's by more than
the metric's bound, and "unresolved" when the parent's own spread (the
distance between its quartiles, as a share of its median) is wider than
the bound, unless every run of the change reads better than every run of
the parent.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {metric: [values]}} from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        metrics = out.setdefault(record["meta"]["workload"], {})
        for name, m in record["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    if better == "lower":
        always_better = max(change) < min(parent)
    else:
        always_better = min(change) > max(parent)
    if (p3 - p1) / pm > bound and not always_better:
        return "unresolved"
    return "worse" if worse_by > bound else "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':16s} {'metric':16s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'ratio':>7s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            p = parent[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not p or not c:
                continue
            ratio = statistics.median(c) / statistics.median(p)
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            print(f"{workload:16s} {m['name']:16s} {fmt(p):>30s} {fmt(c):>30s} "
                  f"{ratio:7.3f}  {verdict(p, c, m['better'], m['bound'])}"
                  f" (n={len(p)}/{len(c)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
