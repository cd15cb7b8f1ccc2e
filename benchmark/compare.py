#!/usr/bin/env python3
"""Compare host-benchmark results documents written by run.py.

  compare.py ab PARENT.json CHANGE.json
      One row per workload x end-to-end metric, with status improved,
      unchanged, worse or unresolved. A gain needs at least 10 interleaved
      pairs, a win in at least 9/10 of them (ties count for neither) and a
      median gap larger than the parent's interquartile range. A metric
      whose median is worse than the parent's by more than its bound is
      worse; one whose parent spread (IQR / median) exceeds the bound is
      unresolved unless every change run beats every parent run.

  compare.py check-sets A.json [B.json]
      Exit 1 when the medians of any end-to-end metric differ by more than
      its bound, or an exact metric or a work count differs at all. With
      one file, compares its first two untraced runs (the two committed
      sets in benchmark/results/seed.json).

Bounds and directions come from BENCHMARK.json; failed_frac and the
paper-gap metrics are exact (deterministic for one seed). Standard
library only.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
EXACT = ("failed_frac", "paper_gap_time_pct", "paper_gap_writes_pct")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path=BENCHMARK_JSON):
    """{metric: (bound, lower_is_better)}; exact metrics have bound 0."""
    spec = json.loads(Path(path).read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower")
              for m in spec["end_to_end"]}
    for name in EXACT:
        bounds[name] = (0.0, True)
    return bounds


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def series(doc, workload, metric):
    """The metric's value in every run of @p doc that measured it."""
    out = []
    for run in doc["runs"]:
        m = run["workloads"].get(workload, {}).get("end_to_end", {})
        if metric in m:
            out.append(m[metric]["value"])
    return out


def classify(parent, change, bound, lower_better, exact):
    """Status of one metric, by the rule in the module docstring."""
    sign = 1.0 if lower_better else -1.0
    mp = statistics.median(parent)
    mc = statistics.median(change)
    gain = sign * (mp - mc)  # > 0: the change is better
    if exact:
        return "unchanged" if mc == mp else \
            ("improved" if gain > 0 else "worse")
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and
            gain > iqr(parent)):
        return "improved"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if mp and iqr(parent) / abs(mp) > bound and not all_better:
        return "unresolved"
    if mp and -gain / abs(mp) > bound:
        return "worse"
    return "unchanged"


def ab(parent, change, bounds, out=sys.stdout):
    """Print the A/B table; returns {(workload, metric): status}."""
    statuses = {}
    workloads = [w for w in parent["runs"][0]["workloads"]
                 if w in change["runs"][0]["workloads"]]
    print(f"{'workload':16} {'metric':22} {'parent [q1, q3]':>30} "
          f"{'change [q1, q3]':>30} {'wins':>7}  status", file=out)
    for w in workloads:
        for metric, (bound, lower) in bounds.items():
            p, c = series(parent, w, metric), series(change, w, metric)
            if not p or not c:
                continue
            status = classify(p, c, bound, lower, metric in EXACT)
            statuses[(w, metric)] = status
            sign = 1.0 if lower else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (a - b) > 0)
            print(f"{w:16} {metric:22} {fmt_quartiles(p):>30} "
                  f"{fmt_quartiles(c):>30} "
                  f"{wins:>3}/{min(len(p), len(c)):<3}  {status}",
                  file=out)
    return statuses


def fmt_quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def untraced_runs(doc):
    return [r for r in doc["runs"] if not r.get("traced")]


def check_sets(a, b, bounds, out=sys.stdout):
    """True when sets @p a and @p b agree within every bound."""
    if a.get("input_set") != b.get("input_set"):
        print("sets measured different input sets", file=out)
        return False
    ok = True
    workloads = [w for w in a["runs"][0]["workloads"]
                 if w in b["runs"][0]["workloads"]]
    for w in workloads:
        for metric, (bound, _) in bounds.items():
            va, vb = series(a, w, metric), series(b, w, metric)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if metric in EXACT:
                good = ma == mb
                diff = "exact" if good else f"{ma} != {mb}"
            else:
                rel = (mb - ma) / abs(ma) if ma else 0.0
                good = abs(rel) <= bound
                diff = f"{rel * 100:+.2f}% of bound {bound * 100:g}%"
            ok = ok and good
            print(f"{w:16} {metric:22} {ma:12.6g} {mb:12.6g}  {diff:28} "
                  f"{'ok' if good else 'FAIL'}", file=out)
        wa = a["runs"][0]["workloads"][w]["work"]
        wb = b["runs"][0]["workloads"][w]["work"]
        same = wa == wb
        ok = ok and same
        print(f"{w:16} {'work counts':22} {'identical' if same else 'DIFFER'}",
              file=out)
    return ok


def load(path):
    return json.loads(Path(path).read_text())


def main(argv):
    if len(argv) == 3 and argv[0] == "ab":
        ab(load(argv[1]), load(argv[2]), load_bounds())
        return 0
    if argv and argv[0] == "check-sets" and len(argv) in (2, 3):
        a = load(argv[1])
        if len(argv) == 3:
            b = load(argv[2])
        else:
            runs = untraced_runs(a)
            if len(runs) < 2:
                print(f"{argv[1]} holds fewer than two untraced runs",
                      file=sys.stderr)
                return 2
            a, b = dict(a, runs=[runs[0]]), dict(a, runs=[runs[1]])
        return 0 if check_sets(a, b, load_bounds()) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
