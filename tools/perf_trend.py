#!/usr/bin/env python3
"""Print a host-performance trend table across bbb-bench-report files.

Reads the ``host`` section (wall clock, simulated ops, events fired and
the derived rates) of every given ``BENCH_*.json`` report — or every
``BENCH_*.json`` in a directory — and prints one row per file, sorted
by file name, so successive committed baselines read as a trend:

  tools/perf_trend.py BENCH_baseline.json out/BENCH_new.json
  tools/perf_trend.py --dir .

Reports written under BBB_REPORT_CANONICAL=1 carry a zeroed host
section; their rows print as '-' (the canonical tree carries no host
timing by design). The trailing ``wr_amp`` column is the mean NVMM
write amplification (``media.write_amplification``) across the
report's experiments — 1.0 on the direct pass-through backend, above
it once the FTL wear model migrates; '-' for reports predating the
media seam. Standard library only.

Exit status: 0 on success, 2 on usage/IO errors.
"""

import argparse
import glob
import json
import os
import sys


COLUMNS = [
    # (header, host key, format)
    ("wall_s", "wall_clock_s", "{:.2f}"),
    ("jobs", "jobs", "{:.0f}"),
    ("sim_ops", "sim_ops", "{:.3e}"),
    ("events", "events_fired", "{:.3e}"),
    ("events/s", "events_per_sec", "{:.3e}"),
    ("ns/op", "ns_per_op", "{:.1f}"),
]


def write_amplification(doc):
    """Mean media.write_amplification across the report's experiments."""
    values = []
    for exp in doc.get("experiments", []):
        media = exp.get("metrics", {}).get("media") \
            if isinstance(exp, dict) else None
        if isinstance(media, dict):
            wa = media.get("write_amplification")
            if isinstance(wa, (int, float)) and not isinstance(wa, bool) \
                    and wa > 0:
                values.append(float(wa))
    if not values:
        return "-"
    return "{:.4f}".format(sum(values) / len(values))


def load_host(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("host"), dict):
        print(f"error: {path}: not a bbb-bench-report (no host section)",
              file=sys.stderr)
        sys.exit(2)
    return doc.get("bench", "?"), doc["host"], write_amplification(doc)


def cell(host, key, fmt):
    value = host.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "-"
    if value == 0:  # canonical report or pre-sim_ops schema
        return "-"
    return fmt.format(float(value))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="bbb-bench-report JSON files")
    parser.add_argument("--dir", action="append", default=[],
                        help="also scan DIR for BENCH_*.json "
                             "(repeatable)")
    args = parser.parse_args(argv)

    paths = list(args.files)
    for d in args.dir:
        paths.extend(sorted(glob.glob(os.path.join(d, "BENCH_*.json"))))
    if not paths:
        parser.error("no report files given")

    rows = []
    for path in paths:
        bench, host, wr_amp = load_host(path)
        row = [os.path.basename(path), bench]
        row += [cell(host, key, fmt) for _, key, fmt in COLUMNS]
        row.append(wr_amp)
        rows.append(row)

    headers = ["file", "bench"] + [h for h, _, _ in COLUMNS] + ["wr_amp"]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    def line(values):
        return "  ".join(v.ljust(w) if i < 2 else v.rjust(w)
                         for i, (v, w) in enumerate(zip(values, widths)))
    print(line(headers))
    print(line(["-" * w for w in widths]))
    for row in rows:
        print(line(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
