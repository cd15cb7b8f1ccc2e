#!/usr/bin/env python3
"""Host-performance benchmark of the BBB simulator.

Builds `hostbench` from benchmark/CMakeLists.txt into benchmark/build,
runs each workload in its own process, checks the simulated outputs
against the committed goldens in benchmark/golden/, and prints every
metric as `workload metric value unit`.

  python3 benchmark/run.py                    # all four workloads, seed 1
  python3 benchmark/run.py --no-trace --append parent.json   # A/B runs
  python3 benchmark/run.py --workload fig7_serial --seed 3 \
      --seconds 20 --trace 0                  # one workload, JSON verdict
  python3 benchmark/run.py --write-goldens    # after a deliberate
                                              # change of simulated results

With --workload the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
--trace 1 also writes a Chrome trace-event file under benchmark/build/.

--seed S selects input set ((S - 1) mod 10) + 1 (S = 0 selects set 10):
the workload seeds and the lifetime campaign seed are that number, and
benchmark/golden/ holds the expected outputs of all ten sets.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_DIR = HERE / "build"
TRACE_DIR = BUILD_DIR / "traces"
GOLDEN_DIR = HERE / "golden"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

WORKLOADS = ("fig7_serial", "fig7_parallel", "persist_storm",
             "crash_lifetimes")
# fig7_serial and fig7_parallel run the same grid, so they share goldens.
GRID = {"fig7_serial": "fig7", "fig7_parallel": "fig7",
        "persist_storm": "persist_storm",
        "crash_lifetimes": "crash_lifetimes"}
INPUT_SETS = 10
GOLDEN_SEEDS = {"bench": range(1, INPUT_SETS + 1), "smoke": range(1, 3)}
DEFAULT_SECONDS = 20
BUILD_JOBS = "3"
HOSTBENCH_TIMEOUT_S = 170

# Paper Fig. 7 averages for BBB-32 relative to eADR.
PAPER_TIME_X = 1.01
PAPER_WRITES_X = 1.049

# The two host-speed probes around a pass took about this long on an
# undisturbed Xeon (2.1 GHz) host. Pass times are scaled by this over the
# measured probe time, so they read as seconds at that host speed.
PROBE_REF_S = 0.045

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ns_per_op": "ns",
                    "host_probe_s": "s", "peak_rss_mb": "MB",
                    "failed_frac": "ratio", "paper_gap_time_pct": "%",
                    "paper_gap_writes_pct": "%"}
RESULTS_SCHEMA = "bbb-hostbench-results"


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def input_set(seed):
    return (seed + INPUT_SETS - 1) % INPUT_SETS + 1


def build():
    """Configure once and build hostbench; returns the binary's path."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        die(f"simulator sources not found at {HERE.parent / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hostbench", "-j", BUILD_JOBS])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            die(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "hostbench"


def run_hostbench(exe, workload, seed, scale, passes=None, seconds=None,
                  trace_path=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--scale", scale]
    cmd += ["--passes", str(passes)] if passes else \
        ["--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HOSTBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: hostbench timed out")
    if proc.returncode != 0:
        die(f"{workload}: hostbench exited with {proc.returncode}")
    return json.loads(proc.stdout)


# --- goldens ------------------------------------------------------------


def golden_path(scale, seed):
    return GOLDEN_DIR / f"{scale}-seed{seed:02d}.json"


def unit_fields(doc):
    return {u["label"]: {k: v for k, v in u.items() if k != "label"}
            for u in doc["units"]}


def golden_mismatches(doc, scale, seed):
    """('match'|'mismatch'|'none', labels that do not match)."""
    path = golden_path(scale, seed)
    if not path.is_file():
        return "none", set()
    want = json.loads(path.read_text())[GRID[doc["workload"]]]
    got = unit_fields(doc)
    bad = {label for label in set(want) | set(got)
           if want.get(label) != got.get(label)}
    return ("mismatch" if bad else "match"), bad


def write_golden_file(path, scale, seed, grids):
    """One unit per line, so a changed unit reads as a one-line diff."""
    lines = ["{", f'  "scale": "{scale}",', f'  "seed": {seed},']
    for gi, (grid, units) in enumerate(grids.items()):
        lines.append(f'  "{grid}": {{')
        for ui, (label, fields) in enumerate(units.items()):
            comma = "," if ui + 1 < len(units) else ""
            lines.append(f"    {json.dumps(label)}: "
                         f"{json.dumps(fields)}{comma}")
        lines.append("  }" + ("," if gi + 1 < len(grids) else ""))
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def write_goldens(exe):
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scale, seeds in GOLDEN_SEEDS.items():
        for seed in seeds:
            grids = {}
            for workload in ("fig7_serial", "persist_storm",
                             "crash_lifetimes"):
                doc = run_hostbench(exe, workload, seed, scale, passes=1)
                if doc["failures"]:
                    die(f"{workload} seed {seed}: refusing to record "
                        f"failing units: {doc['failures']}")
                grids[GRID[workload]] = unit_fields(doc)
            write_golden_file(golden_path(scale, seed), scale, seed, grids)
            print(f"wrote {golden_path(scale, seed).relative_to(HERE)}")


# --- metrics --------------------------------------------------------------


def median_n(values):
    return {"value": statistics.median(values), "n": len(values)}


def host_scaled(values, passes):
    """Median over the passes of value * PROBE_REF_S / the pass's probe."""
    return median_n([v * PROBE_REF_S / p["probe_s"]
                     for v, p in zip(values, passes)])


def geomean(values):
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def paper_gaps(doc):
    """|geomean BBB-32 / eADR - paper| / paper, in %, over the fig7 grid."""
    units = unit_fields(doc)
    time_x, writes_x = [], []
    for label, eadr in units.items():
        if not label.endswith("/eadr"):
            continue
        bbb = units[label[:-len("eadr")] + "bbb-mem-side/bbpb32"]
        time_x.append(bbb["exec_ticks"] / eadr["exec_ticks"])
        writes_x.append(bbb["nvmm_writes_effective"] /
                        eadr["nvmm_writes_effective"])
    return {
        "paper_gap_time_pct":
            abs(geomean(time_x) - PAPER_TIME_X) / PAPER_TIME_X * 100,
        "paper_gap_writes_pct":
            abs(geomean(writes_x) - PAPER_WRITES_X) / PAPER_WRITES_X * 100,
    }


def verdict(doc, scale, seed):
    """attempted/failed units over every pass, and the golden status."""
    status, bad = golden_mismatches(doc, scale, seed)
    failing = {}
    for f in doc["failures"]:
        failing.setdefault(f["pass"], set()).add(f["label"])
    attempted = sum(p["units"] for p in doc["passes"])
    failed = sum(len(failing.get(i, set()) | bad)
                 for i in range(len(doc["passes"])))
    return {"attempted": attempted, "failed": failed, "golden": status,
            "failures": sorted({f["label"] + ": " + f["why"]
                                for f in doc["failures"]} |
                               {label + ": golden mismatch"
                                for label in bad})}


def end_to_end(doc, v):
    passes = [p for p in doc["passes"] if not p["traced"]]
    m = {
        "wall_s": host_scaled([p["wall_s"] for p in passes], passes),
        "setup_s": host_scaled([p["setup_s"] for p in passes], passes),
        "ns_per_op": host_scaled([p["run_s"] / p["work_units"] * 1e9
                                  for p in passes], passes),
        "host_probe_s": median_n([p["probe_s"] for p in passes]),
        "peak_rss_mb": {"value": doc["peak_rss_mb"], "n": 1},
        "failed_frac": {"value": v["failed"] / v["attempted"], "n": 1},
    }
    if GRID[doc["workload"]] == "fig7":
        for name, value in paper_gaps(doc).items():
            m[name] = {"value": value, "n": 1}
    for name, entry in m.items():
        entry["unit"] = END_TO_END_UNITS[name]
    return m


def layer_unit(name, work):
    if name in work:
        return "count"
    if name.endswith("_frac") or name == "sim.events_per_op":
        return "ratio"
    if name.endswith("_ns") or name.endswith("_ns_per_page"):
        return "ns"
    return "s"


def per_layer(doc):
    work = doc["work"]
    values = dict(doc["per_layer"])
    values.update(work)
    ops = work["sim.ops"]
    values["sim.events_per_op"] = work["sim.events"] / ops if ops else 0.0
    if work["sim.events"]:
        values["sim.ns_per_event"] = \
            values["api.run_s"] * 1e9 / work["sim.events"]
    return {name: {"value": value, "unit": layer_unit(name, work)}
            for name, value in sorted(values.items())}


def measure(exe, workload, seed, scale, passes, seconds, untraced, traced):
    """One workload in an untraced process, a traced one, or both.

    End-to-end metrics come from untraced passes: those of the untraced
    process when there is one, else the untraced passes a traced process
    interleaves with its traced ones."""
    sets = input_set(seed)
    entry = {"attempted": 0, "failed": 0, "golden": "match", "failures": []}
    docs = []
    if untraced:
        docs.append(run_hostbench(exe, workload, sets, scale, passes,
                                  seconds))
    if traced:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{workload}-seed{seed}.json"
        docs.append(run_hostbench(exe, workload, sets, scale, passes,
                                  seconds, trace_path=path))
        entry["per_layer"] = per_layer(docs[-1])
        entry["trace_file"] = str(path.relative_to(HERE.parent))
    verdicts = [verdict(doc, scale, sets) for doc in docs]
    for v in verdicts:
        entry["attempted"] += v["attempted"]
        entry["failed"] += v["failed"]
        entry["failures"] = sorted(set(entry["failures"]) |
                                   set(v["failures"]))
        if v["golden"] != "match":
            entry["golden"] = v["golden"]
    entry.update(jobs=docs[0]["jobs"], work_unit=docs[0]["work_unit"],
                 work=docs[0]["work"],
                 end_to_end=end_to_end(docs[0], verdicts[0]))
    return entry, docs[0]


def print_lines(workload, entry):
    for name, m in entry["end_to_end"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']} n={m['n']}")
    for name, m in entry.get("per_layer", {}).items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} golden {entry['golden']} "
          f"attempted={entry['attempted']} failed={entry['failed']}")
    for why in entry["failures"][:20]:
        print(f"{workload} FAILED {why}")


# --- results documents --------------------------------------------------------


def host_tag(doc):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "compiler": doc["compiler"], "build_type": doc["build_type"],
            "platform": platform.platform()}


def validate_results(doc):
    """Raise ValueError unless @p doc has the results-document shape."""
    def need(cond, what):
        if not cond:
            raise ValueError(what)
    need(doc.get("schema") == RESULTS_SCHEMA, "schema")
    for key in ("host", "scale", "seed", "input_set", "runs"):
        need(key in doc, f"missing {key}")
    for run in doc["runs"]:
        need(set(run["workloads"]) <= set(WORKLOADS), "unknown workload")
        for name, w in run["workloads"].items():
            for key in ("end_to_end", "work", "attempted", "failed",
                        "golden"):
                need(key in w, f"{name}: missing {key}")
            for metric in ("wall_s", "setup_s", "ns_per_op", "peak_rss_mb",
                           "failed_frac"):
                m = w["end_to_end"].get(metric)
                need(m and isinstance(m["value"], (int, float)) and
                     m["unit"] == END_TO_END_UNITS[metric],
                     f"{name}: bad {metric}")
            for m in w.get("per_layer", {}).values():
                need(isinstance(m["value"], (int, float)) and m["unit"],
                     f"{name}: bad per-layer metric")


def verdict_metrics(entry, trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = spec["per_layer"] if trace else spec["end_to_end"]
    source = entry["per_layer"] if trace else entry["end_to_end"]
    out = {}
    for metric in names:
        m = source[metric["name"]]
        if m["unit"] != metric["unit"]:
            die(f"{metric['name']}: unit {m['unit']} but BENCHMARK.json "
                f"says {metric['unit']}")
        out[metric["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload and end with a JSON verdict")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help="measurement budget per process")
    ap.add_argument("--passes", type=int,
                    help="fixed pass count instead of --seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="with --workload: 1 reports per-layer metrics")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced runs of the report")
    ap.add_argument("--scale", choices=("bench", "smoke"), default="bench")
    ap.add_argument("--results", type=Path,
                    help="write the results document here")
    ap.add_argument("--append", type=Path,
                    help="append this run to a results document")
    ap.add_argument("--hostbench", type=Path,
                    help="use this hostbench binary instead of building")
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    exe = args.hostbench or build()
    if args.write_goldens:
        write_goldens(exe)
        return 0

    if args.workload:
        trace = bool(args.trace)
        entry, _ = measure(exe, args.workload, args.seed, args.scale,
                           args.passes, args.seconds, not trace, trace)
        print_lines(args.workload, entry)
        print(json.dumps({
            "correct": entry["failed"] == 0 and entry["golden"] != "mismatch",
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": verdict_metrics(entry, trace),
        }))
        return 0

    run = {"traced": not args.no_trace, "workloads": {}}
    first = None
    for workload in WORKLOADS:
        entry, doc = measure(exe, workload, args.seed, args.scale,
                             args.passes, args.seconds, True,
                             not args.no_trace)
        first = first or doc
        run["workloads"][workload] = entry
        print_lines(workload, entry)

    target = args.append or args.results or BUILD_DIR / "results.json"
    doc = {"schema": RESULTS_SCHEMA, "host": host_tag(first),
           "scale": args.scale, "seed": args.seed,
           "input_set": input_set(args.seed), "runs": []}
    if args.append and target.is_file():
        doc = json.loads(target.read_text())
        if (doc.get("scale"), doc.get("seed")) != (args.scale, args.seed):
            die(f"{target} holds scale/seed {doc.get('scale')}/"
                f"{doc.get('seed')}, not {args.scale}/{args.seed}")
    doc["runs"].append(run)
    validate_results(doc)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results: {target}")
    ok = all(w["failed"] == 0 and w["golden"] != "mismatch"
             for w in run["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
