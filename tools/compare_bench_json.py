#!/usr/bin/env python3
"""Validate and compare bbb-bench-report JSON documents.

Every bench and campaign binary in this repo emits the same
schema-versioned document behind ``--json <path>`` (see
src/api/report.hh). This tool is the scripting face of that schema:

  validate   check one or more documents against the schema
  diff       compare a candidate report against a baseline with a
             relative tolerance, exiting non-zero on regression

A report is a pure function of its inputs: it carries no host timings
(benchmark/ measures host performance from outside the library).

Examples:
  tools/compare_bench_json.py validate out/fig7.json
  tools/compare_bench_json.py diff BENCH_baseline.json out/fig7.json
  tools/compare_bench_json.py diff --tolerance 0.10 base.json new.json

Exit status: 0 on success, 1 on schema violation or tolerance failure,
2 on usage/IO errors. Standard library only.
"""

import argparse
import json
import math
import sys

SCHEMA = "bbb-bench-report"
SCHEMA_VERSION = 2

# Fixed top-level sections, in emission order (key order in the file is
# part of the determinism contract, but json.load does not check it; the
# byte-level checks live in the report_determinism ctests).
SECTIONS = ["schema", "schema_version", "bench", "config", "paper",
            "measured", "experiments"]


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_metric_tree(tree, where, errors):
    """A metric tree is nested string-keyed objects with numeric leaves."""
    if not isinstance(tree, dict):
        errors.append(f"{where}: expected an object, got {type(tree).__name__}")
        return
    for key, value in tree.items():
        path = f"{where}.{key}"
        if isinstance(value, dict):
            _check_metric_tree(value, path, errors)
        elif value is None:
            # Non-finite doubles serialize as null; legal but worth noting.
            pass
        elif not _is_number(value):
            errors.append(f"{path}: leaf must be a number, got "
                          f"{type(value).__name__}")


def validate_doc(doc, name):
    """Return a list of schema violations (empty when valid)."""
    errors = []
    if not isinstance(doc, dict):
        return [f"{name}: top level must be an object"]
    for key in SECTIONS:
        if key not in doc:
            errors.append(f"{name}: missing section '{key}'")
    for key in doc:
        if key not in SECTIONS:
            errors.append(f"{name}: unknown section '{key}'")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        errors.append(f"{name}: schema_version is {version}, want "
                      f"{SCHEMA_VERSION} (regenerate the report with the "
                      "current binaries)")
    if errors:
        return errors

    if doc["schema"] != SCHEMA:
        errors.append(f"{name}: schema is '{doc['schema']}', want '{SCHEMA}'")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        errors.append(f"{name}: 'bench' must be a non-empty string")

    config = doc["config"]
    if not isinstance(config, dict):
        errors.append(f"{name}: 'config' must be an object")
    else:
        for k, v in config.items():
            if not isinstance(v, str):
                errors.append(f"{name}: config.{k} must be a string")

    _check_metric_tree(doc["paper"], f"{name}: paper", errors)
    _check_metric_tree(doc["measured"], f"{name}: measured", errors)

    experiments = doc["experiments"]
    if not isinstance(experiments, list):
        errors.append(f"{name}: 'experiments' must be an array")
    else:
        for i, entry in enumerate(experiments):
            where = f"{name}: experiments[{i}]"
            if not isinstance(entry, dict) or set(entry) != {"label",
                                                             "metrics"}:
                errors.append(f"{where}: must be {{label, metrics}}")
                continue
            if not isinstance(entry["label"], str) or not entry["label"]:
                errors.append(f"{where}.label: must be a non-empty string")
            _check_metric_tree(entry["metrics"], f"{where}.metrics", errors)
    return errors


def flatten(tree, prefix=""):
    """Nested metric tree -> {dotted.name: value} (None leaves kept)."""
    flat = {}
    for key, value in tree.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(flatten(value, name))
        else:
            flat[name] = value
    return flat


def comparable_values(doc):
    """Every numeric value of a report, keyed by section-qualified name.

    `paper` values are constants from the source publication, so only
    `measured` and `experiments` take part.
    """
    values = dict(flatten(doc["measured"], "measured"))
    for entry in doc["experiments"]:
        values.update(flatten(entry["metrics"],
                              f"experiments[{entry['label']}]"))
    return values


def _within(base, cand, tolerance):
    if base is None or cand is None:
        return base is None and cand is None
    if math.isclose(base, cand, rel_tol=0.0, abs_tol=0.0):
        return True
    denom = max(abs(base), abs(cand))
    if denom == 0.0:
        return True
    return abs(base - cand) / denom <= tolerance


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def cmd_validate(args):
    status = 0
    for path in args.files:
        errors = validate_doc(load(path), path)
        if errors:
            status = 1
            for err in errors:
                print(err, file=sys.stderr)
        else:
            print(f"{path}: valid {SCHEMA} v{SCHEMA_VERSION}")
    return status


def cmd_diff(args):
    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    for path, doc in ((args.baseline, base_doc), (args.candidate, cand_doc)):
        errors = validate_doc(doc, path)
        if errors:
            for err in errors:
                print(err, file=sys.stderr)
            return 1

    if base_doc["bench"] != cand_doc["bench"]:
        return fail(f"bench mismatch: '{base_doc['bench']}' vs "
                    f"'{cand_doc['bench']}'")

    base = comparable_values(base_doc)
    cand = comparable_values(cand_doc)
    regressions = []
    for name in sorted(set(base) | set(cand)):
        if name not in base:
            # New metrics are additive, not a regression.
            continue
        if name not in cand:
            regressions.append((name, base[name], None, "missing"))
            continue
        if not _within(base[name], cand[name], args.tolerance):
            regressions.append((name, base[name], cand[name], "drift"))

    added = sorted(set(cand) - set(base))
    if added and args.verbose:
        for name in added:
            print(f"  new      {name} = {cand[name]}")
    for name, b, c, why in regressions:
        if why == "missing":
            print(f"  MISSING  {name} (baseline {b})")
        elif b is None or c is None:
            print(f"  DRIFT    {name}: baseline {b} vs {c} "
                  "(null on one side)")
        else:
            rel = abs(b - c) / max(abs(b), abs(c))
            print(f"  DRIFT    {name}: baseline {b} vs {c} "
                  f"({rel * 100:.2f}% > {args.tolerance * 100:.2f}%)")

    total = len(set(base) | set(cand))
    if regressions:
        print(f"{args.candidate}: {len(regressions)} of {total} metrics "
              f"outside tolerance {args.tolerance}")
        return 1
    print(f"{args.candidate}: {total} metrics within tolerance "
          f"{args.tolerance} of {args.baseline}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate",
                                help="schema-check one or more reports")
    p_validate.add_argument("files", nargs="+")
    p_validate.set_defaults(func=cmd_validate)

    p_diff = sub.add_parser("diff",
                            help="compare a report against a baseline")
    p_diff.add_argument("baseline")
    p_diff.add_argument("candidate")
    p_diff.add_argument("--tolerance", type=float, default=0.05,
                        help="max relative drift per metric "
                             "(default: 0.05)")
    p_diff.add_argument("--verbose", action="store_true",
                        help="also list metrics only in the candidate")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
