#!/usr/bin/env python3
"""Compare BENCH_*.json telemetry against committed baselines.

Every telemetry bench (bench/) writes a BENCH_<name>.json next to its
text output: schema-2 flat records {cell, experiment, metric, seed,
trials, value} with an optional peak_rss_bytes.  This script compares a
freshly generated set of files against the baselines committed under
bench/baselines/ and fails when

  * a baseline record is missing from the current run,
  * a deterministic `value` differs at all at matching (seed, trials),
  * a record's peak RSS grows by more than 25%, or
  * with --min-speedup, the best speedup_vs_t1 record is below the floor.

ctest runs it once per smoke bench (`bench.baseline.<name>`, registered
in bench/CMakeLists.txt): the bench writes into its own current dir and
only the baselines it produced are compared.

Records hold reproducible values only; the one wall-derived metric,
tick_parallel's speedup_vs_t1, is exempt from the value check and gated
by --min-speedup alone.  perfbench/ is the repo's speed instrument.

Usage:
  compare_bench.py --baseline-dir bench/baselines --current-dir out
  compare_bench.py ... --min-speedup 2         # thread-scaling floor
  compare_bench.py --self-test                 # prove every gate trips
Exit codes: 0 ok, 1 regression/drift found, 2 usage, missing,
unreadable or wrong-schema files.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

SCHEMA_VERSION = 2

# Allowed fractional peak-RSS increase for records carrying
# peak_rss_bytes.
MAX_RSS_REGRESSION = 0.25
# The metric --min-speedup scans (`dhtlb_bench tick_parallel`'s curve).
SPEEDUP_METRIC = "speedup_vs_t1"


class BadFile(Exception):
    """A telemetry file that cannot be read or is not schema 2."""


def load_records(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BadFile(f"{path}: unreadable: {e}") from e
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION or not isinstance(doc.get("records"), list):
        raise BadFile(f"{path}: unsupported schema_version {version!r} "
                      f"(expected {SCHEMA_VERSION})")
    return doc["records"]


def index_by_key(records):
    return {(r["cell"], r["metric"]): r for r in records}


def compare_file(name, base_path, cur_path, failures):
    base_idx = index_by_key(load_records(base_path))
    cur_idx = index_by_key(load_records(cur_path))

    for key, base_r in sorted(base_idx.items()):
        cur_r = cur_idx.get(key)
        if cur_r is None:
            failures.append(f"{name}: record {key} missing from current run")
            continue

        # Memory is machine-comparable.  The field is optional: only
        # records where both sides measured it are gated.
        base_rss = base_r.get("peak_rss_bytes", 0)
        cur_rss = cur_r.get("peak_rss_bytes", 0)
        if base_rss > 0 and cur_rss > 0:
            rss_ratio = cur_rss / base_rss
            if rss_ratio > 1.0 + MAX_RSS_REGRESSION:
                failures.append(
                    f"{name}: {key} peak-RSS regression: "
                    f"{base_rss} -> {cur_rss} bytes ({rss_ratio:.2f}x, "
                    f"limit {1.0 + MAX_RSS_REGRESSION:.2f}x)")

        # A ratio of wall clocks: only the --min-speedup floor applies.
        if key[1] == SPEEDUP_METRIC:
            continue
        same_config = ((base_r["seed"], base_r["trials"])
                       == (cur_r["seed"], cur_r["trials"]))
        if same_config and base_r["value"] != cur_r["value"]:
            failures.append(
                f"{name}: {key} value drift at same seed/trials: "
                f"{base_r['value']!r} -> {cur_r['value']!r}")

    for key in sorted(set(cur_idx) - set(base_idx)):
        print(f"note: {name}: new record {key} (not in baseline)")


def check_speedup_floor(current_dir, min_speedup, failures):
    """Enforces --min-speedup against the current run's speedup records.

    Scans every BENCH_*.json in the current dir for positive
    SPEEDUP_METRIC records.  The best one must reach the floor: the
    thread-scaling gate the nightly lane runs on dhtlb_bench tick_parallel
    telemetry, guarded by a core-count check in the workflow.
    """
    best = None
    best_key = None
    for name in sorted(os.listdir(current_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        for r in load_records(os.path.join(current_dir, name)):
            if r["metric"] != SPEEDUP_METRIC or r["value"] <= 0:
                continue
            if best is None or r["value"] > best:
                best = r["value"]
                best_key = f"{name}: ({r['cell']}, {r['metric']})"
    if best is None:
        failures.append(
            f"--min-speedup {min_speedup}: no positive {SPEEDUP_METRIC!r} "
            f"record found in {current_dir}")
    elif best < min_speedup:
        failures.append(
            f"speedup floor: best {SPEEDUP_METRIC} is {best:.2f}x "
            f"({best_key}), below the --min-speedup {min_speedup}x floor")
    else:
        print(f"speedup floor: {best_key} reached {best:.2f}x "
              f"(floor {min_speedup}x)")


def self_test():
    """Feeds each gate a planted regression; every one must trip."""
    base = {
        "schema_version": SCHEMA_VERSION,
        "experiment": "selftest",
        "records": [
            {"cell": "c", "experiment": "selftest", "metric": "m",
             "seed": 0, "trials": 1, "value": 1.0,
             "peak_rss_bytes": 1000000},
            {"cell": "n=1000/t8", "experiment": "selftest",
             "metric": SPEEDUP_METRIC, "seed": 0, "trials": 1,
             "value": 1.4},
        ],
    }

    def planted(mutate):
        doc = copy.deepcopy(base)
        mutate(doc["records"])
        return doc

    legs = [
        ("value drift", "value drift",
         planted(lambda rs: rs[0].update(value=2.0))),
        ("2x RSS growth", "peak-RSS",
         planted(lambda rs: rs[0].update(peak_rss_bytes=2000000))),
        ("missing record", "missing from current run",
         planted(lambda rs: rs.pop(0))),
    ]

    with tempfile.TemporaryDirectory() as tmp:
        def write(subdir, doc):
            d = os.path.join(tmp, subdir)
            os.makedirs(d)
            with open(os.path.join(d, "BENCH_selftest.json"), "w") as f:
                json.dump(doc, f)
            return d

        def compare(cur_dir):
            failures = []
            compare_file("BENCH_selftest.json",
                         os.path.join(base_dir, "BENCH_selftest.json"),
                         os.path.join(cur_dir, "BENCH_selftest.json"),
                         failures)
            return failures

        base_dir = write("base", base)
        for i, (what, marker, doc) in enumerate(legs):
            hits = [f for f in compare(write(f"leg{i}", doc)) if marker in f]
            if not hits:
                print(f"self-test FAILED: {what} was not flagged")
                return 1
            print(f"self-test: {what} correctly flagged: {hits[0]}")

        failures = compare(base_dir)
        if failures:
            print(f"self-test FAILED: identical files flagged: {failures}")
            return 1
        print("self-test: identical files pass")

        # A schema-1 file and a truncated one are not drift: the CLI must
        # exit 2 with one stderr line naming the file.
        old = copy.deepcopy(base)
        old["schema_version"] = 1
        bad_legs = [("schema-1 file", "unsupported schema_version",
                     json.dumps(old)),
                    ("truncated file", "unreadable", json.dumps(base)[:40])]
        for i, (what, marker, text) in enumerate(bad_legs):
            d = os.path.join(tmp, f"bad{i}")
            os.makedirs(d)
            path = os.path.join(d, "BENCH_selftest.json")
            with open(path, "w") as f:
                f.write(text)
            run = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--baseline-dir", base_dir, "--current-dir", d],
                capture_output=True, text=True)
            lines = run.stderr.splitlines()
            if (run.returncode != 2 or len(lines) != 1
                    or path not in lines[0] or marker not in lines[0]):
                print(f"self-test FAILED: {what} gave exit "
                      f"{run.returncode}, stderr {run.stderr!r}")
                return 1
            print(f"self-test: {what} correctly rejected: {lines[0]}")

        # Speedup floor: the 1.4x curve must fail a 2x floor and pass 1.2x.
        failures = []
        check_speedup_floor(base_dir, 2.0, failures)
        if not [f for f in failures if "speedup floor" in f]:
            print("self-test FAILED: 1.4x curve passed a 2x speedup floor")
            return 1
        print(f"self-test: speedup floor correctly flagged: {failures[0]}")
        failures = []
        check_speedup_floor(base_dir, 1.2, failures)
        if failures:
            print(f"self-test FAILED: 1.4x curve failed a 1.2x floor: "
                  f"{failures}")
            return 1
        print("self-test: speedup floor passes above the bar")
    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help=f"require the best {SPEEDUP_METRIC} record in the "
                         f"current dir to reach this ratio (0 = off)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every gate trips on a planted regression")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())

    if not os.path.isdir(args.baseline_dir):
        print(f"error: baseline dir {args.baseline_dir} not found",
              file=sys.stderr)
        sys.exit(2)

    baselines = sorted(f for f in os.listdir(args.baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"error: no BENCH_*.json under {args.baseline_dir}",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    compared = 0
    try:
        for name in baselines:
            cur_path = os.path.join(args.current_dir, name)
            if not os.path.isfile(cur_path):
                print(f"note: {name}: not produced by this run, skipping")
                continue
            compare_file(name, os.path.join(args.baseline_dir, name),
                         cur_path, failures)
            compared += 1

        if compared == 0:
            print("error: no baseline file matched a current file",
                  file=sys.stderr)
            sys.exit(2)

        if args.min_speedup > 0:
            check_speedup_floor(args.current_dir, args.min_speedup, failures)
    except BadFile as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)

    if failures:
        print(f"\ncompare_bench: {len(failures)} failure(s):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print(f"compare_bench: OK ({compared} file(s) compared)")


if __name__ == "__main__":
    main()
