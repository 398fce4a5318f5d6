#!/usr/bin/env python3
"""Fixed-work, fingerprint-checked benchmark for dhtlb.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload invite_stream_250k --seed 42 --seconds 10 --trace 0

Builds perfbench/ (the library sources plus perfbench.cpp) into
.bench_build/perfbench on first use, runs one workload once through the
perfbench binary, checks the result, and prints two JSON lines on
stdout: a provenance/diagnostics line, then the result line
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 means the
correctness gate passed.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a probed run (see perfbench/README.md).  Every workload does
a fixed amount of simulated work; --seconds is the nominal loop length
that work was sized to and never cuts a run short.  The gated times are
process CPU times, which leave out the hypervisor steal a shared VM
adds to wall time; the wall-clock figures are reported per layer.

Extra flags for developing the benchmark itself:
  --scale tiny              10k-vnode / few-script sizes (smoke.py)
  --expect-fingerprint HEX  pin the end-state fingerprint (negative control)
  --write-expected          pin this seed's counts + fingerprint (full scale)
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 42
BINARY_TIMEOUT_S = 80
MIN_COVERAGE = 0.95

WORKLOADS = ["invite_stream_250k", "serve_zipf_100k", "fuzz_mixed_audited"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_cpu_s": "1/s",
    "peak_rss_mib": "MiB",
}

AUDIT_CHECKS = ["index_integrity", "ring_order", "key_partition",
                "successor_lists", "sybil_ownership", "workload_cache",
                "membership", "conservation"]

PER_LAYER_UNITS = {
    "sim.churn_arrivals_ms": "ms",
    "sim.consume_ms": "ms",
    "sim.tail_ms": "ms",
    "sim.build_ms": "ms",
    "sim.tick_unsplit_ms": "ms",
    "sim.tick_ms_p50": "ms",
    "sim.tick_ms_p90": "ms",
    "sim.ticks_timed": "count",
    "sim.joins": "count",
    "sim.leaves": "count",
    "sim.vnodes_end": "count",
    "sim.tasks_done": "count",
    "sim.tasks_arrived": "count",
    "sim.state_fingerprint": "hash53",
    "wall.ops_per_s": "1/s",
    "wall.setup_s": "s",
    "lb.decide_ms": "ms",
    "lb.decide_ms_per_round": "ms",
    "lb.rounds": "count",
    "lb.sybils_created": "count",
    "lb.sybils_retired": "count",
    "lb.invitations_sent": "count",
    "lb.invitations_accepted": "count",
    "lb.accept_ratio": "ratio",
    "lb.tasks_acquired": "count",
    "serve.reader_wait_ms": "ms",
    "serve.freeze_publish_ms": "ms",
    "serve.lookups": "count",
    "serve.hops_mean": "hops",
    "serve.views_published": "count",
    "serve.views_reclaimed": "count",
    "audit.ms": "ms",
    **{f"audit.{c}_ms": "ms" for c in AUDIT_CHECKS},
    "scenario.generate_ms": "ms",
    "scenario.roundtrip_ms": "ms",
    "scenario.run_ms": "ms",
    "scenario.scripts": "count",
    "scenario.ticks": "count",
    "proc.minor_faults": "count",
    "proc.sys_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "ops_failed_frac": "ratio",
}

# Layer times that together must account for the traced tick loop.
COVERAGE_LAYERS = ["sim.churn_arrivals_ms", "sim.consume_ms", "sim.tail_ms",
                   "sim.build_ms", "sim.tick_unsplit_ms", "lb.decide_ms",
                   "serve.reader_wait_ms", "serve.freeze_publish_ms",
                   "audit.ms"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.exists()


def run_binary(args):
    """Runs perfbench; returns (planned_ops, result dict or None)."""
    cmd = [str(BINARY)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {BINARY_TIMEOUT_S} s: {' '.join(cmd)}")
        return 0, None
    planned, result = 0, None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "planned_ops" in obj:
            planned = obj["planned_ops"]
        else:
            result = obj
    if proc.returncode != 0:
        log(f"exit code {proc.returncode}: {' '.join(cmd)}")
        result = None
    return planned, result


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-1 over the sources the benchmark builds: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha1()
    files = sorted(list((ROOT / "src").rglob("*.[ch]pp")) +
                   list((ROOT / "bench" / "harness").glob("*.[ch]pp")) +
                   [p for p in HERE.iterdir() if p.is_file()])
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(res):
    return {
        "setup_s": statistics.median(res["setup_cpu_ms"]) / 1000.0,
        "ops_per_cpu_s": res["ops"] / (res["cpu_ms"] / 1000.0),
        "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
    }


def per_layer(res, traced):
    """Layer metrics from a traced run and its untraced twin `res`."""
    layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layers.update(traced["layers"])
    layers.update(traced["counts"])
    ticks = res["tick_ms"]  # untraced per-tick times
    layers["sim.tick_ms_p50"] = statistics.median(ticks)
    layers["sim.tick_ms_p90"] = percentile(ticks, 90)
    layers["sim.ticks_timed"] = len(ticks)
    layers["sim.state_fingerprint"] = int(res["fingerprint"], 16) & (2**53 - 1)
    layers["wall.ops_per_s"] = res["ops"] / (res["wall_ms"] / 1000.0)
    layers["wall.setup_s"] = statistics.median(res["setup_ms"]) / 1000.0
    if layers["lb.rounds"]:
        layers["lb.decide_ms_per_round"] = (layers["lb.decide_ms"] /
                                            layers["lb.rounds"])
    if layers["lb.invitations_sent"]:
        layers["lb.accept_ratio"] = (layers["lb.invitations_accepted"] /
                                     layers["lb.invitations_sent"])
    usage = res["usage"]  # untraced loop
    wall_s = res["wall_ms"] / 1000.0
    layers["proc.minor_faults"] = usage["minor_faults"]
    layers["proc.sys_s"] = usage["sys_s"]
    layers["proc.cpu_per_wall"] = (usage["user_s"] + usage["sys_s"]) / wall_s
    layers["trace.coverage"] = coverage(traced)
    layers["trace.overhead_frac"] = traced["wall_ms"] / res["wall_ms"] - 1
    return {k: layers[k] for k in PER_LAYER_UNITS}


def coverage(traced):
    covered = sum(traced["layers"].get(k, 0.0) for k in COVERAGE_LAYERS)
    return covered / traced["wall_ms"]


def correctness(args, res, traced):
    """Every reason the run is wrong; empty when it passed."""
    misses = list(res["failures"])
    pinned = json.loads(EXPECTED.read_text()).get(args.workload)
    if args.scale != "full" or not pinned or pinned["seed"] != args.seed:
        pinned = None
    if pinned and res["counts"] != pinned["counts"]:
        misses.append(f"counts differ from {EXPECTED.name}: "
                      f"{res['counts']} != {pinned['counts']}")
    want = args.expect_fingerprint or (pinned and pinned["fingerprint"])
    if want and res["fingerprint"] != want:
        misses.append(f"fingerprint {res['fingerprint']} != expected {want}")
    if traced:
        misses += traced["failures"]
        if traced["fingerprint"] != res["fingerprint"]:
            misses.append(f"traced fingerprint {traced['fingerprint']} "
                          f"!= untraced {res['fingerprint']}")
        if traced["counts"] != res["counts"]:
            misses.append("traced counts differ from untraced counts")
        if coverage(traced) < MIN_COVERAGE:
            misses.append(f"layer times cover only {coverage(traced):.3f} "
                          f"of the traced loop (< {MIN_COVERAGE})")
    return misses


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--expect-fingerprint", default=None)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    if not build():
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    # A traced run is a pair of fresh processes: the untraced loop (one
    # setup) and the probed loop.
    planned, res = run_binary(common + ["--trace", "0"] +
                              (["--setup-reps", "1"] if args.trace else []))
    traced = None
    if args.trace and res is not None:
        traced = run_binary(common + ["--trace", "1"])[1]
    attempted = max(1, planned)
    if res is None or (args.trace and traced is None):
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1

    if args.write_expected and args.scale == "full":
        pins = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        pins[args.workload] = {"seed": args.seed,
                               "fingerprint": res["fingerprint"],
                               "counts": res["counts"]}
        EXPECTED.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        log(f"pinned {args.workload} at seed {args.seed} in {EXPECTED}")

    misses = correctness(args, res, traced)
    for miss in misses:
        log("CORRECTNESS MISS: " + miss)
    failed = attempted if misses else 0
    if args.trace:
        values = per_layer(res, traced)
        values["ops_failed_frac"] = failed / attempted
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(res)
        units = END_TO_END_UNITS

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds_nominal": args.seconds,
        "nproc": os.cpu_count(), "usable_cpus": res["config"]["usable_cpus"],
        "cpu_model": cpu_model(), **res["build"], **res["config"],
        "git_revision": git_revision(), "source_sha1": source_digest(),
        "host_cal_ms": res["host_cal_ms"],
        "setup_ms": res["setup_ms"], "setup_cpu_ms": res["setup_cpu_ms"],
        "loop_s": res["wall_ms"] / 1000.0,
        "loop_cpu_s": res["cpu_ms"] / 1000.0,
        "tick_ms_p50": statistics.median(res["tick_ms"]),
        "tick_samples": len(res["tick_ms"]),
        "fingerprint": res["fingerprint"], "counts": res["counts"],
        "misses": misses,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
