#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For every workload it runs run.py at --scale tiny (10k vnodes, a few
ticks or scripts) and asserts:
  * untraced and traced runs pass their correctness gates and print
    exactly the metrics BENCHMARK.json names, each with its unit;
  * the traced run reproduces the untraced end-state fingerprint;
  * the negative control fails: a run armed with a wrong expected
    fingerprint reports correct=false, charges every op as failed and
    exits non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
    return proc.returncode, json.loads(lines[-1]), provenance, proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        fingerprints = {}
        for trace in (0, 1):
            code, res, prov, err = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append(f"{label}: failed (exit {code})\n{err[-2000:]}")
                continue
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(units) ^ set(wanted[trace]))}")
            fingerprints[trace] = prov["fingerprint"]
            if trace == 1:
                traced = res["metrics"]["sim.state_fingerprint"]["value"]
                if traced != int(prov["fingerprint"], 16) & (2**53 - 1):
                    problems.append(f"{label}: traced fingerprint differs")
        if len(set(fingerprints.values())) != 1:
            problems.append(f"{workload}: fingerprints differ across runs: "
                            f"{fingerprints}")
        # Negative control: an armed wrong fingerprint must fail the run.
        code, res, _, _ = run(workload, 0, "--expect-fingerprint",
                              "0123456789abcdef")
        if code == 0 or res["correct"] or res["failed"] != res["attempted"]:
            problems.append(f"{workload}: negative control did not fail")
        print(f"{workload}: ok" if not problems else f"{workload}: checked",
              flush=True)
    for problem in problems:
        print("SMOKE FAIL: " + problem)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
