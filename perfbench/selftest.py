#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py). Checks that:
  * every workload completes, correct, with every metric BENCHMARK.json
    names for --trace 0 and --trace 1, each with its unit;
  * another seed changes the request stream but not the metric set;
  * a reference session fed one extra observe makes the differential
    oracle fail on both serve workloads.
Exits non-zero on the first failed expectation.
"""

import json
import re
import subprocess
import sys

WORKLOADS = ["serve_hot", "serve_fresh", "offline_fit"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    match = re.search(r"request stream fingerprint ([0-9a-f]+)", done.stderr)
    return result, match.group(1) if match else None, done.stderr


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        fingerprints = {}
        for seed in (1, 2):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                if seed == 2 and trace == 1:
                    continue
                result, fingerprint, _ = run(workload, seed, trace)
                if not result["correct"]:
                    fail(f"{workload} seed {seed} trace {trace}: incorrect")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if got != want:
                    fail(f"{workload} trace {trace}: metrics {got} != {want}")
                fingerprints.setdefault(seed, fingerprint)
        if None in fingerprints.values():
            fail(f"{workload}: no request stream fingerprint printed")
        if fingerprints[1] == fingerprints[2]:
            fail(f"{workload}: seeds 1 and 2 gave the same request stream")
        print(f"selftest: {workload}: metrics complete, seed changes the "
              f"stream ({fingerprints[1]} vs {fingerprints[2]})")

    for workload in ("serve_hot", "serve_fresh"):
        result, _, stderr = run(workload, 1, 0, "--corrupt-oracle")
        if result["correct"] or "differential oracle" not in stderr:
            fail(f"{workload}: the oracle accepted a corrupted session")
        print(f"selftest: {workload}: oracle rejects a corrupted session")
    print("selftest: ok")


if __name__ == "__main__":
    main()
