#!/usr/bin/env python3
"""Simulator throughput benchmark, end to end and per layer.

Builds perfbench/ccdb_perf.exe with dune from the sources of the checkout it
sits in, runs one workload for a fixed wall-clock window, checks the result
and prints it as one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload unified --seed 1 --seconds 10 --trace 0

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones (see
ccdb_perf.ml for what each measures).  Progress and build output go to
standard error.  Any failure -- the build, the run, a malformed or missing
result -- exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = "perfbench/ccdb_perf.exe"
EXE = ROOT / "_build" / "default" / TARGET

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
           1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170  # whole invocation once built, build excluded


def run(cmd, timeout, stdout):
    """Runs cmd from the checkout root in its own process group; on timeout
    kills the whole group and waits for it.  Returns (code, stdout text)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True,
                            env=dict(os.environ, DUNE_CACHE="disabled"))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{cmd[0]}: timed out after {timeout:.0f} s")
    return proc.returncode, out


def check(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"malformed result keys: {sorted(result)}")
    if set(result["metrics"]) != set(METRICS[trace]):
        raise SystemExit(f"unexpected metrics: {sorted(result['metrics'])}")
    for name, m in result["metrics"].items():
        if m["unit"] != METRICS[trace][name]:
            raise SystemExit(f"metric {name} in {m['unit']}, expected "
                             f"{METRICS[trace][name]}")
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise SystemExit(f"metric {name} is not a finite number")
    if result["attempted"] < 1:
        raise SystemExit("no transaction attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    code, _ = run(["dune", "build", "--root", ".", TARGET], BUILD_TIMEOUT_S,
                  sys.stderr)
    if code != 0 or not EXE.is_file():
        raise SystemExit(f"dune build {TARGET} failed ({code})")

    start = time.monotonic()
    code, out = run([str(EXE), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)],
                    RUN_DEADLINE_S, subprocess.PIPE)
    if code != 0:
        raise SystemExit(f"{TARGET} exited with {code}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{TARGET} printed no result")
    result = json.loads(lines[-1])
    check(result, args.trace)
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
