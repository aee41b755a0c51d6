#!/usr/bin/env python3
"""Smoke-sized self-check of the askel benchmark.

    python3 perfbench/selfcheck/check.py [--seconds S]

Runs every workload of BENCHMARK.json, and the ungated service_slo, briefly,
untraced and traced. Asserts that the result line has the contract's keys,
that every metric the file names appears with its unit (in the result line
and, with a sample count, in the printed table), that end-to-end values are
positive and that every output validated. It then checks that the benchmark refuses to run,
without printing a result, in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits non-zero on the first violation.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def check(cond, msg):
    if not cond:
        print(f"selfcheck FAILED: {msg}")
        sys.exit(1)


def run(cwd, workload, trace, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def check_run(bench, workload, trace, seconds):
    proc = run(ROOT, workload, trace, seconds)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{tag}: outputs did not validate: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{tag}: attempted {result['attempted']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{tag}: metric names differ from BENCHMARK.json")
    table = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{tag}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{tag}: {m['name']} value {got['value']}")
        if not trace:
            check(got["value"] > 0, f"{tag}: end-to-end {m['name']} is {got['value']}")
        row = next((ln for ln in table.splitlines() if ln.split()[:1] == [m["name"]]), "")
        check(m["unit"] in row.split() and "(n=" in row,
              f"{tag}: table row for {m['name']} lacks unit or sample count")
    check("error_rate" in table and "host {" in table,
          f"{tag}: error_rate or host context missing from the output")
    print(f"ok  {tag}: attempted {result['attempted']}")


def check_bare_checkout(bench):
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0, 1)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a checkout without the library sources ran")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(not last[0].startswith("{"), "a checkout without the library sources printed a result")
    print("ok  refuses to run without the library sources")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # service_slo runs through the same command but is not gated (see the
    # README): it must still produce every metric and validate.
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in ("service_slo",) if w not in workloads]
    for w in workloads:
        for trace in (0, 1):
            check_run(bench, w, trace, args.seconds)
    check_bare_checkout(bench)
    print("selfcheck OK")


if __name__ == "__main__":
    main()
