#!/usr/bin/env python3
"""Build and run the askel benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark from source into .bench_build/perfbench; later runs
only rebuild what changed. NAME is one of the workloads in WORKLOADS, or
"all" to run each in turn. The output is the benchmark's metric table, one
line of host context, and, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. The exit status is non-zero when the
build fails, when any output fails its check, or when the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["wordcount_goal", "fine_map", "service_slo", "fine_map_tcp"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "askel_perfbench"
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 720  # the first run, build included, must end within 900 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    sources = ROOT / "src"
    if not sources.is_dir() or not any(sources.rglob("*.cpp")):
        fail(f"no library sources under {sources}: run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout location
    if not cache.exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                  CONFIGURE_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)
    if not BINARY.exists():
        fail(f"build produced no {BINARY}")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where there is no git revision."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_one(workload, args, host):
    """Runs one workload; returns (result dict or None, exit code)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / f"{workload}-seed{args.seed}.spans.jsonl")]
    # A traced run measures an untraced and a traced phase of --seconds each;
    # the slack covers set-ups, warm-ups and the last batch run's overshoot.
    timeout = (2 if args.trace else 1) * (args.seconds + 5) + 60
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {timeout:g} s", file=sys.stderr)
        return None, 3
    lines = proc.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        if line.startswith("build "):
            host.update(json.loads(line[len("build "):]))
        print(line)
    if result is None or proc.returncode not in (0, 1):
        print(f"perfbench: {workload} exited {proc.returncode} without a result",
              file=sys.stderr)
        return None, proc.returncode or 3
    host_line = dict(host, workload=workload)
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests while this ran: the
        # usual cause of a run that reads far off its neighbours.
        host_line["steal_pct"] = round(100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 2)
    print("host " + json.dumps(host_line, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, host=host_line)
    (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    build()
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for w in workloads:
        result, rc = run_one(w, args, host)
        if result is None:
            sys.exit(rc)
        results[w] = result
        code = max(code, rc)

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(code)


if __name__ == "__main__":
    main()
