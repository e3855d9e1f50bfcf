#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/harness, built by perfbench/CMakeLists.txt) links
the netsparse library compiled from ../src. It is configured and built
on first use under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only re-check the build. Build
output goes to stderr.

Stdout carries the harness's report (provenance, stats digest, one
"metric" line per metric) and, as its last line, one JSON object with
exactly the keys correct, attempted, failed and metrics. --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; the traced run also writes its spans to
<build dir>/spans/<workload>-seed<N>.json.

Exits nonzero, printing no result, when the library sources are
missing, the build fails, the harness fails or overruns its time, or the
result does not name exactly the metrics BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("gather-canonical", "gather-sharded", "figure-sweep",
             "multi-tenant-lossy")
# Every run must end within 180 s; leave room for the build check.
RUN_BUDGET_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: netsparse sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench_harness"


def harness_env():
    """The environment the harness runs in: glibc's malloc backs the heap
    with transparent huge pages (madvise), so that TLB misses, whose cost
    on a virtualized host swings with the load of its neighbours, do not
    dominate the run-to-run spread of the host times."""
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    tunables.append("glibc.malloc.hugetlb=1")
    env["GLIBC_TUNABLES"] = ":".join(tunables)
    return env


def git_describe():
    # Only a checkout that is itself a git repository has a describe;
    # never look further up the directory tree.
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                        "--dirty"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json expects for this mode (None: no file)."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    bench = json.loads(spec.read_text())
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("harness's last line is not JSON")
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        fail("result does not have exactly correct/attempted/failed/metrics")
    want = expected_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(res['metrics']) ^ want)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    start = time.monotonic()
    out = build_dir()
    harness = build(out)
    cmd = [str(harness), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--git-describe", git_describe()]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-seed{args.seed}.json")]
    budget = max(10.0, RUN_BUDGET_S - (time.monotonic() - start))
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=budget, env=harness_env())
    except subprocess.TimeoutExpired:
        fail(f"harness overran its {budget:.0f} s budget")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines[-1]:
        sys.stdout.write(r.stdout)
        fail(f"harness exited with code {r.returncode}")
    check_result(lines[-1], args.trace)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
