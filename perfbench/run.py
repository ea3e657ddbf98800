#!/usr/bin/env python3
"""Build the scheduler and run one benchmark workload in a fresh process.

    python3 perfbench/run.py --workload cccp --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The first run builds
perfbench/bench.exe and bin/schedtool.exe with dune into the directory
named by CARGO_TARGET_DIR (default .bench_build).  The last line of
standard output is the result object; the lines before it record the host
and the inputs.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("cccp", "fpppp", "table2", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the benchmark builds, so two runs can show
    they measured the same code even outside a git checkout."""
    h = hashlib.sha256()
    roots = ["dune-project", "lib", "bin", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        if path.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def json_line(fields):
    print(json.dumps(fields), flush=True)


def wait_group_gone(pgid, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test input sizes")
    ap.add_argument("--serve-fail", type=int, default=0,
                    help="start the daemon with DAGSCHED_SERVE_FAIL=raise:N")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "./perfbench/bench.exe",
         "./bin/schedtool.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", 3)

    # the daemon's socket path must stay short: keep it relative
    work_dir = os.path.relpath(os.path.join(build_dir, "perfbench-run"))
    os.makedirs(work_dir, exist_ok=True)
    with open("/proc/loadavg") as f:
        load = float(f.read().split()[0])
    json_line({"record": "host", "commit": commit(),
               "source_digest": source_digest(),
               "nproc": len(os.sched_getaffinity(0)),
               "loadavg_start": load})

    bin_dir = os.path.join(build_dir, "default")
    cmd = [os.path.join(bin_dir, "perfbench", "bench.exe"),
           "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--schedtool", os.path.join(bin_dir, "bin", "schedtool.exe"),
           "--work-dir", work_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if args.serve_fail:
        cmd += ["--serve-fail", str(args.serve_fail)]

    # own process group, so a timeout also stops the daemon it started
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_group_gone(proc.pid)
        fail(f"workload {args.workload} timed out after {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
