#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload fleet_p2p --seed 1 --seconds 40 --trace 0

Run from the repository root. The harness and the drmp_core library are
built (Release) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset; an up-to-date build is a quick no-op. The
harness's own report goes to stdout and ends with one JSON line; the full
per-run report (quartiles, counters, spans) is written as JSON under the
build directory's reports/ folder. Exits non-zero, without a result line,
when the sources cannot be built.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds; returns the harness path or None."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(bdir, "drmp_perfbench")


def main(argv):
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1
    reports = os.path.join(bdir, "reports")
    os.makedirs(reports, exist_ok=True)
    try:
        proc = subprocess.run([exe] + argv + ["--out", reports],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
