#!/usr/bin/env python3
"""Build and run the KOOZA pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload websearch-200k --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the kooza libraries it compiles from src/) into
.bench_build/perfbench, then runs kooza_perfbench with the same arguments.
Its standard output is passed through unchanged: the last line is the
result JSON. Extra flag: --smoke runs the reduced-size workloads. The exit
status is the benchmark's; a failed build exits nonzero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "kooza_perfbench")


def build():
    """Configure (until it succeeds once) and build; the compiler output
    goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "kooza_perfbench"],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    workdir = os.path.join(BUILD, "runs")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    cmd = [BINARY, "--workdir", workdir] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
