#!/usr/bin/env python3
"""The benchmark's own test: every workload at smoke size, untraced and
traced, must pass all output checks and print a well-formed result line
that names every metric BENCHMARK.json lists.

    python3 perfbench/test_smoke.py

Runs from any directory; builds through run.py. Takes a few seconds once
built. Exits nonzero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1", "--seconds", "0",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                sys.exit(f"FAIL {where}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                sys.exit(f"FAIL {where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {where}: correct={result['correct']} "
                         f"failed={result['failed']}")
            if result["attempted"] < 1:
                sys.exit(f"FAIL {where}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                sys.exit(f"FAIL {where}: metrics {sorted(got)} != "
                         f"{sorted(expected[trace])}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    sys.exit(f"FAIL {where}: {k} is not a number")
                if trace == 0 and v["value"] <= 0:
                    sys.exit(f"FAIL {where}: end-to-end {k} = {v['value']}")
            print(f"ok   {where}: attempted={result['attempted']}")
    print("perfbench smoke: all workloads pass")


if __name__ == "__main__":
    main()
