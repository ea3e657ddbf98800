#!/usr/bin/env python3
"""Smoke test for the benchmark, at tiny input sizes:

  * every workload, untraced and traced, emits exactly the metrics that
    BENCHMARK.json names, each with its unit, and reports no failure;
  * the failure counter works: a daemon started with
    DAGSCHED_SERVE_FAIL=raise:1 yields exactly one failed operation and
    keeps serving.

Run from the root of a source checkout:  python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny",
         *extra],
        capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    assert lines, f"{workload}: no output; stderr:\n{out.stderr}"
    return out.returncode, json.loads(lines[-1]), out.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, err = run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            if code != 0:
                problems.append(f"{label}: exit {code}\n{err}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: {result['correct']=} "
                                f"{result['failed']=}\n{err}")

    code, result, err = run("serve", 0, "--serve-fail", "1")
    if code != 0 or result["failed"] != 1 or result["correct"]:
        problems.append(f"serve-fail: exit {code}, failed {result['failed']}"
                        f", correct {result['correct']}\n{err}")
    elif result["attempted"] < 100:
        problems.append(f"serve-fail: only {result['attempted']} operations")

    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
