"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs all four workloads at --tiny size, untraced and traced, and
asserts that every end-to-end and per-layer metric is printed with its
unit, and that the last line is the result object with exactly the keys
the benchmark contract names. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode in (0, 1), (workload, trace, proc.stderr)
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _value, unit = line.split()[:4]
            printed[name] = unit
    expected = spans.LAYER_METRICS if trace else harness.E2E_METRICS
    for name, unit in expected:
        assert printed.get(name) == unit, (workload, trace, name, printed)
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result
    assert result["attempted"] >= 1
    gated = harness.gated_metrics()[trace]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == gated
    return result


def main():
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            r = check(workload, trace)
            print(f"{workload} trace={trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}")
    print("smoke: all metrics printed with their units")


if __name__ == "__main__":
    main()
