"""The benchmark's own test: quick runs of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it makes one untraced and two traced
`--quick` runs, and checks that every metric BENCHMARK.json names is
printed with its unit, that every answer checked out (`fail_ratio` is
0), and that the two traced runs give identical call, Fraction-operation
and size counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    argv = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--quick",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise AssertionError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace {trace}: incorrect run\n{done.stderr}")
    return result


def check_metrics(result: dict, specs: list, where: str) -> None:
    got = result["metrics"]
    want = {s["name"]: s["unit"] for s in specs}
    if sorted(got) != sorted(want):
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)):
            raise AssertionError(f"{where}: bad entry {name}: {got[name]}")


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s" and "ratio" not in k and "slope" not in k}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(run(workload, 0), spec["end_to_end"], f"{workload} end to end")
        first, second = run(workload, 1), run(workload, 1)
        check_metrics(first, spec["per_layer"], f"{workload} per layer")
        if first["metrics"]["fail_ratio"]["value"] != 0:
            raise AssertionError(f"{workload}: fail_ratio is not 0")
        if counts(first) != counts(second):
            diff = {k for k in counts(first) if counts(first)[k] != counts(second)[k]}
            raise AssertionError(f"{workload}: counts differ between traced runs: {sorted(diff)}")
        print(f"selftest {workload}: ok ({first['attempted']} traced requests, counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
