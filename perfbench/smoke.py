"""Smoke test of the benchmark itself, on tiny inputs.

From the repository root::

    python3 perfbench/smoke.py

For every workload of ``BENCHMARK.json`` it checks that:

* every end-to-end metric (untraced run) and every per-layer metric
  (traced run) is printed with its ``BENCHMARK.json`` unit;
* ``correct`` holds and nothing failed (``failed_frac == 0``);
* the exact counts (retunes, drained rows, launch ``.calls``, ...)
  repeat for a fixed seed;
* another seed changes the inputs but not the metric names.

It also checks that the benchmark exits non-zero without a result when
only ``BENCHMARK.json`` and this directory are present.  Exits 1 if any
check fails.
"""

import json
import os
import shutil
import subprocess
import sys

from run import COUNT_SUFFIXES, HERE, ROOT


def invoke(workload: str, seed: int, trace: int, root: str = ROOT):
    """(exit code, stdout lines, parsed result or None)."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = completed.stdout.strip().splitlines()
    result = None
    if completed.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return completed.returncode, lines, result


def inputs_of(lines) -> str:
    return next(line.split(":", 1)[1].strip() for line in lines
                if line.strip().startswith("inputs sha256"))


def check_workload(workload: str, spec: dict) -> list:
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    runs = {(seed, trace): invoke(workload, seed, trace)
            for seed, trace in ((1, 0), (1, 1), (2, 0))}
    repeat = invoke(workload, 1, 1)
    for (seed, trace), (code, lines, result) in runs.items():
        label = f"{workload} seed={seed} trace={trace}"
        if result is None:
            problems.append(f"{label}: exit {code}, no result")
            continue
        units = {name: entry["unit"]
                 for name, entry in result["metrics"].items()}
        if units != wanted[trace]:
            problems.append(f"{label}: metrics/units differ from "
                            "BENCHMARK.json")
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{label}: correct={result['correct']} "
                            f"failed={result['failed']}")
    if repeat[2] is not None and runs[(1, 1)][2] is not None:
        counts = [{name: entry["value"]
                   for name, entry in result["metrics"].items()
                   if name.endswith(COUNT_SUFFIXES)}
                  for result in (runs[(1, 1)][2], repeat[2])]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ between two "
                            "runs of seed 1")
    if runs[(1, 0)][2] is not None and runs[(2, 0)][2] is not None:
        if inputs_of(runs[(1, 0)][1]) == inputs_of(runs[(2, 0)][1]):
            problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
    return problems


def check_bare_directory(workload: str) -> list:
    """Without the program beside it, the benchmark must fail cleanly."""
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(bare, "perfbench"))
    try:
        code, lines, _result = invoke(workload, 1, 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit {code}, printed a result"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for name in (entry["name"] for entry in spec["workloads"]):
        found = check_workload(name, spec)
        print(f"{name:<16} {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for problem in problems:
        print(f"  {problem}")
    print("smoke test " + ("passed" if not problems else "failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
