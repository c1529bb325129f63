"""Record how steady each end-to-end metric is across seeds.

From the repository root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

Runs ``perfbench/run.py`` (untraced, ``run_seconds`` from
``BENCHMARK.json``) once per seed and workload, one run at a time, and
reports per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile range as a
share of the median, next to the metric's bound.  A spread must stay
below a third of its bound (``setup_s`` is bounded on its median only).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)

    record = {"host": {"machine": platform.machine(),
                       "processor": platform.processor(),
                       "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "run_seconds": spec["run_seconds"],
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.runs)),
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in record["seeds"]]
        rows = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            middle = statistics.median(values)
            spread = (q3 - q1) / middle
            ok = name == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            rows[name] = {"unit": metric["unit"], "median": middle,
                          "q1": q1, "q3": q3, "iqr_frac": spread,
                          "bound": metric["bound"], "values": values}
            print(f"{workload:<16} {name:<16} median {middle:>14.6g} "
                  f"{metric['unit']:<5} iqr/median {spread:7.2%} "
                  f"bound {metric['bound']:.0%}{'' if ok else '  WIDE'}",
                  flush=True)
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows}
        steady = steady and record["workloads"][workload]["correct"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
