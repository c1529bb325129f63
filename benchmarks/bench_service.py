"""Benchmark the sharded allocation service end to end.

Runs the service self-test (populate a seeded session population,
drive uniform operation rounds through the block path, audit the
per-shard traffic ledgers, replay-verify a session sample against the
engine) and writes the throughput report as ``BENCH_service.json``.

The headline number is ``decisions_per_sec`` — sustained allocation
decisions per second across the whole population, timed over the
service's own work only (routing, kernels, state folds; load
pre-materialized).  Beside it the report carries the stage seconds
(``admission_seconds``, ``elapsed_seconds`` for the drain,
``verify_seconds``) and the end-to-end ``wall_seconds`` /
``wall_decisions_per_sec`` of the whole populate/drive/verify run.
Correctness gates ride along: the run only counts if the conservation
audit and the byte-identity replay both passed, since a fast wrong
answer is not a benchmark result.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py \
        --sessions 100000 --min-throughput 1e6
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from history import host_metadata  # noqa: E402  (sibling module)

from repro.service import run_self_test  # noqa: E402


def collect(
    quick: bool = False,
    *,
    sessions: int = 100_000,
    rounds: int = 2,
    ops_per_round: int = 50,
    num_shards: int = 32,
    seed: int = 0,
    replicas: int = 1,
    failover_drills: int = 4,
) -> dict:
    """The service benchmark report (audit and replay included).

    With ``replicas > 1`` the self-test also drills shard-level
    failover against an SC replica set — outside the timed region, so
    the throughput number measures serving, not chaos engineering.
    """
    if quick:
        sessions = min(sessions, 20_000)
        ops_per_round = min(ops_per_round, 25)
    report = run_self_test(
        sessions,
        rounds=rounds,
        ops_per_round=ops_per_round,
        num_shards=num_shards,
        seed=seed,
        replicas=replicas,
        failover_drills=failover_drills,
    )
    report["host"] = host_metadata()
    report["quick"] = quick
    # The self-test raises on any audit/replay divergence (and any
    # failover drill raises on ledger divergence), so reaching this
    # point means every verification leg passed.
    report["verified"] = True
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller population (CI sizes)")
    parser.add_argument("--sessions", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--ops-per-round", type=int, default=50)
    parser.add_argument("--shards", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=1,
                        help="drill shard failover against an N-strong SC "
                             "replica set after the timed region (2..5; "
                             "default 1 = no drills)")
    parser.add_argument("--failover-drills", type=int, default=4,
                        help="shards to drill when --replicas > 1")
    parser.add_argument("--min-throughput", type=float, default=None,
                        metavar="DPS",
                        help="fail if decisions/sec falls below this floor")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="output JSON path")
    args = parser.parse_args(argv)

    report = collect(
        quick=args.quick,
        sessions=args.sessions,
        rounds=args.rounds,
        ops_per_round=args.ops_per_round,
        num_shards=args.shards,
        seed=args.seed,
        replicas=args.replicas,
        failover_drills=args.failover_drills,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out} "
          f"({report['decisions_per_sec']:,.0f} decisions/s across "
          f"{report['sessions']} sessions)")
    if (args.min_throughput is not None
            and report["decisions_per_sec"] < args.min_throughput):
        print(f"FAIL: below the {args.min_throughput:,.0f} decisions/s floor",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
