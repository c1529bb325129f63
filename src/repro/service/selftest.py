"""End-to-end service self-test: populate, drive, audit, verify.

One call builds a service, opens a seeded session population, drives a
deterministic operation stream through the block path, and then proves
the run was *correct*, not just fast: the per-shard traffic ledgers
must pass the conservation audit, and a sample of sessions is replayed
through :func:`repro.engine.run` demanding byte-identical decisions and
totals.

The report times every stage.  ``decisions_per_sec`` covers the drain
alone (``submit_block``: routing, kernels, state folds; load is
pre-materialized outside it); ``admission_seconds`` covers opening the
sessions and planning the block, ``verify_seconds`` the audit and the
replay, and ``wall_seconds`` the whole populate/drive/verify run, load
generation included, whose rate is ``wall_decisions_per_sec``.
Failover drills run after the wall clock stops.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

from ..exceptions import InvalidParameterError
from .host import AllocationService, ServiceConfig
from .loadgen import LoadGenerator
from .metrics import ServiceCounters

__all__ = ["run_self_test"]


def run_self_test(
    sessions: int = 100_000,
    *,
    rounds: int = 2,
    ops_per_round: int = 50,
    num_shards: int = 32,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    audit_sessions_per_shard: Optional[int] = 8,
    replay_sample: int = 32,
    replicas: int = 1,
    failover_drills: int = 4,
    scenario: Optional[str] = None,
    kernel_threads: Optional[int] = None,
) -> Dict[str, object]:
    """Drive a seeded population through the service and verify it.

    Returns a JSON-friendly report with the drain-only and end-to-end
    decision rates, the per-stage seconds, shard occupancy, and the
    audit/replay verification tallies.  With ``replicas > 1`` the
    report gains a ``failover`` section: after the timed region,
    ``failover_drills`` shards each run a seeded
    kill-the-primary campaign against a ``replicas``-strong SC replica
    set and must keep the logical ledger byte-identical to the
    fault-free run.
    """
    if rounds <= 0:
        raise InvalidParameterError(f"rounds must be positive, got {rounds}")
    if failover_drills < 0:
        raise InvalidParameterError(
            f"failover_drills must be >= 0, got {failover_drills}"
        )
    wall_started = time.perf_counter()
    generator = LoadGenerator(
        sessions, seed=seed, algorithms=algorithms, scenario=scenario
    )
    counters = ServiceCounters()
    service = AllocationService(
        ServiceConfig(
            num_shards=num_shards,
            namespace=generator.namespace,
            replicas=replicas,
            kernel_threads=kernel_threads,
        ),
        instrumentation=counters,
    )
    keys = generator.keys()
    admission_started = time.perf_counter()
    for index, key in enumerate(keys):
        service.open_session(key, generator.algorithm_of(index))
    plan = service.plan_block(keys)
    admission_seconds = time.perf_counter() - admission_started
    matrices = [
        generator.round_matrix(round_index, ops_per_round)
        for round_index in range(rounds)
    ]

    started = time.perf_counter()
    decided = 0
    for matrix in matrices:
        decided += service.submit_block(plan, matrix)
    elapsed = time.perf_counter() - started

    verify_started = time.perf_counter()
    audit = service.audit(audit_sessions_per_shard)
    replay = service.replay_verify(replay_sample)
    verify_seconds = time.perf_counter() - verify_started
    wall_seconds = time.perf_counter() - wall_started
    metrics = service.metrics()
    decisions_per_sec = decided / elapsed if elapsed > 0 else float("inf")

    failover: Optional[Dict[str, object]] = None
    if replicas > 1 and failover_drills:
        # Verification, not serving: drills run outside the timed
        # region and never touch live session state.
        drills = [
            service.failover_drill(
                shard_index % num_shards, seed=seed * 1009 + shard_index
            )
            for shard_index in range(failover_drills)
        ]
        latencies = [
            latency for drill in drills
            for latency in drill["failover_latencies"]
        ]
        failover = {
            "replicas": replicas,
            "drills": len(drills),
            "failovers": sum(drill["failovers"] for drill in drills),
            "kills_skipped": sum(drill["kills_skipped"] for drill in drills),
            "byte_identical": all(drill["byte_identical"] for drill in drills),
            "mean_failover_latency": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "overhead_messages": sum(
                drill["overhead_messages"] for drill in drills
            ),
        }

    return {
        "sessions": sessions,
        "rounds": rounds,
        "ops_per_round": ops_per_round,
        "num_shards": num_shards,
        "seed": seed,
        "scenario": scenario,
        "algorithms": list(generator.algorithms),
        "decisions": decided,
        "elapsed_seconds": elapsed,
        "decisions_per_sec": decisions_per_sec,
        "admission_seconds": admission_seconds,
        "verify_seconds": verify_seconds,
        "wall_seconds": wall_seconds,
        "wall_decisions_per_sec": decided / wall_seconds,
        "occupied_shards": metrics["occupied_shards"],
        "max_shard_sessions": metrics["max_shard_sessions"],
        "min_shard_sessions": metrics["min_shard_sessions"],
        "shard_drains": counters.shard_drains,
        "audit": audit,
        "replay": replay,
        "failover": failover,
    }
