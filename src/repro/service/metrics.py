"""Instrumentation for the allocation service host.

:class:`ServiceCounters` extends the engine's
:class:`~repro.engine.instrumentation.CounterInstrumentation` with the
service-level hooks (sessions opened, shard drains, backpressure).  The
service decides each drain in one columnar kernel launch and fires one
``on_batch`` plus one ``on_shard_drain`` per launch — no per-session run
hooks — so the engine-level tallies (runs, requests, the backend mix,
per-kind event counts) are derived from those per-launch hooks: one
drained session row counts as one ``vectorized`` run, and the event
counts are one column sum of the launch's ``(b, 6)`` count matrix.
The dispatch log stays empty, so the counters are bounded however long
the service runs, and service throughput stays directly comparable
with the sweep executor's reports.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import numpy as np

from ..core.vectorized import EVENT_KIND_ORDER
from ..engine.backends import VectorizedBackend
from ..engine.instrumentation import CounterInstrumentation

__all__ = ["ServiceCounters"]


class ServiceCounters(CounterInstrumentation):
    """Aggregate counters sized for service workloads.

    On the service path ``total_cost`` and ``wall_seconds`` stay at
    zero: drains price nothing per session (a session's cost is priced
    from its counts when :meth:`AllocationService.session_info` reads
    it) and are timed per launch, not per run.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sessions_opened = 0
        self.shard_drains = 0
        self.drained_sessions = 0
        self.drained_decisions = 0
        self.backpressure_events = 0
        self.shard_occupancy: Counter = Counter()
        self.failover_drills = 0
        self.failovers_observed = 0
        self.failover_divergences = 0

    def on_session_open(self, shard_index: int, algorithm_name: str) -> None:
        self.sessions_opened += 1
        self.shard_occupancy[shard_index] += 1

    def on_shard_drain(
        self,
        shard_index: int,
        sessions: int,
        decisions: int,
        event_counts: np.ndarray,
    ) -> None:
        self.shard_drains += 1
        self.drained_sessions += sessions
        self.drained_decisions += decisions
        # One drained session row is one kernel-backed run.
        self.runs += sessions
        self.backend_runs[VectorizedBackend.name] += sessions
        self.requests += decisions
        totals = event_counts.sum(axis=0).tolist()
        for kind, count in zip(EVENT_KIND_ORDER, totals):
            if count:
                self.event_counts[kind] += count

    def on_backpressure(self, shard_index: int, queue_depth: int) -> None:
        self.backpressure_events += 1

    def on_failover(
        self, shard_index: int, failovers: int, byte_identical: bool
    ) -> None:
        self.failover_drills += 1
        self.failovers_observed += failovers
        if not byte_identical:
            self.failover_divergences += 1

    def summary(self) -> Dict[str, object]:
        report = super().summary()
        report.update(
            {
                "sessions_opened": self.sessions_opened,
                "shard_drains": self.shard_drains,
                "drained_sessions": self.drained_sessions,
                "drained_decisions": self.drained_decisions,
                "backpressure_events": self.backpressure_events,
                "occupied_shards": len(self.shard_occupancy),
                "failover_drills": self.failover_drills,
                "failovers_observed": self.failovers_observed,
                "failover_divergences": self.failover_divergences,
            }
        )
        return report
