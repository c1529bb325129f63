"""Pluggable observability for engine runs.

Every backend threads the same hooks, so instrumentation written once
works whether a run executed on the reference state machine, the numpy
kernels or the discrete-event protocol simulator:

* :meth:`Instrumentation.on_run_start` — algorithm, chosen backend and
  why the dispatcher chose it;
* :meth:`Instrumentation.on_request` — one call per served request with
  its classified event kind and charge (the per-request trace);
* :meth:`Instrumentation.on_run_end` — the finished
  :class:`~repro.engine.base.EngineResult`, wall-clock time included.

The base class is a no-op; subclass and override what you need.  The
per-request hook is the only expensive one — the vectorized backend
stays loop-free unless an instrument actually overrides it, which
:func:`wants_per_request` detects.
"""

from __future__ import annotations

import typing
from collections import Counter
from typing import Dict, List, Tuple

from ..costmodels.base import CostEventKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from .base import BackendDiagnostic, EngineResult

__all__ = [
    "Instrumentation",
    "CounterInstrumentation",
    "TraceInstrumentation",
    "wants_per_request",
]


class Instrumentation:
    """No-op instrumentation; subclass and override the hooks."""

    def on_run_start(
        self,
        algorithm_name: str,
        backend_name: str,
        num_requests: int,
        reason: str,
    ) -> None:
        """A run is about to execute on ``backend_name``.

        ``reason`` is the dispatcher's one-line justification for the
        backend choice (e.g. the vectorized kernel matched, or a forced
        backend was requested).
        """

    def on_request(self, index: int, kind: CostEventKind, cost: float) -> None:
        """One request was served and priced (the per-request trace)."""

    def on_backend_fallback(self, diagnostic: "BackendDiagnostic") -> None:
        """A backend raised mid-run and the dispatcher contained it.

        Fired before the reference re-execution starts; the diagnostic
        also lands on the final result's ``diagnostic`` attribute.
        """

    def on_run_end(self, result: "EngineResult") -> None:
        """The run finished; ``result.elapsed_seconds`` is filled in."""

    def on_batch(
        self, algorithm_name: str, batch_size: int, num_requests: int
    ) -> None:
        """A batched kernel executed ``batch_size`` runs in one pass.

        Fired once per batch group, with the total request count
        across the batch.  :func:`~repro.engine.run_batched_masks`
        fires it after the per-run start/end hooks of every member, so
        counters stay comparable with the per-schedule path; the
        allocation service fires it alone, once per drain launch.
        """

    # -- allocation-service hooks (no-ops outside the service host) ----

    def on_session_open(self, shard_index: int, algorithm_name: str) -> None:
        """The allocation service opened a session on a shard."""

    def on_shard_drain(
        self,
        shard_index: int,
        sessions: int,
        decisions: int,
        event_counts: "np.ndarray",
    ) -> None:
        """A shard drained a block of queued operations in one launch.

        ``sessions`` is the number of distinct sessions in the drained
        block; ``decisions`` the total operations decided;
        ``event_counts`` the launch's ``(sessions, 6)`` int64 event
        counts in ``EVENT_KIND_ORDER``.  The service fires this (after
        :meth:`on_batch`) instead of per-session run hooks.
        """

    def on_backpressure(self, shard_index: int, queue_depth: int) -> None:
        """A shard crossed its drain threshold (queue-based load leveling)."""

    def on_failover(
        self, shard_index: int, failovers: int, byte_identical: bool
    ) -> None:
        """A shard-level failover drill finished.

        ``failovers`` is how many primary promotions the drill's replica
        set went through; ``byte_identical`` whether the chaos run's
        ledger matched the fault-free run byte for byte.
        """


def wants_per_request(instrumentation: Instrumentation) -> bool:
    """Whether the instrument overrides the per-request hook.

    The vectorized backend only iterates request-by-request (defeating
    its purpose) when an instrument actually listens.
    """
    return type(instrumentation).on_request is not Instrumentation.on_request


class CounterInstrumentation(Instrumentation):
    """Aggregate counters across any number of runs.

    Tracks run and request totals, per-backend run counts (the
    backend-choice report), per-event-kind totals, accumulated cost and
    wall-clock seconds.  Cheap enough to leave attached permanently:
    it does not subscribe to the per-request trace.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.requests = 0
        self.total_cost = 0.0
        self.wall_seconds = 0.0
        self.batches = 0
        self.batched_runs = 0
        self.backend_runs: Counter = Counter()
        self.event_counts: Counter = Counter()
        self.dispatch_log: List[Tuple[str, str, str]] = []
        self.fallbacks: List["BackendDiagnostic"] = []

    def on_run_start(
        self,
        algorithm_name: str,
        backend_name: str,
        num_requests: int,
        reason: str,
    ) -> None:
        self.runs += 1
        self.backend_runs[backend_name] += 1
        self.dispatch_log.append((algorithm_name, backend_name, reason))

    def on_backend_fallback(self, diagnostic: "BackendDiagnostic") -> None:
        self.fallbacks.append(diagnostic)

    def on_run_end(self, result: "EngineResult") -> None:
        self.requests += result.counted_requests
        self.total_cost += result.total_cost
        self.wall_seconds += result.elapsed_seconds
        self.event_counts.update(result.event_counts)

    def on_batch(
        self, algorithm_name: str, batch_size: int, num_requests: int
    ) -> None:
        self.batches += 1
        self.batched_runs += batch_size

    def summary(self) -> Dict[str, object]:
        """One dict for logs/reports: totals plus the backend mix."""
        return {
            "runs": self.runs,
            "requests": self.requests,
            "total_cost": self.total_cost,
            "wall_seconds": self.wall_seconds,
            "batches": self.batches,
            "batched_runs": self.batched_runs,
            "backend_runs": dict(self.backend_runs),
            "fallbacks": [str(diag) for diag in self.fallbacks],
            "event_counts": {
                kind.value: count for kind, count in sorted(
                    self.event_counts.items(), key=lambda kv: kv[0].value
                )
            },
        }


class TraceInstrumentation(CounterInstrumentation):
    """Counters plus the full per-request trace.

    Records one ``(index, kind, cost)`` triple per served request in
    :attr:`records`.  This forces every backend — including the
    vectorized one — to walk the run request-by-request, so attach it
    for debugging and validation, not for throughput.
    """

    def __init__(self) -> None:
        super().__init__()
        self.records: List[Tuple[int, CostEventKind, float]] = []

    def on_request(self, index: int, kind: CostEventKind, cost: float) -> None:
        self.records.append((index, kind, cost))
