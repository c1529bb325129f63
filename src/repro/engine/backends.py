"""The three registered execution backends.

* ``reference`` — the object-per-request state machine replay; runs
  every algorithm, tracks schemes, the implementation of record.
* ``vectorized`` — the numpy kernels of :mod:`repro.core.batched`,
  launched as one row per schedule here and as whole groups by
  :mod:`repro.engine.batched`; runs the algorithms whose cost sequence
  is a closed function of the recent request pattern (statics, SWk
  family, T1m/T2m).
* ``protocol`` — the discrete-event two-node simulator of
  :mod:`repro.sim.runner`; runs everything with wire deciders and
  re-derives event kinds from actual message traffic.

All three classify every request into the same
:class:`~repro.costmodels.base.CostEventKind` sequence — the invariant
the cross-backend equivalence test enforces — and compute totals via
:func:`~repro.engine.base.total_from_counts`, so equal classifications
give byte-identical costs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.vectorized import EVENT_KIND_ORDER, fast_run_arrays
from ..core.vectorized import supports as vectorized_supports
from ..costmodels.base import CostEvent, CostEventKind
from ..exceptions import InvalidParameterError, UnknownAlgorithmError
from ..types import AllocationScheme
from .base import (
    EngineResult,
    ExecutionBackend,
    RunSpec,
    register_backend,
    total_from_counts,
)
from .instrumentation import wants_per_request

__all__ = ["ReferenceBackend", "VectorizedBackend", "ProtocolBackend"]


def lazy_row_views(codes, copy_after, prices):
    """The deferred ``materialize`` callback of one kernel row.

    The tuple-of-objects views are built from the arrays only if the
    caller reads them, so a plain run over a million requests stays at
    array speed.
    """

    def materialize():
        event_kinds = tuple(EVENT_KIND_ORDER[code] for code in codes)
        events = tuple(
            CostEvent(kind, prices[code])
            for kind, code in zip(event_kinds, codes)
        )
        schemes = tuple(
            AllocationScheme.TWO_COPIES if flag else AllocationScheme.ONE_COPY
            for flag in copy_after
        )
        return events, event_kinds, schemes

    return materialize


class ReferenceBackend(ExecutionBackend):
    """Object replay: the state machines of :mod:`repro.core`."""

    name = "reference"

    def supports(self, algorithm_name: str) -> bool:
        return True

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        algorithm = spec.algorithm
        if spec.fresh:
            algorithm.reset()
        trace = wants_per_request(instrumentation)
        price = spec.cost_model.price
        counts: Dict[CostEventKind, int] = {}
        events: List[CostEvent] = []
        schemes: List[AllocationScheme] = []
        scheme_changes = 0
        previous_scheme = None
        for index, request in enumerate(spec.schedule):
            kind = algorithm.process(request.operation)
            if index >= spec.warmup:
                counts[kind] = counts.get(kind, 0) + 1
            scheme = algorithm.scheme
            if previous_scheme is not None and scheme is not previous_scheme:
                scheme_changes += 1
            previous_scheme = scheme
            if trace:
                instrumentation.on_request(index, kind, price(kind))
            if not spec.stream:
                events.append(CostEvent(kind, price(kind)))
                schemes.append(scheme)
        return EngineResult(
            algorithm_name=spec.algorithm_name,
            backend_name=self.name,
            requests=len(spec.schedule),
            warmup=spec.warmup,
            total_cost=total_from_counts(counts, spec.cost_model),
            event_counts=counts,
            events=None if spec.stream else tuple(events),
            event_kinds=(
                None if spec.stream else tuple(event.kind for event in events)
            ),
            schemes=None if spec.stream else tuple(schemes),
            scheme_changes=scheme_changes,
        )


class VectorizedBackend(ExecutionBackend):
    """Numpy kernels: no Python-level loop unless a trace listens."""

    name = "vectorized"

    def supports(self, algorithm_name: str) -> bool:
        return vectorized_supports(algorithm_name)

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        codes, copy_after = fast_run_arrays(spec.algorithm_name, spec.schedule)
        bincount = np.bincount(
            codes[spec.warmup:], minlength=len(EVENT_KIND_ORDER)
        )
        counts = {
            kind: int(count)
            for kind, count in zip(EVENT_KIND_ORDER, bincount)
            if count
        }
        scheme_changes = int(np.count_nonzero(copy_after[1:] != copy_after[:-1]))
        prices = [spec.cost_model.price(kind) for kind in EVENT_KIND_ORDER]
        if wants_per_request(instrumentation):
            for index, code in enumerate(codes):
                instrumentation.on_request(
                    index, EVENT_KIND_ORDER[code], prices[code]
                )
        return EngineResult(
            algorithm_name=spec.algorithm_name,
            backend_name=self.name,
            requests=len(spec.schedule),
            warmup=spec.warmup,
            total_cost=total_from_counts(counts, spec.cost_model),
            event_counts=counts,
            scheme_changes=scheme_changes,
            materialize=(
                None if spec.stream
                else lazy_row_views(codes, copy_after, prices)
            ),
        )


class ProtocolBackend(ExecutionBackend):
    """The two-node wire protocol, priced from its traffic ledger."""

    name = "protocol"

    def supports(self, algorithm_name: str) -> bool:
        from ..sim.policies import make_deciders

        try:
            make_deciders(algorithm_name)
        except (UnknownAlgorithmError, InvalidParameterError):
            return False
        return True

    def execute(self, spec: RunSpec, instrumentation) -> EngineResult:
        from ..sim.runner import simulate_protocol

        raw = simulate_protocol(
            spec.algorithm_name,
            spec.schedule,
            latency=spec.latency,
            faults=spec.faults,
            replicas=spec.replicas,
        )
        kinds = raw.event_kinds
        counts: Dict[CostEventKind, int] = {}
        for kind in kinds[spec.warmup:]:
            counts[kind] = counts.get(kind, 0) + 1
        if wants_per_request(instrumentation):
            for index, kind in enumerate(kinds):
                instrumentation.on_request(
                    index, kind, spec.cost_model.price(kind)
                )
        events = event_kinds = None
        if not spec.stream:
            event_kinds = kinds
            events = tuple(
                CostEvent(kind, spec.cost_model.price(kind)) for kind in kinds
            )
        return EngineResult(
            algorithm_name=spec.algorithm_name,
            backend_name=self.name,
            requests=len(spec.schedule),
            warmup=spec.warmup,
            total_cost=total_from_counts(counts, spec.cost_model),
            event_counts=counts,
            events=events,
            event_kinds=event_kinds,
            # The wire run does not expose a scheme trace; the ledger
            # classification is the observable.
            schemes=None,
            scheme_changes=None,
            raw=raw,
        )


register_backend(ReferenceBackend())
register_backend(VectorizedBackend())
register_backend(ProtocolBackend())
