"""The unified execution engine: one run path, three backends.

Every way of executing a schedule — the reference object replay, the
numpy kernels (one schedule per launch, or a whole ``(B, N)`` group
through :func:`run_batched_masks`) and the discrete-event wire
protocol — sits behind one dispatching entry point::

    from repro import engine
    from repro.costmodels import ConnectionCostModel
    from repro.workload import bernoulli_schedule

    result = engine.run("sw9", bernoulli_schedule(0.3, 1_000_000),
                        ConnectionCostModel(), backend="auto", stream=True)
    print(result.backend_name, result.mean_cost)

``backend="auto"`` routes to the vectorized kernels whenever they cover
the algorithm and falls back to the reference replay otherwise;
``stream=True`` aggregates without materializing a per-request event
tuple.  All backends thread the same
:mod:`~repro.engine.instrumentation` hooks and are bound by the
repository's central invariant: identical per-request event-kind
classification, enforced by the cross-backend equivalence tests.
"""

from .base import (
    BackendDiagnostic,
    EngineResult,
    ExecutionBackend,
    RunSpec,
    available_backends,
    get_backend,
    register_backend,
    total_from_counts,
)
from .cache import (
    CacheStats,
    ResultCache,
    default_cache,
    default_cache_dir,
    digest_parts,
)
from .dispatch import AUTO, run
from ..core.packed import PackedMasks, pack_write_masks
from .batched import (
    BatchSpec,
    execute_batch,
    kernel_threads,
    run_batched_masks,
)
from .parallel import (
    EngineTask,
    FunctionTask,
    ScenarioSpec,
    ScheduleSpec,
    SweepExecutor,
    SweepOutcome,
    WireStats,
    serial_executor,
)
from .instrumentation import (
    CounterInstrumentation,
    Instrumentation,
    TraceInstrumentation,
    wants_per_request,
)
from .versioning import INITIAL_VALUE, INITIAL_VERSION, value_for_write

# Importing the backends module registers the three backends.
from . import backends as _backends  # noqa: F401  (import for side effect)

__all__ = [
    "AUTO",
    "run",
    "BackendDiagnostic",
    "EngineResult",
    "ExecutionBackend",
    "RunSpec",
    "available_backends",
    "get_backend",
    "register_backend",
    "total_from_counts",
    "Instrumentation",
    "CounterInstrumentation",
    "TraceInstrumentation",
    "wants_per_request",
    "INITIAL_VALUE",
    "INITIAL_VERSION",
    "value_for_write",
    "CacheStats",
    "ResultCache",
    "default_cache",
    "default_cache_dir",
    "digest_parts",
    "BatchSpec",
    "PackedMasks",
    "execute_batch",
    "kernel_threads",
    "pack_write_masks",
    "run_batched_masks",
    "EngineTask",
    "FunctionTask",
    "ScenarioSpec",
    "ScheduleSpec",
    "SweepExecutor",
    "SweepOutcome",
    "WireStats",
    "serial_executor",
]
