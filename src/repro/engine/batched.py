"""Batched execution: many runs, one kernel launch.

:func:`execute_batch` takes a :class:`BatchSpec` (or any sequence of
:class:`~repro.engine.base.RunSpec`), groups the batchable members by
``(algorithm, length, warmup, stream)`` and executes each group through
the ``(B, N)`` kernels of :mod:`repro.core.batched` — one numpy pass
for the whole group instead of one dispatch per run.  Specs the batch
path cannot take — fault injection, continued runs, algorithms without
a kernel — fall back per-spec to the ordinary dispatcher, so a mixed
batch always completes and every member is byte-identical to what a
lone :func:`repro.engine.run` would have produced.

Ragged batches are not an error: grouping by length simply yields more
groups.  A group of one still executes on the batched path — the
backend name and dispatch reason of a run must not depend on which
other runs happened to share its chunk (the sweep executor's
serial-equals-parallel contract).

One columnar entry, :func:`kernel_arrays`, owns the row-tile loop and
returns a launch's columns — ``(B, 6)`` counts, ``(B,)`` scheme flips
and, when asked, the ``(B, N)`` codes and replica flags.
:func:`run_batched_masks` is that entry plus one
:class:`~repro.engine.base.EngineResult` per row; the allocation
service calls the entry directly and folds the columns into its own
session state, so a drain builds no per-row object.  Two execution
tiers sit under the entry:

* **Packed counts.**  When the caller hands a
  :class:`~repro.core.packed.PackedMasks` (8 requests per byte) and
  only aggregates are observable — ``need_codes=False``, which
  :func:`run_batched_masks` passes for streaming, untraced runs — the
  per-kind counts and scheme flips come straight off the packed bytes
  via popcounts, never materializing a ``(B, N)`` code matrix.
* **Threaded row tiles.**  The ``(B, N)`` grid splits into row tiles
  fanned across a ``ThreadPoolExecutor`` — the kernels are
  embarrassingly parallel over rows and numpy releases the GIL, so
  threads scale on real cores.  The ``threads`` argument and the
  ``REPRO_KERNEL_THREADS`` environment variable control the fan; every
  tile writes disjoint slices of preallocated outputs, so the serial
  and threaded results are identical by construction.

The kernels are the ``vectorized`` backend's (a single run is a
one-row launch of them), so every result reports
``backend_name="vectorized"``.  The auto dispatcher runs single
schedules one at a time; batching is the sweep layer's decision.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.batched import (
    batched_counts,
    batched_run_arrays,
    stack_write_masks,
)
from ..core.batched import supports as batched_supports
from ..core.packed import PackedMasks, pack_write_masks, packed_run_counts
from ..core.vectorized import EVENT_KIND_ORDER
from ..costmodels.base import CostModel
from ..exceptions import InvalidParameterError
from .backends import VectorizedBackend, lazy_row_views
from .base import EngineResult, RunSpec, total_from_counts
from .dispatch import run as dispatch_run
from .instrumentation import Instrumentation, wants_per_request

__all__ = [
    "BatchSpec",
    "KernelArrays",
    "execute_batch",
    "kernel_arrays",
    "run_batched_masks",
    "kernel_threads",
    "supports",
]

#: Batched coverage is exactly the vectorized kernels', generalized.
supports = batched_supports

_NULL_INSTRUMENTATION = Instrumentation()

#: The fixed dispatch reason of a batched run.  Deliberately does not
#: mention the batch size: a run's outcome (including this string) must
#: be a pure function of the run alone, not of its chunk-mates.
_REASON = "batched kernel covers {name!r}"

#: Environment override for the kernel thread budget.
_ENV_THREADS = "REPRO_KERNEL_THREADS"

#: Default rows per tile; small enough that a tile's transient arrays
#: stay cache-friendly, large enough that tile dispatch is noise.
DEFAULT_TILE_ROWS = 32

#: Below this many grid elements an *auto-sized* launch stays serial —
#: pool startup would dwarf the kernels.  Explicit ``threads=`` or
#: ``REPRO_KERNEL_THREADS`` requests are always honoured.
_MIN_AUTO_PARALLEL_ELEMENTS = 1 << 20

#: Auto thread resolution caps at this many threads even on wider
#: boxes; past it the kernels are memory-bandwidth bound.
_MAX_AUTO_THREADS = 8


def kernel_threads(threads: Optional[int] = None) -> int:
    """Resolve the kernel thread budget.

    Precedence: an explicit ``threads`` argument, then the
    ``REPRO_KERNEL_THREADS`` environment variable, then the host core
    count (capped at ``_MAX_AUTO_THREADS``).  Invalid values raise
    :class:`~repro.exceptions.InvalidParameterError` — a typo'd budget
    silently running serial would defeat the knob's purpose.
    """
    if threads is not None:
        if not isinstance(threads, int) or isinstance(threads, bool) \
                or threads < 1:
            raise InvalidParameterError(
                f"kernel threads must be a positive int, got {threads!r}"
            )
        return threads
    env = os.environ.get(_ENV_THREADS)
    if env is not None and env.strip():
        try:
            value = int(env)
        except ValueError:
            raise InvalidParameterError(
                f"{_ENV_THREADS} must be a positive int, got {env!r}"
            )
        if value < 1:
            raise InvalidParameterError(
                f"{_ENV_THREADS} must be a positive int, got {env!r}"
            )
        return value
    return min(os.cpu_count() or 1, _MAX_AUTO_THREADS)


@dataclass(frozen=True)
class BatchSpec:
    """A set of runs offered for batched execution together."""

    runs: Tuple[RunSpec, ...]

    def __post_init__(self):
        for spec in self.runs:
            if not isinstance(spec, RunSpec):
                raise InvalidParameterError(
                    f"BatchSpec takes RunSpec members, got {spec!r}"
                )

    def __len__(self) -> int:
        return len(self.runs)


def _spec_batchable(spec: RunSpec) -> bool:
    return (
        spec.fresh
        and spec.faults is None
        and batched_supports(spec.algorithm_name)
    )


def _row_tiles(batch: int, threads: int) -> List[Tuple[int, int]]:
    """Split ``batch`` rows into ``[start, stop)`` tiles.

    The tile height is :data:`DEFAULT_TILE_ROWS`, shrunk so a small
    batch still yields one tile per thread (the last tile may be
    shorter).
    """
    if batch == 0:
        return []
    tile_rows = max(1, min(DEFAULT_TILE_ROWS, -(-batch // max(threads, 1))))
    return [
        (start, min(start + tile_rows, batch))
        for start in range(0, batch, tile_rows)
    ]


def _map_tiles(fn, tiles: List[Tuple[int, int]], threads: int) -> None:
    """Run ``fn(start, stop)`` over every tile, threaded when asked.

    Tiles write disjoint row slices of preallocated outputs, so the
    execution order — and therefore the thread count — cannot change
    any result byte.  Exceptions propagate (``pool.map`` re-raises).
    """
    if threads <= 1 or len(tiles) <= 1:
        for start, stop in tiles:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=min(threads, len(tiles))) as pool:
        for _ in pool.map(lambda tile: fn(*tile), tiles):
            pass


class KernelArrays(NamedTuple):
    """The column-level outputs of one kernel launch over ``B`` rows."""

    #: ``(B, 6)`` int64 event counts in ``EVENT_KIND_ORDER``, warmup
    #: excluded.
    counts: np.ndarray
    #: ``(B,)`` int64 scheme changes over the full rows.
    flips: np.ndarray
    #: ``(B, N)`` int64 event-kind codes, or ``None`` on the packed
    #: counts tier.
    codes: Optional[np.ndarray]
    #: ``(B, N)`` bool replica flags after each request, or ``None``
    #: on the packed counts tier.
    copy_after: Optional[np.ndarray]


def kernel_arrays(
    algorithm_name: str,
    writes: Union[np.ndarray, PackedMasks],
    *,
    warmup: int = 0,
    need_codes: bool = True,
    threads: Optional[int] = None,
) -> KernelArrays:
    """Run one ``(B, N)`` launch of the kernels and return its columns.

    The columnar entry point: masks in, counts, flips and (when asked)
    per-request codes and replica flags out, with no per-row object.
    A :class:`~repro.core.packed.PackedMasks` input with
    ``need_codes=False`` takes the packed counts tier and leaves
    ``codes``/``copy_after`` as ``None``; every other launch
    materializes them, unpacking packed rows tile by tile.

    ``threads`` (default: ``REPRO_KERNEL_THREADS``, else the core
    count, kept serial below ``_MIN_AUTO_PARALLEL_ELEMENTS``) fans row
    tiles across a thread pool; the outputs are identical to serial
    execution byte for byte.
    """
    packed = writes if isinstance(writes, PackedMasks) else None
    if packed is None:
        writes = np.asarray(writes)
    batch, length = writes.shape
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
    if warmup > length:
        raise InvalidParameterError(
            f"warmup {warmup} exceeds the schedule length {length}"
        )
    auto = threads is None and not os.environ.get(_ENV_THREADS)
    threads = kernel_threads(threads)
    if auto and batch * length < _MIN_AUTO_PARALLEL_ELEMENTS:
        threads = 1
    tiles = _row_tiles(batch, threads)

    counts = np.zeros((batch, len(EVENT_KIND_ORDER)), dtype=np.int64)
    flips = np.zeros(batch, dtype=np.int64)
    codes = copy_after = None

    if packed is not None and not need_codes:
        # Packed counts tier: aggregates straight off the bits.
        def compute_tile(start: int, stop: int) -> None:
            tile_counts, tile_flips = packed_run_counts(
                algorithm_name, packed.rows(start, stop), warmup
            )
            counts[start:stop] = tile_counts
            flips[start:stop] = tile_flips
    else:
        codes = np.empty((batch, length), dtype=np.int64)
        copy_after = np.empty((batch, length), dtype=bool)

        def compute_tile(start: int, stop: int) -> None:
            tile = (
                packed.rows(start, stop).to_bool()
                if packed is not None
                else writes[start:stop]
            )
            tile_codes, tile_copy = batched_run_arrays(algorithm_name, tile)
            codes[start:stop] = tile_codes
            copy_after[start:stop] = tile_copy
            counts[start:stop] = batched_counts(tile_codes, warmup)
            if length:
                flips[start:stop] = (
                    tile_copy[:, 1:] != tile_copy[:, :-1]
                ).sum(axis=1)

    _map_tiles(compute_tile, tiles, threads)
    return KernelArrays(counts, flips, codes, copy_after)


def _kernel_results(
    algorithm_name: str,
    writes,
    cost_models: Sequence[CostModel],
    *,
    warmup: int,
    stream: bool,
    instrumentation,
    threads: Optional[int] = None,
) -> List[EngineResult]:
    """One :func:`kernel_arrays` launch, then one result per row.

    Fires only the per-request trace hook (when an instrument listens);
    run lifecycle hooks, timing and dispatch reasons belong to
    :func:`run_batched_masks`.
    """
    trace = wants_per_request(instrumentation)
    arrays = kernel_arrays(
        algorithm_name, writes,
        warmup=warmup, need_codes=trace or not stream, threads=threads,
    )
    codes, copy_after = arrays.codes, arrays.copy_after
    length = writes.shape[1]
    results: List[EngineResult] = []
    for row, cost_model in enumerate(cost_models):
        counts = {
            kind: int(count)
            for kind, count in zip(EVENT_KIND_ORDER, arrays.counts[row])
            if count
        }
        # Per-kind prices are only consumed by the trace hook and the
        # materialized per-request tuples; streamed untraced runs skip
        # pricing entirely (totals price counts, not events).
        prices = (
            [cost_model.price(kind) for kind in EVENT_KIND_ORDER]
            if trace or not stream
            else None
        )
        if trace:
            for index, code in enumerate(codes[row]):
                instrumentation.on_request(
                    index, EVENT_KIND_ORDER[code], prices[code]
                )
        results.append(
            EngineResult(
                algorithm_name=algorithm_name,
                backend_name=VectorizedBackend.name,
                requests=length,
                warmup=warmup,
                total_cost=total_from_counts(counts, cost_model),
                event_counts=counts,
                scheme_changes=int(arrays.flips[row]),
                materialize=(
                    None if stream
                    else lazy_row_views(codes[row], copy_after[row], prices)
                ),
            )
        )
    return results


def run_batched_masks(
    algorithm_name: str,
    writes: Union[np.ndarray, PackedMasks],
    cost_models: Sequence[CostModel],
    *,
    warmup: int = 0,
    stream: bool = True,
    instrumentation: Optional[Instrumentation] = None,
    threads: Optional[int] = None,
) -> List[EngineResult]:
    """Execute one batch group straight from a ``(B, N)`` write matrix.

    The mask-level entry point: sweep workers that already hold write
    masks (from a shared-memory arena or a seeded generator recipe)
    skip building ``Request`` objects entirely — which is where the
    batched path's large speedup over per-schedule execution comes
    from.  ``cost_models[b]`` prices row ``b``; models may differ
    across the batch (counts are model-independent).

    ``writes`` may be a :class:`~repro.core.packed.PackedMasks` (8
    requests per byte).  A packed, streaming, untraced group takes the
    popcount counts tier — aggregates computed on the packed bytes, no
    ``(B, N)`` code materialization; anything that needs per-request
    codes unpacks tile by tile.

    ``threads`` (default: ``REPRO_KERNEL_THREADS``, else the core
    count) fans row tiles across a thread pool; the results are
    identical to serial execution byte for byte.  Callers that fold
    the columns themselves call :func:`kernel_arrays` instead.
    """
    name = algorithm_name.strip().lower()
    if not isinstance(writes, PackedMasks):
        writes = np.asarray(writes)
    batch, length = writes.shape
    if len(cost_models) != batch:
        raise InvalidParameterError(
            f"{batch} schedule rows but {len(cost_models)} "
            "cost models"
        )
    instruments = (
        instrumentation if instrumentation is not None
        else _NULL_INSTRUMENTATION
    )
    reason = _REASON.format(name=name)
    for _ in range(batch):
        instruments.on_run_start(name, VectorizedBackend.name, length,
                                 reason)
    started = time.perf_counter()
    results = _kernel_results(
        name, writes, cost_models,
        warmup=warmup, stream=stream, instrumentation=instruments,
        threads=threads,
    )
    elapsed = (time.perf_counter() - started) / max(batch, 1)
    for result in results:
        result.elapsed_seconds = elapsed
        result.dispatch_reason = reason
        instruments.on_run_end(result)
    if batch:
        instruments.on_batch(name, batch, batch * length)
    return results


def execute_batch(
    batch: Union[BatchSpec, Sequence[RunSpec]],
    instrumentation: Optional[Instrumentation] = None,
) -> List[EngineResult]:
    """Execute a batch of run specs; results in member order.

    Batchable specs (fresh, fault-free, kernel-covered) group by
    ``(algorithm, length, warmup, stream)`` and execute one group per
    kernel launch; everything else falls back per-spec to
    :func:`repro.engine.run` with auto dispatch.  Every member's result
    is byte-identical to running it alone.
    """
    specs = tuple(batch.runs if isinstance(batch, BatchSpec) else batch)
    results: List[Optional[EngineResult]] = [None] * len(specs)
    groups: Dict[Tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        if _spec_batchable(spec):
            key = (
                spec.algorithm_name.strip().lower(),
                len(spec.schedule),
                spec.warmup,
                spec.stream,
            )
            groups.setdefault(key, []).append(index)
        else:
            results[index] = dispatch_run(
                spec.algorithm,
                spec.schedule,
                spec.cost_model,
                stream=spec.stream,
                warmup=spec.warmup,
                fresh=spec.fresh,
                latency=spec.latency,
                faults=spec.faults,
                instrumentation=instrumentation,
            )
    for (name, _length, warmup, stream), members in groups.items():
        writes = stack_write_masks([specs[i].schedule for i in members])
        group_results = run_batched_masks(
            name,
            writes,
            [specs[i].cost_model for i in members],
            warmup=warmup,
            stream=stream,
            instrumentation=instrumentation,
        )
        for index, result in zip(members, group_results):
            results[index] = result
    return results  # type: ignore[return-value]
