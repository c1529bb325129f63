"""Per-schedule vectorized replay and the kernels' shared vocabulary.

The object-per-request replay of :mod:`repro.core.replay` is the
reference implementation; Monte-Carlo sweeps over millions of requests
want something faster.  Because SWk's scheme is a pure function of the
last k requests (see docs/derivations.md §1), its whole cost sequence
falls out of a rolling write-count — pure numpy, no Python-level loop.
The threshold methods T1m/T2m depend only on the length of the current
read run (T1m) or write run (T2m), which a ``maximum.accumulate`` over
the opposite operation's indices recovers without a loop either.

Supported algorithms: ``st1``, ``st2``, ``sw1``, ``swK``, ``t1_M`` and
``t2_M``.  The estimator methods (EWMA, hysteresis windows) carry
genuinely sequential state and stay on the reference path.

Each rule has one array implementation, the ``(B, N)`` kernels of
:mod:`repro.core.batched`; the functions here run a single schedule as
a one-row launch of them.  This module owns what every kernel shares:
:data:`EVENT_KIND_ORDER` and its integer codes, the algorithm-name
patterns and :func:`supports`.

The contract — verified by tests and by the throughput benchmark —
is exact equality with :func:`repro.core.replay.replay`, event kind by
event kind.  :mod:`repro.engine` routes through this module whenever
:func:`supports` holds.
"""

from __future__ import annotations

import re
from typing import Tuple

import numpy as np

from ..costmodels.base import CostEventKind, CostModel
from ..exceptions import InvalidParameterError
from ..types import Schedule, write_bits

__all__ = [
    "EVENT_KIND_ORDER",
    "fast_event_kinds",
    "fast_run_arrays",
    "fast_total_cost",
    "supports",
]

_SW_PATTERN = re.compile(r"^sw(\d+)$")
_T1_PATTERN = re.compile(r"^t1_(\d+)$")
_T2_PATTERN = re.compile(r"^t2_(\d+)$")

#: Integer codes for the event kinds, indexable by numpy.  The engine's
#: vectorized backend aggregates per-kind counts by ``bincount`` over
#: codes in this order.
EVENT_KIND_ORDER: Tuple[CostEventKind, ...] = (
    CostEventKind.LOCAL_READ,
    CostEventKind.REMOTE_READ,
    CostEventKind.WRITE_NO_COPY,
    CostEventKind.WRITE_PROPAGATED,
    CostEventKind.WRITE_PROPAGATED_DEALLOCATE,
    CostEventKind.WRITE_DELETE_REQUEST,
)
_KINDS = EVENT_KIND_ORDER
_LOCAL_READ, _REMOTE_READ, _WRITE_NO_COPY = 0, 1, 2
_WRITE_PROPAGATED, _WRITE_PROPAGATED_DEALLOCATE, _WRITE_DELETE_REQUEST = 3, 4, 5


def supports(algorithm_name: str) -> bool:
    """Whether the vectorized path handles this algorithm."""
    lowered = algorithm_name.strip().lower()
    if lowered in ("st1", "st2", "sw1"):
        return True
    return bool(
        _SW_PATTERN.match(lowered)
        or _T1_PATTERN.match(lowered)
        or _T2_PATTERN.match(lowered)
    )


def _ensure_threshold(m: int) -> int:
    if m < 1:
        raise InvalidParameterError(f"threshold m must be >= 1, got {m}")
    return m


def fast_event_kinds(algorithm_name: str, schedule: Schedule) -> Tuple[CostEventKind, ...]:
    """The per-request cost events, computed without a Python loop."""
    codes, _copy_after = fast_run_arrays(algorithm_name, schedule)
    return tuple(_KINDS[code] for code in codes)


def fast_run_arrays(
    algorithm_name: str, schedule: Schedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Event-kind codes and post-request replica flags, as arrays.

    Returns ``(codes, copy_after)`` where ``codes[i]`` indexes
    :data:`EVENT_KIND_ORDER` and ``copy_after[i]`` says whether the MC
    holds a replica *after* serving request ``i`` (the vectorized
    analogue of :attr:`~repro.core.replay.ReplayResult.schemes`).
    A one-row launch of :func:`repro.core.batched.batched_run_arrays`.
    """
    # Imported here: repro.core.batched imports this module's constants.
    from .batched import batched_run_arrays

    codes, copy_after = batched_run_arrays(
        algorithm_name, write_bits(schedule)[None, :]
    )
    return codes[0], copy_after[0]


def fast_total_cost(
    algorithm_name: str,
    schedule: Schedule,
    cost_model: CostModel,
) -> float:
    """Total cost of a run, exactly equal to the reference replay's."""
    codes, _copy_after = fast_run_arrays(algorithm_name, schedule)
    prices = np.array([cost_model.price(kind) for kind in _KINDS])
    return float(prices[codes].sum())
