"""Span recorder for the traced benchmark run, and the memcpy roofline.

The recorder wraps each layer's public entry point at the module or
class attribute its caller resolves (``repro.service.host.run_batched_masks``,
``repro.engine.batched.packed_run_counts``, ...), so no file of the
program changes.  A span is ``[name, start_ns, end_ns, parent]``; spans
stay in memory while a cycle runs and are written out when the run
ends.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import gzip
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core.adaptive
import repro.engine
import repro.engine.backends
import repro.engine.batched
import repro.engine.dispatch
import repro.engine.parallel
import repro.service.host
import repro.workload.scenarios
from repro.core.adaptive import AdaptiveAllocator

_now = time.perf_counter_ns


class SpanRecorder:
    """In-memory spans plus exact counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.adaptive: List[AdaptiveAllocator] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def clear(self) -> None:
        """Forget the spans and counts of the previous cycle."""
        self.spans = []
        self.counts = defaultdict(float)
        self.adaptive = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        record = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name_id: int) -> list:
        record = [name_id, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = _now()
        return record

    def _close(self, record: list) -> None:
        record[2] = _now()
        self._stack.pop()

    def wrap(self, owner, attribute: str, name: str,
             rename: Optional[Callable] = None,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``rename(args, result)`` renames the span once the call returns
        (``engine.run`` is split by the backend it chose);
        ``count(counts, args, result)`` adds exact counts.
        """
        original = owner.__dict__[attribute]
        name_id = self._id(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if rename is not None:
                record[0] = self._id(rename(args, result))
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every layer entry point the workloads reach."""
        host = repro.service.host
        service = host.AllocationService
        for attribute in ("open_session", "plan_block", "submit_block",
                          "submit", "drain_shard", "serve_one", "audit",
                          "replay_verify"):
            self.wrap(service, attribute, f"service.{attribute}")
        self.wrap(host, "shard_of", "service.shard_of")

        def count_rows(counts, args, result):
            counts["engine.run_batched_masks.rows"] += len(args[2])

        for module in (host, repro.engine.parallel):
            self.wrap(module, "run_batched_masks", "engine.run_batched_masks",
                      count=count_rows)
        self.wrap(repro.engine.parallel.SweepExecutor, "map",
                  "engine.sweep_map")

        def backend_name(args, result):
            return f"engine.run.{result.backend_name}"

        for module, attribute in ((repro.engine, "run"),
                                  (host, "engine_run")):
            self.wrap(module, attribute, "engine.run", rename=backend_name)

        def keep_adaptive(counts, args, result):
            if isinstance(result, AdaptiveAllocator):
                self.adaptive.append(result)

        self.wrap(repro.engine.dispatch, "make_algorithm",
                  "core.make_algorithm", count=keep_adaptive)
        self.wrap(repro.engine.backends.ReferenceBackend, "execute",
                  "core.reference",
                  rename=lambda args, result: (
                      "core.adaptive" if args[1].algorithm_name == "adaptive"
                      else "core.reference"))
        self.wrap(repro.engine.backends, "fast_run_arrays",
                  "core.fast_run_arrays")

        batched = repro.engine.batched
        self.wrap(batched, "batched_run_arrays", "core.batched_run_arrays")
        self.wrap(batched, "batched_counts", "core.batched_counts")

        def count_bytes(counts, args, result):
            counts["core.packed_run_counts.bytes"] += args[1].nbytes

        self.wrap(batched, "packed_run_counts", "core.packed_run_counts",
                  count=count_bytes)
        self.wrap(repro.engine.parallel, "pack_write_masks",
                  "core.pack_write_masks")
        self.wrap(repro.engine.parallel, "bernoulli_mask",
                  "workload.build_mask")
        self.wrap(repro.workload.scenarios.Scenario, "generate",
                  "workload.scenario_generate")
        adaptive = repro.core.adaptive
        self.wrap(adaptive, "scan_window_counts", "core.scan_window_counts")
        self.wrap(adaptive, "scan_threshold_counts",
                  "core.scan_threshold_counts")

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def layer_metrics(self) -> Dict[str, float]:
        """Per-name ``.s``, ``.self_s`` and ``.calls``, plus root time.

        ``trace.root_s`` is the time covered by spans without a parent;
        the rest of a cycle's wall time is unattributed.
        """
        durations = [(end - start) / 1e9 for _n, start, end, _p in self.spans]
        children = [0.0] * len(self.spans)
        root = 0.0
        for index, (_name, _start, _end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += durations[index]
            else:
                root += durations[index]
        metrics: Dict[str, float] = defaultdict(float)
        for index, (name_id, _start, _end, _parent) in enumerate(self.spans):
            name = self.names[name_id]
            metrics[f"{name}.s"] += durations[index]
            metrics[f"{name}.self_s"] += durations[index] - children[index]
            metrics[f"{name}.calls"] += 1
        metrics.update(self.counts)
        metrics["core.adaptive.retunes"] = sum(
            allocator.retunes for allocator in self.adaptive)
        metrics["core.adaptive.regime_changes"] = sum(
            allocator.regime_changes for allocator in self.adaptive)
        metrics["trace.root_s"] = root
        return metrics

    def write(self, path: str) -> None:
        """Write the current spans as gzip'd JSON (times in ns)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": self.names, "fields":
                       ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, handle)


def last_level_cache_bytes() -> Optional[int]:
    """Size of the highest-level CPU cache sysfs reports, if any."""
    best = None
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(index, "size")) as handle:
                text = handle.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


#: Cache size assumed when sysfs reports none.
ASSUMED_LLC_BYTES = 32 << 20


def memcpy_bandwidth(llc_bytes: int, repeats: int = 5) -> Dict[str, float]:
    """Median memcpy rate (bytes copied per second) out of the caches.

    One buffer of four times the last-level cache is split into a
    source and a destination half, so together they are 4x the LLC and
    each is 2x: neither fits in the cache, and the peak memory stays at
    one buffer.
    """
    buffer = np.ones(4 * llc_bytes, dtype=np.uint8)
    half = buffer.size // 2
    source, destination = buffer[:half], buffer[half:2 * half]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(destination, source)
        times.append(time.perf_counter() - started)
    del source, destination, buffer
    return {
        "host.llc_mb": llc_bytes / 2**20,
        "host.memcpy_array_mb": half / 2**20,
        "host.memcpy_gbps": half / sorted(times)[len(times) // 2] / 1e9,
    }
