"""Run one benchmark workload, check its outputs and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload serve-block --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` beside this directory.  A run
repeats whole cycles (set-up, timed units, the product's verification)
on the same seeded inputs until ``--seconds`` have passed, with at
least three cycles, and reports medians over them:

* ``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``:
  ``setup_s`` and ``wall_s`` are the import time plus the median cycle
  set-up and wall; ``decisions_per_s`` is the timed decisions over the
  timed seconds; latency percentiles pool every sample of the run.
  Times are scaled to the reference host speed (see :func:`probe`);
  the raw figures are printed beside them;
* ``--trace 1`` alternates untraced and traced cycles and prints every
  per-layer metric as the median over traced cycles of its per-cycle
  value: span times, exact counts, the memcpy roofline of the packed
  kernel and the tracing overhead (traced against untraced wall).

Each metric is printed by name with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The process exits non-zero, without a result, when the program cannot
be imported.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from statistics import median  # noqa: E402
from typing import Dict, List  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fewest cycles of each kind a run makes, however short ``--seconds``.
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2

#: The host-speed probe: a fixed pure-Python loop, independent of the
#: program, and its time on the reference host (an uncontended 2.1 GHz
#: Xeon vCPU, CPython 3.11).
PROBE_LOOPS = 40_000
REFERENCE_PROBE_S = 0.0025

#: Per-layer metrics that are exact counts and must repeat every cycle.
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", "drained_rows",
                  "drained_decisions", "retunes", "regime_changes")


def probe() -> float:
    """Time the probe loop once, in seconds.

    On a shared host (measured on 2 vCPUs of a 2.1 GHz Xeon) the same
    code runs up to 1.6x slower for seconds or minutes while neighbours
    contend for the core and its caches, so raw times spread 10-28%
    between runs.  The probe, timed
    between timed units, slows down with the host (correlation about 0.9
    with the unit times); multiplying a time by ``REFERENCE_PROBE_S``
    over the probe time around it gives the time at the reference host
    speed, which spreads far less between runs.
    """
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - started


@dataclass
class Cycle:
    setup_s: float
    wall_s: float
    unit_s: List[float]
    latency_s: List[float]
    #: Host-speed scale of each unit and of each latency sample, and
    #: the median over the cycle's probes.
    unit_scale: List[float]
    latency_scale: List[float]
    scale: float
    decisions_per_unit: int
    attempted: int
    failed: int
    errors: List[str]
    summary: tuple = ()
    layers: Dict[str, float] = field(default_factory=dict)


def run_cycle(workload, recorder=None):
    """One cycle; returns ``(Cycle, state)``."""
    workload.recorder = recorder
    if recorder is not None:
        recorder.clear()
    probes = [probe()]
    started = time.perf_counter()
    with workload.span("bench.generate"):
        inputs = workload.generate()
    state = workload.start(inputs)
    attempted = workload.warm_up(state)
    setup = time.perf_counter() - started
    unit_s: List[float] = []
    samples_per_unit: List[int] = []
    latency_s: List[float] = []
    errors: List[str] = []
    failed = 0
    units = workload.units(state)
    for unit in units:
        attempted += unit.decisions
        probes.append(probe())
        begun = time.perf_counter()
        try:
            samples = unit.run()
        except Exception as error:  # a failed unit is counted, not fatal
            failed += unit.decisions
            errors.append(f"unit raised {type(error).__name__}: {error}")
            break
        elapsed = time.perf_counter() - begun
        unit_s.append(elapsed)
        samples = samples if samples is not None else [elapsed]
        samples_per_unit.append(len(samples))
        latency_s.extend(samples)
    probes.append(probe())
    if not errors:
        try:
            workload.finish(state)
        except Exception as error:  # a failed verification fails the cycle
            failed = attempted
            errors.append(f"verification raised {type(error).__name__}: "
                          f"{error}")
    wall = time.perf_counter() - started - sum(probes[1:])
    # A unit runs at the host speed between the probes around it.
    unit_scale = [2 * REFERENCE_PROBE_S / (before + after)
                  for before, after in zip(probes[1:], probes[2:])]
    latency_scale = [scale for scale, count
                     in zip(unit_scale, samples_per_unit)
                     for _ in range(count)]
    cycle = Cycle(setup, wall, unit_s, latency_s, unit_scale, latency_scale,
                  REFERENCE_PROBE_S / median(probes), units[0].decisions,
                  attempted, failed, errors)
    if recorder is not None:
        cycle.layers = recorder.layer_metrics()
        cycle.layers.update(workload.layer_counts(state))
        cycle.layers["trace.unattributed_frac"] = (
            1.0 - cycle.layers.pop("trace.root_s") / wall)
        workload.recorder = None
    if not errors:
        cycle.summary = (workload.fingerprint(inputs), workload.summary(state))
    return cycle, state


def measure(workload, seconds: float, recorder, spans_path: str):
    """Cycles until about ``seconds`` have passed; returns (plain,
    traced, last state).  The run stops once the next cycle would end
    more than half a cycle past the deadline."""
    plain: List[Cycle] = []
    traced: List[Cycle] = []
    begun = time.perf_counter()
    while True:
        state = None  # free the previous cycle before building the next
        cycle, state = run_cycle(workload)
        plain.append(cycle)
        if recorder is not None:
            state = None
            recorder.install()
            try:
                cycle, state = run_cycle(workload, recorder)
            finally:
                recorder.uninstall()
            traced.append(cycle)
            if len(traced) == 1:
                recorder.write(spans_path)
            recorder.clear()
        done = (len(plain) >= MIN_CYCLES if recorder is None
                else len(traced) >= MIN_TRACED_CYCLES)
        elapsed = time.perf_counter() - begun
        step = elapsed / len(plain)
        if done and elapsed + step / 2 >= seconds:
            return plain, traced, state


def end_to_end(plain: List[Cycle], import_s: float,
               scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics, at the reference host speed or raw."""
    def scale(values: List[float], scales: List[float]) -> List[float]:
        return [v * k for v, k in zip(values, scales)] if scaled else values

    units = [t for c in plain for t in scale(c.unit_s, c.unit_scale)]
    latencies = [t for c in plain
                 for t in scale(c.latency_s, c.latency_scale)]
    factor = [c.scale if scaled else 1.0 for c in plain]
    return {
        "setup_s": import_s * factor[0]
        + median(c.setup_s * k for c, k in zip(plain, factor)),
        "wall_s": import_s * factor[0]
        + median(c.wall_s * k for c, k in zip(plain, factor)),
        "decisions_per_s": plain[0].decisions_per_unit * len(units)
        / sum(units),
        "latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "latency_p99_ms": 1e3 * float(np.percentile(latencies, 99)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain: List[Cycle], traced: List[Cycle], names: List[str],
              host: Dict[str, float]) -> Dict[str, float]:
    metrics = dict(host)
    for name in names:
        if name not in metrics:
            metrics[name] = median(c.layers.get(name, 0.0) for c in traced)
    rates = []
    for cycle in traced:
        seconds = cycle.layers.get("core.packed_run_counts.s", 0.0)
        computed = (cycle.layers.get("core.packed_run_counts.bytes", 0.0)
                    / (host["host.memcpy_gbps"] * 1e9))
        rates.append(computed / seconds if seconds else 0.0)
    metrics["core.packed_run_counts.roofline_frac"] = median(rates)
    metrics["trace.overhead_frac"] = (
        median(c.wall_s * c.scale for c in traced)
        / median(c.wall_s * c.scale for c in plain) - 1.0)
    return metrics


def repeat_errors(plain: List[Cycle], traced: List[Cycle]) -> List[str]:
    """Cycles whose results or exact counts differ from the first's."""
    errors = []
    cycles = plain + traced
    first = cycles[0]
    for number, cycle in enumerate(cycles[1:], start=2):
        if not (cycle.errors or first.errors) and \
                cycle.summary != first.summary:
            cycle.failed = cycle.attempted
            errors.append(f"cycle {number} results differ from cycle 1")
    exact = [{name: value for name, value in cycle.layers.items()
              if name.endswith(COUNT_SUFFIXES)} for cycle in traced]
    if any(counts != exact[0] for counts in exact[1:]):
        errors.append("exact counts differ between traced cycles")
    return errors


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
        from spans import (ASSUMED_LLC_BYTES, SpanRecorder,
                           last_level_cache_bytes, memcpy_bandwidth)
    except ImportError as error:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {error}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)

    host: Dict[str, float] = {}
    recorder = None
    if args.trace:
        llc = last_level_cache_bytes()
        host = memcpy_bandwidth(llc if llc else ASSUMED_LLC_BYTES)
        recorder = SpanRecorder()
    spans_path = os.path.join(
        HERE, "out", f"{args.workload}-seed{args.seed}.spans.json.gz")
    plain, traced, state = measure(workload, args.seconds, recorder,
                                   spans_path)
    cycles = plain + traced
    errors = [e for cycle in cycles for e in cycle.errors]
    errors += repeat_errors(plain, traced)
    if args.trace:
        metrics = per_layer(plain, traced,
                            [m["name"] for m in spec["per_layer"]], host)
        raw = metrics
        chosen = spec["per_layer"]
    else:
        metrics = end_to_end(plain, import_s)
        raw = end_to_end(plain, import_s, scaled=False)
        chosen = spec["end_to_end"]
    verification = workload.verify(state)
    attempted = sum(cycle.attempted for cycle in cycles)
    failed = min(attempted, sum(cycle.failed for cycle in cycles)
                 + sum(decisions for decisions, _ in verification.misses))
    errors += [message for _decisions, message in verification.misses]
    if not verification.corrupted_caught:
        errors.append("self-check: a corrupted result was not caught")

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    if plain[0].summary:
        print(f"  inputs sha256/16: {plain[0].summary[0]}")
    units = sum(len(c.unit_s) for c in plain)
    samples = sum(len(c.latency_s) for c in plain)
    print(f"  {len(plain)} untraced + {len(traced)} traced cycles; "
          f"{units} timed units ({workload.unit}); {samples} latency "
          f"samples ({workload.latency}); import {import_s:.3f} s")
    if not args.trace:
        print(f"  {'':<38} {'reference speed':>16} {'raw':>12}")
    for entry in chosen:
        name = entry["name"]
        beside = "" if args.trace else f" {raw[name]:>12.6g}"
        print(f"  {name:<38} {metrics[name]:>16.6g}{beside} "
              f"{entry['unit']}")
    print(f"  {'failed_frac':<44} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"  self-check, corrupted result caught: "
          f"{'yes' if verification.corrupted_caught else 'NO'}")
    if args.trace:
        print(f"  spans of the first traced cycle: "
              f"{os.path.relpath(spans_path, ROOT)}")
    for message in errors[:10]:
        print(f"  error: {message}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
