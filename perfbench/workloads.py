"""The benchmark's four workloads.

Each workload turns a seed into inputs, hands the program only those
inputs, and splits one *cycle* of work into three parts:

* set-up: input generation, admission and one untimed warm-up unit;
* timed units, each of the same number of decisions;
* the product's own verification (``audit``/``replay_verify``).

Every cycle of a run regenerates the same inputs, so the results and
exact counts of every cycle must agree.  :meth:`Workload.verify` then
checks the last cycle against independent references, outside the
clock, and proves that a deliberately corrupted result is caught.

All program calls go through public functions of ``repro.service``,
``repro.engine``, ``repro.core`` and ``repro.workload``, with
``kernel_threads=1``, ``jobs=1`` and ``cache=None``.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import engine
from repro.core.adaptive import DEFAULT_KS
from repro.core.offline import OfflineOptimal
from repro.costmodels import ConnectionCostModel
from repro.engine import EngineTask, ScheduleSpec, SweepExecutor
from repro.service import (
    DEFAULT_ALGORITHMS,
    AllocationService,
    ServiceConfig,
    ServiceCounters,
    SessionKey,
)
from repro.types import Operation, Schedule
from repro.workload import get_scenario, regime_switching_scenarios, spawn_seeds

MODEL = ConnectionCostModel()

#: Statics run beside the adaptive allocator (the t-scenarios set).
STATICS = ("st1", "st2", "sw1", "sw3", "sw9", "t1_4", "t2_4")


@dataclass
class Unit:
    """One timed unit: ``run()`` returns latency samples or ``None``
    (then the unit's own time is the sample)."""

    decisions: int
    run: Callable[[], Optional[List[float]]]


@dataclass
class Verification:
    """Harness checks of one cycle: misses as ``(decisions, message)``,
    and whether a deliberately corrupted result was caught."""

    misses: List[Tuple[int, str]]
    corrupted_caught: bool


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def _counts(result) -> Dict[str, int]:
    """An engine result's event counts keyed by kind value."""
    return {kind.value: int(n) for kind, n in result.event_counts.items() if n}


def _compare(label: str, got: dict, want: dict) -> List[str]:
    return [
        f"{label}: {key} is {got.get(key)!r}, reference {want[key]!r}"
        for key in want if got.get(key) != want[key]
    ]


class Workload:
    """Base: seeds, sizes and the tracing hook shared by all workloads."""

    name = ""
    #: What one timed unit and one latency sample are, for the report.
    unit = ""
    latency = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: Set by the runner to a SpanRecorder during traced cycles.
        self.recorder = None

    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def generate(self):
        raise NotImplementedError

    def start(self, inputs):
        """Build the program objects (admission); returns the state."""
        raise NotImplementedError

    def warm_up(self, state) -> int:
        raise NotImplementedError

    def units(self, state) -> List[Unit]:
        raise NotImplementedError

    def finish(self, state) -> None:
        """The product's own verification calls (part of the wall)."""

    def summary(self, state) -> tuple:
        """Results and exact counts that every cycle must repeat."""
        raise NotImplementedError

    def layer_counts(self, state) -> Dict[str, float]:
        """Exact counts the program itself reports, for traced runs."""
        return {}

    def fingerprint(self, inputs) -> str:
        raise NotImplementedError

    def verify(self, state) -> Verification:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Serving: block rounds and a live stream
# ---------------------------------------------------------------------------


class _ServeWorkload(Workload):
    """Shared admission and verification of the two serve workloads."""

    shards = 32
    audit_sessions_per_shard = 8
    replay_sample = 32
    check_sample = 6

    def _population(self, rng, sessions: int):
        ids = rng.permutation(4 * sessions)[:sessions]
        keys = [
            SessionKey(f"mc-{ident:08d}", f"item-{ident % 997:03d}", "bench")
            for ident in ids.tolist()
        ]
        algorithms = [DEFAULT_ALGORITHMS[i % len(DEFAULT_ALGORITHMS)]
                      for i in range(sessions)]
        thetas = rng.uniform(0.05, 0.95, sessions)
        return ids, keys, algorithms, thetas

    def _admit(self, keys, algorithms):
        # The service's own counters are observability: attached only
        # in traced cycles, so untraced cycles run the default service.
        counters = ServiceCounters() if self.recorder is not None else None
        service = AllocationService(
            ServiceConfig(num_shards=self.shards, namespace="bench",
                          kernel_threads=1),
            instrumentation=counters,
        )
        homes = [service.open_session(key, algorithm)
                 for key, algorithm in zip(keys, algorithms)]
        return service, counters, homes

    def finish(self, state) -> None:
        state["audit"] = state["service"].audit(self.audit_sessions_per_shard)
        state["replay"] = state["service"].replay_verify(self.replay_sample)

    def _sample(self, state) -> List[int]:
        """Sessions the harness checks against the reference backend."""
        rng = np.random.default_rng([self.seed, 99])
        return sorted(rng.choice(len(state["keys"]), self.check_sample,
                                 replace=False).tolist())

    def _session_writes(self, state, index: int) -> np.ndarray:
        """Every write bit session ``index`` was sent, in order."""
        raise NotImplementedError

    def summary(self, state) -> tuple:
        service = state["service"]
        infos = tuple(
            str(service.session_info(state["keys"][index]))
            for index in self._sample(state)
        )
        return (service.decisions, str(state["audit"]), str(state["replay"]),
                infos)

    def layer_counts(self, state) -> Dict[str, float]:
        counters = state["counters"]
        return {"service.drained_rows": counters.drained_sessions,
                "service.drained_decisions": counters.drained_decisions}

    def _check_sessions(self, state) -> Tuple[List[Tuple[int, str]], bool]:
        """Sampled sessions against the reference backend, plus the
        corrupted-result probe on the first sampled session."""
        service = state["service"]
        misses: List[Tuple[int, str]] = []
        probe = None
        for index in self._sample(state):
            key = state["keys"][index]
            writes = self._session_writes(state, index)
            reference = engine.run(
                state["algorithms"][index],
                Schedule.from_operations(
                    Operation.WRITE if bit else Operation.READ
                    for bit in writes.tolist()),
                MODEL, backend="reference", stream=True)
            info = service.session_info(key)
            got = {"decisions": info["decisions"],
                   "event_counts": info["event_counts"],
                   "total_cost": info["total_cost"]}
            want = {"decisions": int(writes.size),
                    "event_counts": _counts(reference),
                    "total_cost": reference.total_cost}
            wrong = _compare(str(key), got, want)
            if wrong:
                misses.append((int(writes.size), "; ".join(wrong)))
            if probe is None:
                bad = dict(got, total_cost=got["total_cost"] + 1.0)
                probe = bool(_compare(str(key), bad, want))
        return misses, bool(probe)


class ServeBlock(_ServeWorkload):
    """Uniform ``submit_block`` rounds over the whole population, in the
    ``repro serve --self-test`` shape: 32 shards, the default
    eight-rule mix, then ``audit`` and ``replay_verify``."""

    name = "serve-block"
    unit = "submit_block round"
    latency = "submit_block round"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.sessions = 2_000 if tiny else 25_000
        self.ops = 10 if tiny else 50
        self.rounds = 2 if tiny else 8

    def generate(self):
        rng = np.random.default_rng([self.seed, 1])
        ids, keys, algorithms, thetas = self._population(rng, self.sessions)
        rounds = [
            rng.random((self.sessions, self.ops)) < thetas[:, None]
            for _ in range(1 + self.rounds)
        ]
        return {"ids": ids, "keys": keys, "algorithms": algorithms,
                "rounds": rounds}

    def fingerprint(self, inputs) -> str:
        return _digest(inputs["ids"], *inputs["rounds"])

    def start(self, inputs):
        service, counters, _homes = self._admit(
            inputs["keys"], inputs["algorithms"])
        plan = service.plan_block(inputs["keys"])
        return dict(inputs, service=service, counters=counters, plan=plan,
                    decided=[])

    def warm_up(self, state) -> int:
        return state["service"].submit_block(state["plan"], state["rounds"][0])

    def units(self, state) -> List[Unit]:
        def round_(matrix):
            state["decided"].append(
                state["service"].submit_block(state["plan"], matrix))

        return [Unit(self.sessions * self.ops,
                     lambda matrix=matrix: round_(matrix))
                for matrix in state["rounds"][1:]]

    def _session_writes(self, state, index: int) -> np.ndarray:
        return np.concatenate([matrix[index] for matrix in state["rounds"]])

    def verify(self, state) -> Verification:
        misses, caught = self._check_sessions(state)
        per_round = self.sessions * self.ops
        wrong = [d for d in state["decided"] if d != per_round]
        if wrong:
            misses.append((sum(wrong),
                           f"submit_block returned {wrong}, not {per_round}"))
        return Verification(misses, caught)


class ServeStream(_ServeWorkload):
    """A live op stream over a skewed key population through ``submit``
    (auto-drain at the default threshold), with a fixed share of
    interactive ``serve_one`` calls, each timed."""

    name = "serve-stream"
    unit = "op chunk"
    latency = "serve_one call"
    interactive_share = 0.01
    zipf_exponent = 1.1

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.sessions = 1_000 if tiny else 20_000
        self.chunk = 1_000 if tiny else 10_000
        self.chunks = 2 if tiny else 12

    def generate(self):
        rng = np.random.default_rng([self.seed, 2])
        ids, keys, algorithms, thetas = self._population(rng, self.sessions)
        weights = 1.0 / np.arange(1, self.sessions + 1) ** self.zipf_exponent
        popularity = rng.permutation(weights / weights.sum())
        total = self.chunk * (1 + self.chunks)
        sessions = rng.choice(self.sessions, total, p=popularity)
        writes = rng.random(total) < thetas[sessions]
        interactive = rng.random(total) < self.interactive_share
        return {"ids": ids, "keys": keys, "algorithms": algorithms,
                "sessions": sessions, "writes": writes,
                "interactive": interactive}

    def fingerprint(self, inputs) -> str:
        return _digest(inputs["ids"], inputs["sessions"], inputs["writes"],
                       inputs["interactive"])

    def start(self, inputs):
        service, counters, homes = self._admit(
            inputs["keys"], inputs["algorithms"])
        keys = inputs["keys"]
        return dict(
            inputs, service=service, counters=counters, homes=homes,
            op_keys=[keys[i] for i in inputs["sessions"].tolist()],
            ops=[Operation.WRITE if bit else Operation.READ
                 for bit in inputs["writes"].tolist()],
            flags=inputs["interactive"].tolist(),
            answers=[], depths=[])

    def _run_chunk(self, state, start: int) -> List[float]:
        service = state["service"]
        submit, serve_one = service.submit, service.serve_one
        keys, ops, flags = state["op_keys"], state["ops"], state["flags"]
        answers = state["answers"]
        probe = self.recorder is not None
        latencies = []
        for j in range(start, start + self.chunk):
            if flags[j]:
                if probe:
                    self._probe_depth(state, j)
                started = time.perf_counter()
                answers.append(serve_one(keys[j], ops[j]))
                latencies.append(time.perf_counter() - started)
            else:
                submit(keys[j], ops[j])
        return latencies

    def _probe_depth(self, state, j: int) -> None:
        """Work waiting on the shard ``serve_one`` is about to drain."""
        with self.span("bench.queue_probe"):
            home = state["homes"][state["sessions"][j]]
            depths = state["service"].metrics()["queue_depths"]
            state["depths"].append(depths.get(home, 0))

    def warm_up(self, state) -> int:
        self._run_chunk(state, 0)
        return self.chunk

    def units(self, state) -> List[Unit]:
        return [Unit(self.chunk,
                     lambda start=start: self._run_chunk(state, start))
                for start in range(self.chunk, self.chunk * (1 + self.chunks),
                                   self.chunk)]

    def finish(self, state) -> None:
        state["service"].drain_all()
        super().finish(state)

    def summary(self, state) -> tuple:
        answers = tuple(kind.value for kind in state["answers"])
        return super().summary(state) + (answers,)

    def layer_counts(self, state) -> Dict[str, float]:
        counts = super().layer_counts(state)
        if state["depths"]:
            counts["service.queue_depth_at_serve_one.p50"] = float(
                np.median(state["depths"]))
        return counts

    def _sample(self, state) -> List[int]:
        # Sessions behind randomly drawn ops, so popular ones dominate.
        rng = np.random.default_rng([self.seed, 99])
        ops = rng.choice(len(state["sessions"]), self.check_sample)
        return np.unique(state["sessions"][ops]).tolist()

    def _session_writes(self, state, index: int) -> np.ndarray:
        return state["writes"][state["sessions"] == index]

    def verify(self, state) -> Verification:
        misses, caught = self._check_sessions(state)
        # The interactive answers of the sampled sessions must be the
        # reference decisions at those positions of their streams.
        flagged = np.flatnonzero(state["interactive"])
        answers = dict(zip(flagged.tolist(), state["answers"]))
        for index in self._sample(state):
            positions = np.flatnonzero(state["sessions"] == index)
            writes = state["writes"][positions]
            reference = engine.run(
                state["algorithms"][index],
                Schedule.from_operations(
                    Operation.WRITE if bit else Operation.READ
                    for bit in writes.tolist()),
                MODEL, backend="reference")
            for offset, position in enumerate(positions.tolist()):
                if position in answers and \
                        answers[position] != reference.event_kinds[offset]:
                    misses.append((1, f"serve_one at op {position} answered "
                                      f"{answers[position].value}, reference "
                                      f"{reference.event_kinds[offset].value}"))
        if len(state["answers"]) != int(state["interactive"].sum()):
            misses.append((abs(len(state["answers"])
                               - int(state["interactive"].sum())),
                           "serve_one answer count differs from calls"))
        return Verification(misses, caught)


# ---------------------------------------------------------------------------
# Sweeps and adaptive scenarios
# ---------------------------------------------------------------------------


class SweepGrid(Workload):
    """``SweepExecutor.map`` over a seeded θ grid × the eight rules ×
    replicates of long streamed Bernoulli ``ScheduleSpec`` tasks, one
    map call per θ point."""

    name = "sweep-grid"
    unit = "θ-point map"
    latency = "θ-point map"
    reference_sample = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.points = 2 if tiny else 16
        self.replicates = 2 if tiny else 8
        self.length = 5_000 if tiny else 200_000

    def generate(self):
        rng = np.random.default_rng([self.seed, 3])
        thetas = np.sort(rng.uniform(0.02, 0.98, self.points))
        per_point = len(DEFAULT_ALGORITHMS) * self.replicates
        seeds = spawn_seeds(self.seed, self.points * per_point)
        grid = [
            [EngineTask(algorithm,
                        ScheduleSpec(float(theta), self.length,
                                     seed=seeds[point * per_point + slot]),
                        MODEL)
             for slot, algorithm in enumerate(
                 a for a in DEFAULT_ALGORITHMS for _ in range(self.replicates))]
            for point, theta in enumerate(thetas.tolist())
        ]
        return {"thetas": thetas, "grid": grid}

    def fingerprint(self, inputs) -> str:
        return _digest(inputs["thetas"],
                       inputs["grid"][0][0].schedule.build_mask())

    def start(self, inputs):
        executor = SweepExecutor(jobs=1, cache=None, kernel_threads=1)
        return dict(inputs, executor=executor, outcomes=[])

    def warm_up(self, state) -> int:
        state["executor"].map(state["grid"][0])
        return len(state["grid"][0]) * self.length

    def units(self, state) -> List[Unit]:
        def map_(tasks):
            state["outcomes"].append(state["executor"].map(tasks))

        return [Unit(len(tasks) * self.length, lambda tasks=tasks: map_(tasks))
                for tasks in state["grid"]]

    def summary(self, state) -> tuple:
        return tuple(outcome.identity() for outcomes in state["outcomes"]
                     for outcome in outcomes)

    def verify(self, state) -> Verification:
        misses: List[Tuple[int, str]] = []
        for outcomes in state["outcomes"]:
            short = [o for o in outcomes if o.counted_requests != self.length]
            if short:
                misses.append((self.length * len(short),
                               f"{len(short)} outcomes miss requests"))
        rng = np.random.default_rng([self.seed, 98])
        caught = False
        for _ in range(self.reference_sample):
            point = int(rng.integers(self.points))
            slot = int(rng.integers(len(state["grid"][point])))
            task = state["grid"][point][slot]
            outcome = state["outcomes"][point][slot]
            reference = engine.run(task.algorithm, task.schedule.build(),
                                   MODEL, backend="reference", stream=True)
            want = {"total_cost": reference.total_cost,
                    "event_counts": _counts(reference)}
            got = {"total_cost": outcome.total_cost,
                   "event_counts": _counts(outcome)}
            label = f"{task.algorithm} θ={task.schedule.theta:.3f}"
            wrong = _compare(label, got, want)
            if wrong:
                misses.append((self.length, "; ".join(wrong)))
            bad = dict(got, total_cost=got["total_cost"] + 1.0)
            caught = caught or bool(_compare(label, bad, want))
        return Verification(misses, caught)


class AdaptScenarios(Workload):
    """``engine.run("adaptive", ...)`` over every regime-switching
    scenario for several seeds; the same schedules also run the seven
    statics through the auto (vectorized) path."""

    name = "adapt-scenarios"
    unit = "scenario schedule: adaptive + 7 statics"
    latency = "scenario schedule: adaptive + 7 statics"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.seeds = 2 if tiny else 3
        self.length = 2_000 if tiny else 20_000
        self.scenarios = regime_switching_scenarios()

    def generate(self):
        return [
            [get_scenario(name).generate(self.length, seed=[self.seed, s])
             for name in self.scenarios]
            for s in range(self.seeds)
        ]

    def fingerprint(self, inputs) -> str:
        return _digest(*(run.schedule.write_mask() for runs in inputs
                         for run in runs))

    def start(self, inputs):
        return {"runs": inputs, "results": []}

    @staticmethod
    def _schedule(run) -> list:
        """The adaptive allocator, then every static, on one schedule."""
        return [engine.run(algorithm, run.schedule, MODEL, stream=True)
                for algorithm in ("adaptive",) + STATICS]

    def warm_up(self, state) -> int:
        for run in state["runs"][0]:
            self._schedule(run)
        return len(self.scenarios) * (1 + len(STATICS)) * self.length

    def units(self, state) -> List[Unit]:
        def one(run):
            state["results"].append(self._schedule(run))

        return [Unit((1 + len(STATICS)) * self.length,
                     lambda run=run: one(run))
                for runs in state["runs"] for run in runs]

    def summary(self, state) -> tuple:
        return tuple((r.backend_name, r.total_cost, tuple(_counts(r).items()),
                      r.scheme_changes)
                     for results in state["results"] for r in results)

    def verify(self, state) -> Verification:
        misses: List[Tuple[int, str]] = []
        k_max = max(DEFAULT_KS)
        offline = OfflineOptimal(MODEL)
        runs = [run for runs in state["runs"] for run in runs]

        def outside(cost: float, floor: float) -> bool:
            return not floor <= cost <= (k_max + 1) * floor + k_max

        caught_floor = caught_batched = False
        for run, row in zip(runs, state["results"]):
            floor = offline.optimal_cost(run.schedule)
            for result in row:
                # Every online cost sits on or above the offline floor;
                # the adaptive one also inside its (k+1)-competitive frame.
                if result.total_cost < floor or (
                        result is row[0] and outside(result.total_cost, floor)):
                    misses.append((self.length, f"{run.scenario}: "
                                   f"{result.algorithm_name} cost "
                                   f"{result.total_cost}, floor {floor}"))
            caught_floor = caught_floor or outside(floor - 1.0, floor)
        # The statics' vectorized results equal one batched launch over
        # every schedule of the cycle.
        masks = np.stack([run.schedule.write_mask() for run in runs])
        for slot, algorithm in enumerate(STATICS, start=1):
            batched = engine.run_batched_masks(
                algorithm, masks, [MODEL] * len(masks), stream=True,
                threads=1)
            for row, want in zip(state["results"], batched):
                expect = {"total_cost": want.total_cost,
                          "event_counts": _counts(want),
                          "scheme_changes": want.scheme_changes}
                seen = {"total_cost": row[slot].total_cost,
                        "event_counts": _counts(row[slot]),
                        "scheme_changes": row[slot].scheme_changes}
                wrong = _compare(algorithm, seen, expect)
                if wrong:
                    misses.append((self.length, "; ".join(wrong)))
                caught_batched = caught_batched or bool(_compare(
                    algorithm, dict(seen, total_cost=seen["total_cost"] + 1.0),
                    expect))
        return Verification(misses, caught_floor and caught_batched)


WORKLOADS = {
    workload.name: workload
    for workload in (ServeBlock, ServeStream, SweepGrid, AdaptScenarios)
}
