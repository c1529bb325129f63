"""Property tests for the batched multi-schedule kernels.

The contract under test, hypothesis-swept rather than example-based:

* batched == vectorized == reference, byte-identically, for every
  algorithm the kernels cover — totals, counts, and (materialized)
  per-request classifications;
* ``execute_batch`` handles ragged batches and uncovered algorithms by
  per-spec fallback, every member byte-identical to a lone engine run;
* the k/m/omega parameter scans reproduce their brute-force loops
  exactly (the sufficient statistics lose nothing);
* the sweep executor's batched path is invisible in outcomes (serial
  equals parallel equals per-task) and visible in its counters;
* the columnar entry ``kernel_arrays`` returns exactly the columns the
  per-row results are built from, on every tier and at the edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    batched_counts,
    batched_run_arrays,
    batched_totals,
    scan_omega_totals,
    scan_threshold_counts,
    scan_window_counts,
    stack_write_masks,
    supports,
)
from repro.core.packed import pack_write_masks
from repro.core.registry import make_algorithm
from repro.core.session import parse_algorithm_name
from repro.core.vectorized import EVENT_KIND_ORDER
from repro.costmodels import ConnectionCostModel, MessageCostModel
from repro.engine import (
    BatchSpec,
    CounterInstrumentation,
    SweepExecutor,
    execute_batch,
    kernel_arrays,
    run,
    run_batched_masks,
)
from repro.engine.base import RunSpec
from repro.engine.parallel import EngineTask, ScheduleSpec
from repro.exceptions import InvalidParameterError, UnknownAlgorithmError
from repro.types import AllocationScheme, Schedule

MODEL = ConnectionCostModel()

BATCHED_NAMES = (
    "st1", "st2", "sw1", "sw3", "sw9", "sw15", "t1_1", "t1_4", "t2_3",
)


@st.composite
def schedule_batches(draw, max_rows=5, max_length=60):
    """A non-ragged batch: B schedule strings of one shared length."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    return [
        draw(st.text(alphabet="rw", min_size=length, max_size=length))
        for _ in range(rows)
    ]


class TestKernelEquivalence:
    @given(texts=schedule_batches())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_batched_rows_equal_solo_backends(self, algorithm_name, texts):
        """Each batch row is byte-identical to reference & vectorized."""
        if not supports(algorithm_name):
            return
        schedules = [Schedule.from_string(text) for text in texts]
        writes = stack_write_masks(schedules)
        results = run_batched_masks(
            algorithm_name, writes, [MODEL] * len(schedules)
        )
        for schedule, batched in zip(schedules, results):
            reference = run(algorithm_name, schedule, MODEL,
                            backend="reference", stream=True)
            assert batched.total_cost == reference.total_cost
            assert batched.event_counts == reference.event_counts
            assert batched.scheme_changes == reference.scheme_changes

    @given(texts=schedule_batches(), warmup=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_warmup_and_materialization(self, texts, warmup):
        """Non-stream batched rows materialize the reference events."""
        schedules = [Schedule.from_string(text) for text in texts]
        if warmup > len(schedules[0]):
            warmup = len(schedules[0])
        writes = stack_write_masks(schedules)
        for name in ("sw3", "t1_2"):
            results = run_batched_masks(
                name, writes, [MODEL] * len(schedules),
                warmup=warmup, stream=False,
            )
            for schedule, batched in zip(schedules, results):
                reference = run(name, schedule, MODEL,
                                backend="reference", warmup=warmup)
                assert batched.total_cost == reference.total_cost
                assert batched.event_kinds == reference.event_kinds
                assert batched.events == reference.events
                assert batched.schemes == reference.schemes

    def test_per_row_cost_models(self):
        """Counts are model-independent; each row prices its own."""
        schedules = [Schedule.from_string("rwrwrrw")] * 3
        models = [MessageCostModel(omega) for omega in (0.0, 0.4, 1.0)]
        results = run_batched_masks("sw3", stack_write_masks(schedules), models)
        for schedule, model, batched in zip(schedules, models, results):
            solo = run("sw3", schedule, model, stream=True)
            assert batched.total_cost == solo.total_cost

    def test_forced_batched_backend(self):
        [result] = run_batched_masks(
            "sw9", stack_write_masks([Schedule.from_string("rwrwr")]),
            [MODEL], stream=False)
        vectorized = run("sw9", Schedule.from_string("rwrwr"), MODEL,
                         backend="vectorized")
        assert result.backend_name == "vectorized"
        assert result.total_cost == vectorized.total_cost
        assert result.event_kinds == vectorized.event_kinds


class TestExecuteBatch:
    def _spec(self, name, text, **kwargs):
        return RunSpec(
            algorithm=make_algorithm(name),
            algorithm_name=name,
            schedule=Schedule.from_string(text),
            cost_model=MODEL,
            stream=True,
            **kwargs,
        )

    def test_ragged_batch_and_fallback(self):
        """Mixed lengths and uncovered algorithms still all complete,
        each member byte-identical to running it alone."""
        specs = [
            self._spec("sw9", "rwrw"),
            self._spec("sw9", "rwrwrrw"),        # different length
            self._spec("sw1", "rwrw"),           # different algorithm
            self._spec("sw1-unoptimized", "rwrw"),  # no batched kernel
            self._spec("st1", ""),               # empty schedule
        ]
        results = execute_batch(BatchSpec(runs=tuple(specs)))
        assert [r.backend_name for r in results] == [
            "vectorized", "vectorized", "vectorized", "reference",
            "vectorized",
        ]
        for spec, result in zip(specs, results):
            solo = run(spec.algorithm_name, spec.schedule, MODEL, stream=True)
            assert result.total_cost == solo.total_cost
            assert result.event_counts == solo.event_counts

    def test_group_of_one_same_reason_as_large_group(self):
        """A run's outcome must not depend on its chunk-mates."""
        lone = execute_batch([self._spec("sw9", "rwr")])
        grouped = execute_batch(
            [self._spec("sw9", "rwr")] + [self._spec("sw9", "wrw")] * 4
        )
        assert lone[0].dispatch_reason == grouped[0].dispatch_reason
        assert lone[0].total_cost == grouped[0].total_cost

    def test_batch_spec_validates_members(self):
        with pytest.raises(InvalidParameterError):
            BatchSpec(runs=("not a spec",))

    def test_stack_write_masks_rejects_ragged(self):
        with pytest.raises(InvalidParameterError):
            stack_write_masks([Schedule.from_string("rw"),
                               Schedule.from_string("rwr")])


class TestParameterScans:
    @given(texts=schedule_batches(max_rows=4, max_length=50),
           warmup=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_k_scan_equals_per_kernel_loop(self, texts, warmup):
        writes = stack_write_masks(
            [Schedule.from_string(text) for text in texts]
        )
        if warmup > writes.shape[1]:
            warmup = writes.shape[1]
        ks = [1, 3, 5, 9]
        scan = scan_window_counts(writes, ks, warmup=warmup)
        for index, k in enumerate(ks):
            name = "sw1" if k == 1 else f"sw{k}"
            codes, _ = batched_run_arrays(name, writes)
            assert np.array_equal(scan[index], batched_counts(codes, warmup))

    @given(texts=schedule_batches(max_rows=4, max_length=50),
           warmup=st.integers(0, 5),
           method=st.sampled_from(["t1", "t2"]))
    @settings(max_examples=30, deadline=None)
    def test_m_scan_equals_per_kernel_loop(self, texts, warmup, method):
        writes = stack_write_masks(
            [Schedule.from_string(text) for text in texts]
        )
        if warmup > writes.shape[1]:
            warmup = writes.shape[1]
        ms = [1, 2, 3, 7]
        scan = scan_threshold_counts(method, writes, ms, warmup=warmup)
        for index, m in enumerate(ms):
            codes, _ = batched_run_arrays(f"{method}_{m}", writes)
            assert np.array_equal(scan[index], batched_counts(codes, warmup))

    @given(texts=schedule_batches(max_rows=4, max_length=50))
    @settings(max_examples=30, deadline=None)
    def test_omega_scan_equals_engine_totals(self, texts):
        """Affine reuse of the counts is byte-identical to re-running
        the engine under each omega's model."""
        schedules = [Schedule.from_string(text) for text in texts]
        writes = stack_write_masks(schedules)
        codes, _ = batched_run_arrays("sw3", writes)
        counts = batched_counts(codes)
        omegas = [0.0, 0.15, 0.5, 0.95, 1.0]
        totals = scan_omega_totals(counts, omegas)
        for index, omega in enumerate(omegas):
            model = MessageCostModel(omega)
            for row, schedule in enumerate(schedules):
                solo = run("sw3", schedule, model, stream=True)
                assert totals[index, row] == solo.total_cost

    def test_batched_totals_matches_counts_order(self):
        counts = np.array([[3, 1, 0, 2, 0, 1], [0, 0, 0, 0, 0, 0]])
        model = MessageCostModel(0.3)
        totals = batched_totals(counts, model)
        expected = sum(
            count * model.price(kind)
            for kind, count in zip(EVENT_KIND_ORDER, counts[0])
            if count
        )
        assert totals[0] == expected
        assert totals[1] == 0.0


class TestSweepExecutorBatching:
    def _tasks(self):
        return [
            EngineTask(
                name,
                ScheduleSpec(0.25 + 0.1 * index, 400, seed=50 + index),
                MODEL,
                warmup=100,
                tag=(name, index),
            )
            for name in ("sw9", "t1_4")
            for index in range(4)
        ]

    def test_batched_outcomes_identical_serial_vs_parallel(self):
        serial = SweepExecutor(jobs=1).map(self._tasks())
        parallel = SweepExecutor(jobs=2).map(self._tasks())
        assert [o.identity() for o in serial] == [
            o.identity() for o in parallel
        ]
        assert all(o.backend_name == "vectorized" for o in serial)

    def test_executor_reports_batches(self):
        executor = SweepExecutor(jobs=1)
        executor.map(self._tasks())
        dispatch = executor.report()["dispatch"]
        assert dispatch["batches"] >= 2
        assert dispatch["batched_runs"] == 8

    def test_instrumentation_on_batch_counter(self):
        counters = CounterInstrumentation()
        writes = stack_write_masks([Schedule.from_string("rwrw")] * 3)
        run_batched_masks("sw3", writes, [MODEL] * 3,
                          instrumentation=counters)
        assert counters.batches == 1
        assert counters.batched_runs == 3
        assert counters.runs == 3


#: One name per kernel family.
KERNEL_FAMILY_NAMES = ("st1", "st2", "sw1", "sw5", "t1_3", "t2_3")


def _kernel_cases(carry_length):
    """``(B, N, warmup)`` launches: warmup 0 and L, B = 0, N = 0 and
    warmup == N."""
    return [
        (5, 37, 0),
        (5, 37, carry_length),
        (0, 37, 0),
        (0, 37, carry_length),
        (3, 0, 0),
        (3, 11, 11),
        (4, carry_length, carry_length),
    ]


class TestKernelArrays:
    """The columnar entry against the per-row results and the reference
    replay, on the unpacked and packed tiers, serial and threaded."""

    @pytest.mark.parametrize("need_codes", [True, False])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("algorithm_name", KERNEL_FAMILY_NAMES)
    def test_columns_match_per_row_results(
        self, algorithm_name, packed, threads, need_codes
    ):
        carry_length = parse_algorithm_name(algorithm_name).carry_length
        rng = np.random.default_rng(len(algorithm_name) * 7 + threads)
        for batch, length, warmup in _kernel_cases(carry_length):
            thetas = rng.uniform(0.1, 0.9, size=(batch, 1))
            writes = rng.random((batch, length)) < thetas
            launch = pack_write_masks(writes) if packed else writes
            arrays = kernel_arrays(
                algorithm_name, launch, warmup=warmup,
                need_codes=need_codes, threads=threads,
            )
            assert arrays.counts.shape == (batch, len(EVENT_KIND_ORDER))
            assert arrays.counts.dtype == np.int64
            assert arrays.flips.shape == (batch,)
            if packed and not need_codes:
                assert arrays.codes is None and arrays.copy_after is None
            else:
                assert arrays.codes.shape == (batch, length)
                assert arrays.copy_after.shape == (batch, length)
            results = run_batched_masks(
                algorithm_name, launch, [MODEL] * batch, warmup=warmup,
                stream=not need_codes, threads=threads,
            )
            assert len(results) == batch
            for row, result in enumerate(results):
                counts = {
                    kind: int(count)
                    for kind, count in zip(EVENT_KIND_ORDER,
                                           arrays.counts[row])
                    if count
                }
                assert counts == result.event_counts
                assert int(arrays.flips[row]) == result.scheme_changes
                reference = run(
                    algorithm_name,
                    Schedule.from_string(
                        "".join("w" if bit else "r" for bit in writes[row])
                    ),
                    MODEL, backend="reference", stream=False, warmup=warmup,
                )
                assert counts == reference.event_counts
                assert int(arrays.flips[row]) == reference.scheme_changes
                if arrays.codes is None:
                    continue
                kinds = tuple(EVENT_KIND_ORDER[code]
                              for code in arrays.codes[row])
                schemes = tuple(
                    AllocationScheme.TWO_COPIES if flag
                    else AllocationScheme.ONE_COPY
                    for flag in arrays.copy_after[row]
                )
                assert kinds == reference.event_kinds
                assert schemes == reference.schemes
                if need_codes:
                    assert kinds == result.event_kinds
                    assert schemes == result.schemes

    @pytest.mark.parametrize("need_codes", [True, False])
    @pytest.mark.parametrize("packed", [False, True])
    def test_unoptimized_window_has_no_kernel(self, packed, need_codes):
        """sw1-unoptimized (SWk with k = 1) is a session family without
        a kernel: the columnar entry and the per-row entry both refuse
        it on every tier."""
        writes = np.random.default_rng(5).random((3, 9)) < 0.5
        launch = pack_write_masks(writes) if packed else writes
        with pytest.raises(UnknownAlgorithmError):
            kernel_arrays("sw1-unoptimized", launch, need_codes=need_codes)
        with pytest.raises(UnknownAlgorithmError):
            run_batched_masks("sw1-unoptimized", launch, [MODEL] * 3,
                              stream=not need_codes)

    def test_rejects_bad_warmup_and_threads(self):
        writes = np.zeros((2, 4), dtype=bool)
        with pytest.raises(InvalidParameterError):
            kernel_arrays("sw3", writes, warmup=-1)
        with pytest.raises(InvalidParameterError):
            kernel_arrays("sw3", writes, warmup=5)
        with pytest.raises(InvalidParameterError):
            kernel_arrays("sw3", writes, threads=0)
