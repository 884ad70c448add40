"""ParallelRunner: ordering, serial fallback, retries, timeouts, telemetry.

Worker telemetry is the :class:`~repro.obs.metrics.Metrics` snapshot
(counters plus ``phase.*`` timers) each worker ships back through
:func:`~repro.exec.parallel.run_task`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from pathlib import Path

import pytest

from repro.exec.parallel import (
    CellOutcome,
    ParallelExecutionError,
    ParallelRunner,
    PoolBrokenError,
    pool_width,
    resolve_workers,
    retry_delay_s,
    run_task,
)
from repro.obs.audit import SolveAudit, SolveRecord, record_solve, use_audit
from repro.obs.events import CounterEvent
from repro.obs.metrics import Metrics, inc, timed, use_metrics
from repro.obs.profiling import ProfileCollector
from repro.obs.recorder import TraceRecorder, emit, use_recorder
from repro.obs.sinks import Sinks


# Module-level task functions so worker processes can unpickle them.
def _square(x: int) -> int:
    return x * x


def _slow_identity(item: int) -> int:
    time.sleep(0.02 * item)
    return item * 10


def _boom(item: int) -> int:
    raise ValueError(f"boom {item}")


def _flaky(marker: str) -> str:
    """Fails once per marker path, then succeeds (exercises retries)."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("first attempt always fails")
    return "ok"


def _sleepy(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _flaky_n(marker_and_n: tuple[str, int]) -> str:
    """Fails until the marker directory holds n attempt files."""
    marker, n = marker_and_n
    base = Path(marker)
    base.mkdir(parents=True, exist_ok=True)
    attempt = len(list(base.iterdir()))
    (base / f"a{attempt}").write_text("attempted")
    if attempt < n:
        raise RuntimeError(f"attempt {attempt} fails")
    return "ok"


def _kill_self_once(marker: str) -> str:
    """Kills its own worker process on the first attempt, then succeeds."""
    path = Path(marker)
    if not path.exists():
        path.write_text("dying")
        os._exit(13)  # hard kill: breaks the pool, not just the task
    return "survived"


def _kill_self_always(item: int) -> int:
    os._exit(13)


def _instrumented(item: int) -> int:
    with timed("phase.worker"):
        inc("worker.count", item)
    return item


def _emits_counters(n: int) -> int:
    for i in range(n):
        emit(CounterEvent(name="w", ts_s=float(i), values={"v": i}))
    return n


def _emits_observability(item: int) -> int:
    emit(CounterEvent(name="w", ts_s=float(item), values={"v": item}))
    record_solve(SolveRecord(
        program=f"p{item}", backend="linprog", source="cold", rows=1, cols=1,
        nnz=1, iterations=1, status="optimal", objective=0.0, wall_s=0.001,
    ))
    return item


class TestResolveWorkers:
    def test_mapping(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_zero_counts_the_affinity_set(self, monkeypatch):
        # Under `taskset -c 0` the process may run on one CPU however
        # many the host has.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers(0) == 1


class TestPoolWidth:
    def test_nothing_to_compute_settles_in_process(self):
        assert pool_width(4, 40, 0) == 1

    def test_one_worker_per_miss_within_the_request(self):
        assert pool_width(4, 40, 1) == 2  # the narrowest pool
        assert pool_width(4, 40, 3) == 3
        assert pool_width(4, 40, 40) == 4

    def test_serial_requests_stay_serial(self):
        assert pool_width(1, 40, 40) == 1
        assert pool_width(4, 1, 1) == 1


class TestRunTask:
    def test_payload_shape_and_telemetry(self):
        # Nothing observed: a bare value and no snapshot.
        assert run_task(_square, 3) == (9, None)

    def test_wanted_snapshots_come_back(self):
        observe = Sinks(metrics=Metrics(), profile=ProfileCollector())
        value, snapshot = run_task(_square, 2, observe)
        assert value == 4
        assert set(snapshot) == {"metrics", "profile"}
        assert snapshot["metrics"] == Metrics().to_dict()

    def test_worker_recorder_keeps_parent_capacity_and_ships_drops(self):
        parent = TraceRecorder(capacity=2)
        _, snapshot = run_task(_emits_counters, 5, Sinks(recorder=parent))
        assert len(parent) == 0  # the task recorded into a fresh recorder
        assert [e["ts_s"] for e in snapshot["trace"]["events"]] == [3.0, 4.0]
        assert snapshot["trace"]["dropped"] == 3


class TestConstruction:
    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=2, timeout_s=0.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=2, retries=-1)


class TestSerialFallback:
    def test_one_worker_runs_in_process(self):
        # A closure is unpicklable: success proves no pool was involved.
        runner = ParallelRunner(max_workers=1)
        assert runner.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_single_item_runs_in_process(self):
        runner = ParallelRunner(max_workers=4)
        assert runner.map(lambda x: x + 1, [41]) == [42]

    def test_empty_items(self):
        assert ParallelRunner(max_workers=4).map(_slow_identity, []) == []

    def test_serial_exception_propagates(self):
        runner = ParallelRunner(max_workers=1, backoff_s=0.0)
        with pytest.raises(
            ParallelExecutionError, match="task 0 failed on all 2 attempt"
        ) as info:
            runner.map(_boom, [7])
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "boom 7"


class TestParallelMap:
    def test_results_in_submission_order(self):
        runner = ParallelRunner(max_workers=4)
        items = [3, 1, 2, 0, 4]
        assert runner.map(_slow_identity, items) == [30, 10, 20, 0, 40]

    def test_matches_serial(self):
        items = list(range(6))
        serial = ParallelRunner(max_workers=1).map(_slow_identity, items)
        parallel = ParallelRunner(max_workers=3).map(_slow_identity, items)
        assert parallel == serial

    def test_failure_exhausts_retries(self):
        runner = ParallelRunner(max_workers=2, retries=1)
        with pytest.raises(ParallelExecutionError, match="failed on all 2"):
            runner.map(_boom, [1, 2])

    def test_retry_recovers_transient_failure(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=1)
        markers = [str(tmp_path / f"m{i}") for i in range(3)]
        assert runner.map(_flaky, markers) == ["ok"] * 3

    def test_no_retries_fails_fast(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=0)
        with pytest.raises(ParallelExecutionError, match="1 attempt"):
            runner.map(_flaky, [str(tmp_path / "m0"), str(tmp_path / "m1")])

    def test_timeout_raises_after_attempts(self):
        runner = ParallelRunner(max_workers=2, timeout_s=0.2, retries=0)
        with pytest.raises(ParallelExecutionError, match="timed out"):
            runner.map(_sleepy, [1.5, 1.5])

    def test_timeout_message_names_the_deadline(self):
        runner = ParallelRunner(max_workers=2, timeout_s=0.2, retries=0)
        with pytest.raises(ParallelExecutionError, match=r"within the 0\.2 s deadline"):
            runner.map(_sleepy, [1.5, 1.5])
        outcome, _ = runner.map_outcomes(_sleepy, [1.5, 0.0])
        assert outcome.error_type == "TimeoutError"
        assert outcome.error_message == (
            "no result within the 0.2 s deadline from submission"
        )

    def test_generous_timeout_passes(self):
        runner = ParallelRunner(max_workers=2, timeout_s=30.0)
        assert runner.map(_sleepy, [0.01, 0.02]) == [0.01, 0.02]

    def test_worker_telemetry_merges_into_parent(self):
        metrics = Metrics()
        with use_metrics(metrics):
            results = ParallelRunner(max_workers=2).map(_instrumented, [1, 2, 3])
        assert results == [1, 2, 3]
        assert metrics.histograms["phase.worker"].count == 3
        assert metrics.counter("worker.count") == 6

    def test_no_parent_telemetry_is_fine(self):
        assert ParallelRunner(max_workers=2).map(_instrumented, [1, 2]) == [1, 2]

    def test_worker_traces_merge_in_submission_order(self):
        rec = TraceRecorder()
        audit = SolveAudit()
        with use_recorder(rec), use_audit(audit):
            ParallelRunner(max_workers=2).map(_emits_observability, [2, 0, 1])
        counters = [d for d in rec.snapshot() if d["kind"] == "counter"]
        # Batches fold in submission order, not completion order.
        assert [d["ts_s"] for d in counters] == [2.0, 0.0, 1.0]
        assert [d["seq"] for d in counters] == [0, 1, 2]
        assert [r.program for r in audit.records] == ["p2", "p0", "p1"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dropped_trace_events_are_counted(self, workers):
        # A small ring buffer overflows in the parent (serial) or in each
        # worker (parallel, at the parent's capacity); either way every
        # emitted event is either kept or counted as dropped.
        items = [3, 5, 2]
        rec = TraceRecorder(capacity=4)
        with use_recorder(rec):
            ParallelRunner(max_workers=workers).map(_emits_counters, items)
        assert len(rec) == 4
        assert len(rec) + rec.dropped == sum(items)

    def test_workers_skip_observability_when_parent_has_none(self):
        # No recorder/audit in the parent: workers must not build them.
        results = ParallelRunner(max_workers=2).map(_emits_observability, [1, 2])
        assert results == [1, 2]


class TestRetryBackoff:
    def test_deterministic(self):
        a = retry_delay_s(7, 3, 2, 0.05)
        assert a == retry_delay_s(7, 3, 2, 0.05)

    def test_varies_by_cell_and_attempt(self):
        delays = {
            retry_delay_s(0, i, a, 0.05) for i in range(4) for a in (1, 2, 3)
        }
        assert len(delays) == 12  # every (cell, attempt) de-synchronizes

    def test_exponential_within_jitter_band(self):
        for attempt in (1, 2, 3):
            exp = min(2.0, 0.1 * 2 ** (attempt - 1))
            d = retry_delay_s(0, 0, attempt, 0.1)
            assert 0.5 * exp <= d < exp

    def test_caps_out(self):
        assert retry_delay_s(0, 0, 20, 0.1) <= 2.0

    def test_zero_base_disables(self):
        assert retry_delay_s(0, 0, 1, 0.0) == 0.0


class TestMapOutcomes:
    def test_all_ok_outcomes(self):
        runner = ParallelRunner(max_workers=2, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(_slow_identity, [0, 1])
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [0, 10]

    def test_failed_cell_reports_attempts_and_type(self):
        runner = ParallelRunner(max_workers=2, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(_boom, [5, 6])
        for i, outcome in enumerate(outcomes):
            assert not outcome.ok
            assert outcome.index == i
            assert outcome.error_type == "ValueError"
            assert outcome.attempts == 2  # first try + one retry
            assert "boom" in outcome.error_message

    def test_flaky_task_succeeds_with_attempt_count(self, tmp_path):
        runner = ParallelRunner(max_workers=2, retries=3, backoff_s=0.0)
        items = [(str(tmp_path / f"m{i}"), 2) for i in range(3)]
        outcomes = runner.map_outcomes(_flaky_n, items)
        assert [o.value for o in outcomes] == ["ok"] * 3
        assert [o.attempts for o in outcomes] == [3, 3, 3]

    def test_serial_matches_parallel(self):
        serial = ParallelRunner(max_workers=1, retries=1, backoff_s=0.0)
        parallel = ParallelRunner(max_workers=3, retries=1, backoff_s=0.0)
        items = [0, 1, 2, 3]
        s = serial.map_outcomes(_slow_identity, items)
        p = parallel.map_outcomes(_slow_identity, items)
        assert [o.value for o in s] == [o.value for o in p]
        assert [o.attempts for o in s] == [o.attempts for o in p]

    def test_on_outcome_fires_in_submission_order(self):
        seen: list[int] = []
        runner = ParallelRunner(max_workers=3)
        runner.map_outcomes(
            _slow_identity, [3, 0, 1], on_outcome=lambda o: seen.append(o.index)
        )
        assert seen == [0, 1, 2]

    def test_serial_on_outcome_and_retries(self, tmp_path):
        seen: list[CellOutcome] = []
        runner = ParallelRunner(max_workers=1, retries=1, backoff_s=0.0)
        outcomes = runner.map_outcomes(
            _flaky, [str(tmp_path / "m0")], on_outcome=seen.append
        )
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert seen == outcomes

    def test_failure_doc_is_deterministic_fields_only(self):
        outcome = ParallelRunner(max_workers=1, retries=0).map_outcomes(
            _boom, [1]
        )[0]
        doc = outcome.failure_doc()
        assert doc == {
            "error_type": "ValueError",
            "error_message": "boom 1",
            "attempts": 1,
        }
        assert "elapsed_s" not in doc  # wall clock never reaches journals

    def test_failure_doc_rejected_on_ok(self):
        outcome = CellOutcome(index=0, ok=True, value=1)
        with pytest.raises(ValueError):
            outcome.failure_doc()


class TestDeadlines:
    def test_deadline_measured_from_submission(self):
        # Both cells start together and share one wall-clock budget; when
        # the first times out, the second's deadline has already passed,
        # so it settles immediately instead of earning a fresh timeout.
        settled: list[float] = []
        runner = ParallelRunner(max_workers=2, timeout_s=0.4, retries=0)
        outcomes = runner.map_outcomes(
            _sleepy, [1.2, 1.2],
            on_outcome=lambda o: settled.append(time.monotonic()),
        )
        assert all(not o.ok for o in outcomes)
        assert all(o.error_type == "TimeoutError" for o in outcomes)
        assert settled[1] - settled[0] < 0.3


class TestAbandonedTasks:
    """A timed-out task's worker is killed, not waited for."""

    def _children(self) -> set[int]:
        return {p.pid for p in multiprocessing.active_children()}

    def _left_over(self, before: set[int], deadline_s: float = 5.0) -> set[int]:
        """Children started since ``before`` that are still alive once the
        killed workers have been reaped, or at the deadline."""
        deadline = time.monotonic() + deadline_s
        while True:
            left = self._children() - before
            if not left or time.monotonic() >= deadline:
                return left
            time.sleep(0.02)

    def test_map_raises_without_waiting_for_the_hung_worker(self):
        before = self._children()
        runner = ParallelRunner(max_workers=2, timeout_s=0.3, retries=0)
        t0 = time.monotonic()
        with pytest.raises(ParallelExecutionError, match="timed out"):
            runner.map(_sleepy, [30.0, 0.0])
        assert time.monotonic() - t0 < 5.0
        assert self._left_over(before) == set()

    def test_map_outcomes_returns_without_waiting(self):
        before = self._children()
        runner = ParallelRunner(max_workers=2, timeout_s=0.3, retries=0)
        t0 = time.monotonic()
        outcomes = runner.map_outcomes(_sleepy, [30.0, 0.0])
        assert time.monotonic() - t0 < 5.0
        assert [o.ok for o in outcomes] == [False, True]
        assert outcomes[0].error_type == "TimeoutError"
        assert outcomes[1].value == 0.0
        assert self._left_over(before) == set()


class TestBrokenPool:
    def test_worker_death_rebuilds_pool_and_retries(self, tmp_path):
        # Breakage is charged to the awaited index, so one cell may absorb
        # blame for both kills; retries=3 covers the worst interleaving.
        metrics = Metrics()
        runner = ParallelRunner(max_workers=2, retries=3, backoff_s=0.0)
        markers = [str(tmp_path / "k0"), str(tmp_path / "k1")]
        with use_metrics(metrics):
            results = runner.map(_kill_self_once, markers)
        assert results == ["survived", "survived"]
        assert metrics.counter("pool.rebuilt") >= 1

    def test_persistent_breakage_raises_pool_broken(self):
        runner = ParallelRunner(max_workers=2, retries=0)
        with pytest.raises(PoolBrokenError, match="broke the worker pool"):
            runner.map(_kill_self_always, [1, 2])

    def test_keep_going_records_pool_breakage(self):
        runner = ParallelRunner(max_workers=2, retries=0)
        outcomes = runner.map_outcomes(_kill_self_always, [1, 2])
        assert all(not o.ok for o in outcomes)
        assert all(o.error_type == "BrokenProcessPool" for o in outcomes)

    @pytest.fixture
    def dies_before_the_next_submit(self, monkeypatch):
        """Each submit returns once its task has settled, so a worker
        that kills itself has broken the pool before the next submit."""
        submit = ProcessPoolExecutor.submit

        def submit_and_settle(self, *args, **kwargs):
            future = submit(self, *args, **kwargs)
            futures_wait([future], timeout=30.0)
            return future

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_and_settle)

    def test_a_pool_broken_between_submits(self, dies_before_the_next_submit):
        runner = ParallelRunner(max_workers=2, retries=0)
        outcomes = runner.map_outcomes(_kill_self_always, [1, 2])
        assert [o.error_type for o in outcomes] == ["BrokenProcessPool"] * 2

    def test_a_pool_broken_between_submits_is_rebuilt(
        self, dies_before_the_next_submit, tmp_path
    ):
        runner = ParallelRunner(max_workers=2, retries=3, backoff_s=0.0)
        markers = [str(tmp_path / "k0"), str(tmp_path / "k1")]
        assert runner.map(_kill_self_once, markers) == ["survived"] * 2

    def test_pool_broken_is_a_parallel_execution_error(self):
        assert issubclass(PoolBrokenError, ParallelExecutionError)
