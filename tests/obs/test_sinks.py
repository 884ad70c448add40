"""Sinks: one activation context, one snapshot, one merge."""

from __future__ import annotations

import json

from repro.obs.audit import SolveAudit, SolveRecord, current_audit, record_solve
from repro.obs.events import CounterEvent
from repro.obs.metrics import Metrics, current_metrics, inc
from repro.obs.profiling import ProfileCollector, current_profile
from repro.obs.recorder import TraceRecorder, current_recorder, emit
from repro.obs.sinks import Sinks


def _record() -> SolveRecord:
    return SolveRecord(
        program="lp", backend="highs-direct", source="cold", rows=1, cols=1,
        nnz=1, iterations=3, status="optimal", objective=1.0, wall_s=0.001,
    )


def _observe_a_little() -> None:
    inc("cache.hit")
    emit(CounterEvent(name="c", ts_s=0.0, values={"v": 1}))
    record_solve(_record())


def _all_sinks(capacity: int | None = 8) -> Sinks:
    return Sinks(Metrics(), TraceRecorder(capacity), SolveAudit(),
                 ProfileCollector())


class TestActivation:
    def test_active_routes_every_held_sink_and_restores(self):
        sinks = _all_sinks()
        with sinks.active():
            assert Sinks.current() == sinks
            _observe_a_little()
        assert Sinks.current() == Sinks()
        assert sinks.metrics.counter("cache.hit") == 1
        assert len(sinks.recorder) == 1 and len(sinks.audit) == 1

    def test_unheld_sinks_stay_off(self):
        metrics = Metrics()
        with Sinks(metrics=metrics).active():
            assert current_metrics() is metrics
            assert current_recorder() is None
            assert current_audit() is None and current_profile() is None


class TestFresh:
    def test_nothing_held_means_nothing_to_observe(self):
        assert Sinks().fresh() is None

    def test_fresh_sinks_are_empty_and_keep_the_trace_capacity(self):
        sinks = _all_sinks(capacity=3)
        with sinks.active():
            _observe_a_little()
        fresh = sinks.fresh()
        assert fresh.recorder.capacity == 3
        assert fresh.snapshot() == _all_sinks().snapshot()
        assert _all_sinks(capacity=None).fresh().recorder.capacity is None

    def test_fresh_keeps_only_the_held_kinds(self):
        fresh = Sinks(audit=SolveAudit()).fresh()
        assert fresh.audit is not None
        assert fresh.metrics is None and fresh.recorder is None
        assert fresh.profile is None


class TestSnapshotMerge:
    def test_snapshot_is_json_safe_and_keyed_by_held_sink(self):
        sinks = Sinks(metrics=Metrics(), recorder=TraceRecorder())
        with sinks.active():
            _observe_a_little()
        doc = json.loads(json.dumps(sinks.snapshot()))
        assert set(doc) == {"metrics", "trace"}
        assert doc["trace"]["dropped"] == 0

    def test_merge_folds_every_sink_including_drops(self):
        worker = _all_sinks(capacity=1)
        with worker.active():
            _observe_a_little()
            _observe_a_little()
        parent = _all_sinks()
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())
        assert parent.metrics.counter("cache.hit") == 4
        assert len(parent.audit) == 4
        # Each worker batch kept 1 event and dropped 1.
        assert len(parent.recorder) == 2 and parent.recorder.dropped == 2

    def test_merge_ignores_sinks_the_parent_does_not_hold(self):
        worker = _all_sinks()
        with worker.active():
            _observe_a_little()
        parent = Sinks(metrics=Metrics())
        parent.merge(worker.snapshot())
        assert parent.metrics.counter("cache.hit") == 1
