"""TraceRecorder: buffering, scoping, merging, contextvar activation."""

from __future__ import annotations

import pytest

from repro.obs.audit import SolveRecord
from repro.obs.events import (
    EVENT_KINDS,
    CapExceededEvent,
    CellFailureEvent,
    CollectiveEvent,
    CounterEvent,
    MpiWaitEvent,
    ReallocEvent,
    SolveEvent,
    TaskEvent,
)
from repro.obs.recorder import TraceRecorder, current_recorder, emit, use_recorder


def _counter(i: int) -> CounterEvent:
    return CounterEvent(name="c", ts_s=float(i), values={"v": i})


class TestBuffer:
    def test_emit_envelopes_seq_and_run(self):
        rec = TraceRecorder()
        rec.emit(_counter(0))
        rec.emit(_counter(1))
        docs = rec.snapshot()
        assert [d["seq"] for d in docs] == [0, 1]
        assert all(d["run"] == "run" for d in docs)

    def test_capacity_bounds_and_counts_drops(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.emit(_counter(i))
        assert len(rec) == 2
        assert rec.dropped == 3
        # Ring semantics: the newest events survive.
        assert [d["ts_s"] for d in rec.snapshot()] == [3.0, 4.0]

    def test_unbounded_capacity(self):
        rec = TraceRecorder(capacity=None)
        for i in range(10):
            rec.emit(_counter(i))
        assert len(rec) == 10 and rec.dropped == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)


class TestRunScope:
    def test_scope_stamps_and_restores(self):
        rec = TraceRecorder()
        with rec.run_scope("outer"):
            rec.emit(_counter(0))
            with rec.run_scope("inner"):
                rec.emit(_counter(1))
            rec.emit(_counter(2))
        labels = [d["run"] for d in rec.snapshot()]
        assert labels == ["outer", "inner", "outer"]
        assert rec.run_label == "run"

    def test_events_for_run_filters(self):
        rec = TraceRecorder()
        with rec.run_scope("a"):
            rec.emit(_counter(0))
        with rec.run_scope("b"):
            rec.emit(_counter(1))
        assert [d["ts_s"] for d in rec.events_for_run("b")] == [1.0]


class TestExtend:
    def test_worker_batches_are_resequenced(self):
        parent = TraceRecorder()
        parent.emit(_counter(0))
        worker = TraceRecorder()
        with worker.run_scope("worker-run"):
            worker.emit(_counter(10))
            worker.emit(_counter(11))
        parent.extend(worker.snapshot())
        docs = parent.snapshot()
        assert [d["seq"] for d in docs] == [0, 1, 2]  # monotone after merge
        assert docs[1]["run"] == "worker-run"  # scope labels survive the trip

    def test_extend_respects_capacity(self):
        parent = TraceRecorder(capacity=2)
        parent.extend([_counter(i).to_dict() | {"seq": i, "run": "r"}
                       for i in range(4)])
        assert len(parent) == 2 and parent.dropped == 2


class TestActivation:
    def test_module_emit_is_noop_when_disabled(self):
        assert current_recorder() is None
        emit(_counter(0))  # must not raise, must not record anywhere

    def test_module_emit_targets_active_recorder(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            assert current_recorder() is rec
            emit(_counter(7))
        assert current_recorder() is None
        assert len(rec) == 1


class TestEventShapes:
    def test_every_kind_has_canonical_dict_form(self):
        events = [
            TaskEvent(label="t", rank=0, iteration=1, ts_s=0.0, dur_s=1.0,
                      freq_ghz=2.6, threads=8, duty=1.0, power_w=50.0),
            MpiWaitEvent(name="recv", rank=1, ts_s=0.5, dur_s=0.1),
            CollectiveEvent(name="allreduce", rank=0, ts_s=1.0, dur_s=0.2),
            ReallocEvent(ts_s=2.0, iteration=3, job_cap_w=200.0,
                         alloc_before_w=(90.0, 110.0),
                         alloc_after_w=(100.0, 100.0)),
            CapExceededEvent(cap_w=30.0, power_w=33.0),
            SolveEvent(SolveRecord(
                program="lp", backend="highs-direct", source="cold",
                rows=10, cols=20, nnz=40, iterations=7, status="optimal",
                objective=1.0, wall_s=0.001,
            )),
            CounterEvent(name="job_power_w", ts_s=0.0, values={"watts": 120.0}),
            CellFailureEvent(benchmark="comd", cap_per_socket_w=50.0,
                             error_type="InjectedFault",
                             error_message="injected fault on cell cap=50",
                             attempts=2),
        ]
        assert sorted(e.kind for e in events) == sorted(EVENT_KINDS)
        for event in events:
            doc = event.to_dict()
            assert set(doc) == {"kind", "name", "rank", "ts_s", "dur_s", "args"}
            assert doc["kind"] == event.kind

    def test_realloc_reports_moved_watts(self):
        doc = ReallocEvent(
            ts_s=0.0, iteration=0, job_cap_w=200.0,
            alloc_before_w=(90.0, 110.0), alloc_after_w=(100.0, 100.0),
        ).to_dict()
        assert doc["args"]["moved_w"] == pytest.approx(10.0)
