"""Chrome trace export: structure, determinism, and the schema validator."""

from __future__ import annotations

import json

from repro.obs.audit import SolveRecord
from repro.obs.events import (
    CapExceededEvent,
    CounterEvent,
    ReallocEvent,
    SolveEvent,
    TaskEvent,
)
from repro.obs.export import (
    COUNTER_TID,
    RAPL_TID,
    RUNTIME_TID,
    SOLVER_TID,
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
    validate_trace_file,
)
from repro.obs.recorder import TraceRecorder


def _sample_recorder() -> TraceRecorder:
    rec = TraceRecorder()
    with rec.run_scope("static demo"):
        for rank in range(2):
            rec.emit(TaskEvent(label="work", rank=rank, iteration=0,
                               ts_s=0.1 * rank, dur_s=0.5, freq_ghz=2.6,
                               threads=8, duty=1.0, power_w=55.0))
        rec.emit(CounterEvent(name="job_power_w", ts_s=0.0,
                              values={"watts": 110.0}))
        rec.emit(CapExceededEvent(cap_w=30.0, power_w=31.0))
    with rec.run_scope("conductor demo"):
        rec.emit(ReallocEvent(ts_s=0.4, iteration=1, job_cap_w=100.0,
                              alloc_before_w=(40.0, 60.0),
                              alloc_after_w=(50.0, 50.0)))
        rec.emit(SolveEvent(SolveRecord(
            program="lp", backend="highs-direct", source="cold", rows=3,
            cols=4, nnz=8, iterations=2, status="optimal", objective=1.0,
            wall_s=0.001,
        )))
    return rec


class TestChromeTrace:
    def test_runs_become_processes_and_ranks_become_threads(self):
        doc = chrome_trace(_sample_recorder().snapshot())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        procs = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert procs == {"static demo", "conductor demo"}
        threads = {(e["pid"], e["args"]["name"])
                   for e in meta if e["name"] == "thread_name"}
        assert (1, "rank 0") in threads and (1, "rank 1") in threads

    def test_special_tracks_get_reserved_tids(self):
        events = [e for e in chrome_trace(_sample_recorder().snapshot())
                  ["traceEvents"] if e["ph"] != "M"]
        tids = {e.get("cat", e["name"]): e["tid"] for e in events}
        assert tids["realloc"] == RUNTIME_TID
        assert tids["solve"] == SOLVER_TID
        assert tids["cap_exceeded"] == RAPL_TID
        assert tids["job_power_w"] == COUNTER_TID

    def test_task_spans_are_complete_events_in_microseconds(self):
        doc = chrome_trace(_sample_recorder().snapshot())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        assert spans[0]["dur"] == 500000.0  # 0.5 s

    def test_output_passes_own_validator(self):
        assert validate_chrome_trace(chrome_trace(_sample_recorder().snapshot())) == []

    def test_unknown_kinds_are_skipped(self):
        doc = chrome_trace([{"kind": "martian", "name": "x", "rank": None,
                             "ts_s": 0.0, "dur_s": None, "args": {},
                             "seq": 0, "run": "r"}])
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []


class TestExportFiles:
    def test_chrome_export_is_byte_deterministic(self, tmp_path):
        events = _sample_recorder().snapshot()
        a = export_chrome_trace(events, tmp_path / "a.json")
        b = export_chrome_trace(events, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()
        assert validate_trace_file(a) == []

    def test_jsonl_is_one_event_per_line(self, tmp_path):
        events = _sample_recorder().snapshot()
        path = export_jsonl(events, tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(events)
        assert json.loads(lines[0])["kind"] == "task"


class TestValidator:
    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_missing_required_keys(self):
        errors = validate_chrome_trace({"traceEvents": [{"ph": "X", "ts": 0}]})
        assert errors and "missing keys" in errors[0]

    def test_unknown_phase_type(self):
        event = {"ph": "Z", "ts": 0, "pid": 1, "tid": 1, "name": "x"}
        errors = validate_chrome_trace({"traceEvents": [event]})
        assert errors and "unknown phase" in errors[0]

    def test_backwards_timestamps_on_a_track(self):
        events = [
            {"ph": "i", "ts": 5, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "i", "ts": 3, "pid": 1, "tid": 1, "name": "b"},
            {"ph": "i", "ts": 0, "pid": 1, "tid": 2, "name": "c"},  # new track
        ]
        errors = validate_chrome_trace({"traceEvents": events})
        assert len(errors) == 1 and "goes backwards" in errors[0]

    def test_unreadable_file(self, tmp_path):
        errors = validate_trace_file(tmp_path / "nope.json")
        assert errors and "unreadable trace" in errors[0]
