"""ProgressReporter: heartbeat records, TTY behavior, throttling."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.metrics import Metrics
from repro.obs.progress import (
    PROGRESS_SCHEMA_VERSION,
    ProgressReporter,
    default_progress_stream,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TtyStream(io.StringIO):
    def isatty(self):
        return True


def test_total_must_be_non_negative():
    with pytest.raises(ValueError):
        ProgressReporter(total=-1)


def test_heartbeat_records_schema_and_counts(tmp_path):
    clock = FakeClock()
    path = tmp_path / "progress.jsonl"
    reporter = ProgressReporter(total=4, jsonl_path=path, clock=clock)
    clock.now = 1.0
    reporter.update(ok=True)
    clock.now = 2.0
    reporter.update(ok=False)
    clock.now = 4.0
    reporter.update(ok=True)
    reporter.update(ok=True)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(docs) == 4
    first, last = docs[0], docs[-1]
    assert first["schema"] == PROGRESS_SCHEMA_VERSION
    assert first["kind"] == "progress"
    assert (first["done"], first["total"]) == (1, 4)
    assert first["elapsed_s"] == 1.0
    # 1 cell in 1s, 3 to go -> eta 3s.
    assert first["eta_s"] == 3.0
    assert last["done"] == 4 and last["failed"] == 1
    assert last["eta_s"] is None  # nothing left to estimate


def test_telemetry_counters_flow_into_records(tmp_path):
    metrics = Metrics()
    metrics.inc("cache.hit", 3)
    metrics.inc("cache.miss", 1)
    metrics.inc("task.retry", 2, operational=True)
    path = tmp_path / "progress.jsonl"
    ProgressReporter(total=1, jsonl_path=path, metrics=metrics).update()
    doc = json.loads(path.read_text())
    assert doc["cache_hits"] == 3
    assert doc["cache_misses"] == 1
    assert doc["retries"] == 2
    assert doc["cache_hit_rate"] == 0.75


def test_non_tty_stream_gets_one_line_per_heartbeat():
    stream = io.StringIO()
    reporter = ProgressReporter(total=2, label="sweep:comd", stream=stream)
    reporter.update()
    reporter.update()
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[sweep:comd] 1/2 cells (50%)")
    assert "\r" not in stream.getvalue()


def test_tty_stream_rewrites_in_place_and_closes_on_final():
    stream = TtyStream()
    reporter = ProgressReporter(total=2, stream=stream)
    reporter.update()
    out = stream.getvalue()
    assert out.startswith("\r") and not out.endswith("\n")
    reporter.update()
    assert stream.getvalue().endswith("\n")
    before = stream.getvalue()
    reporter.finish()  # idempotent: the final update already closed the line
    assert stream.getvalue() == before


def test_finish_closes_a_dangling_tty_line():
    stream = TtyStream()
    reporter = ProgressReporter(total=3, stream=stream)
    reporter.update()  # sweep aborts here
    assert not stream.getvalue().endswith("\n")
    reporter.finish()
    assert stream.getvalue().endswith("\n")


def test_intermediate_heartbeats_throttle_first_and_last_always_emit(tmp_path):
    clock = FakeClock()
    path = tmp_path / "progress.jsonl"
    reporter = ProgressReporter(
        total=5, jsonl_path=path, min_interval_s=10.0, clock=clock
    )
    for i in range(5):
        clock.now = float(i)  # well inside the 10s window
        reporter.update()
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    # First emits, 2..4 are throttled, the final cell always emits.
    assert [d["done"] for d in docs] == [1, 5]
    assert reporter.records_emitted == 2


def test_resumed_cells_do_not_skew_the_eta(tmp_path):
    # 8 journal-resumed cells settle instantly; the throughput behind
    # the ETA must come from the 1 computed cell alone (10s each, 1
    # remaining -> eta 10s), not from 9 cells in 10s (-> eta ~1.1s).
    clock = FakeClock()
    path = tmp_path / "progress.jsonl"
    reporter = ProgressReporter(total=10, jsonl_path=path, clock=clock)
    for _ in range(8):
        reporter.update(ok=True, resumed=True)
    clock.now = 10.0
    reporter.update(ok=True)
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    last = docs[-1]
    assert last["resumed"] == 8 and last["done"] == 9
    assert last["eta_s"] == 10.0


def test_all_resumed_yields_no_eta(tmp_path):
    clock = FakeClock()
    path = tmp_path / "progress.jsonl"
    reporter = ProgressReporter(total=3, jsonl_path=path, clock=clock)
    clock.now = 1.0
    reporter.update(ok=True, resumed=True)
    doc = json.loads(path.read_text().splitlines()[-1])
    # No computed cell yet: there is no throughput to extrapolate.
    assert doc["eta_s"] is None and doc["resumed"] == 1


def test_resumed_count_shows_in_the_status_line():
    stream = io.StringIO()
    reporter = ProgressReporter(total=2, stream=stream)
    reporter.update(ok=True, resumed=True)
    assert "1 resumed" in stream.getvalue()


def test_failed_cells_show_in_the_status_line():
    stream = io.StringIO()
    reporter = ProgressReporter(total=2, stream=stream)
    reporter.update(ok=False)
    assert "1 failed" in stream.getvalue()


class TestDefaultStream:
    def test_quiet_always_wins(self):
        assert default_progress_stream(force=True, quiet=True) is None

    def test_force_returns_stderr_even_piped(self, capsys):
        import sys

        assert default_progress_stream(force=True, quiet=False) is sys.stderr

    def test_non_tty_stderr_disables_the_line(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert default_progress_stream(force=False, quiet=False) is None

    def test_tty_stderr_enables_the_line(self, monkeypatch):
        import sys

        stream = TtyStream()
        monkeypatch.setattr(sys, "stderr", stream)
        assert default_progress_stream(force=False, quiet=False) is stream
