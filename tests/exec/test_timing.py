"""Phase timings: ``phase.*`` timers in Metrics and the ``--timings`` views."""

from __future__ import annotations

import json

import pytest

from repro.obs.audit import SolveAudit
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Metrics,
    inc,
    phase_lines,
    timed,
    timings_doc,
    timings_summary,
    use_metrics,
)


def test_span_accumulates_into_active_telemetry():
    metrics = Metrics()
    with use_metrics(metrics):
        with timed("phase.solve"):
            pass
        with timed("phase.solve"):
            pass
        with timed("phase.trace"):
            pass
    phases = timings_doc(metrics.to_dict())["phases"]
    assert phases["solve"]["calls"] == 2
    assert phases["trace"]["calls"] == 1
    assert phases["solve"]["total_s"] >= 0.0
    assert "absent" not in phases
    # Wall seconds are operational: never in the deterministic subset.
    assert metrics.to_dict(deterministic_only=True)["histograms"] == {}


def test_use_telemetry_restores_previous():
    outer, inner = Metrics(), Metrics()
    with use_metrics(outer):
        with use_metrics(inner):
            inc("c")
        inc("c")
    assert inner.counter("c") == 1
    assert outer.counter("c") == 1


def test_to_dict_round_trip_and_merge():
    metrics = Metrics()
    with use_metrics(metrics):
        with timed("phase.solve"):
            pass
        inc("cache.hit", 2)
    snapshot = json.loads(metrics.to_json())

    other = Metrics()
    other.merge(snapshot)
    other.merge(snapshot)
    doc = timings_doc(other.to_dict())
    assert doc["phases"]["solve"]["calls"] == 2
    assert doc["counters"]["cache.hit"] == 4


def test_summary_mentions_phases_and_counters():
    metrics = Metrics()
    with use_metrics(metrics):
        with timed("phase.replay"):
            pass
        inc("cache.miss")
    text = timings_summary(metrics.to_dict())
    assert "replay" in text
    assert "cache.miss" in text
    assert "(no phases recorded)" in timings_summary(Metrics().to_dict())
    # Histograms outside phase.* are not phases.
    other = Metrics()
    other.observe("cell.wall_s", 0.5, operational=True)
    assert phase_lines(other.to_dict()) == ["(no phases recorded)"]


def test_nested_spans_record_both():
    metrics = Metrics()
    with use_metrics(metrics):
        with timed("phase.outer"):
            with timed("phase.inner"):
                pass
    phases = timings_doc(metrics.to_dict())["phases"]
    assert phases["outer"]["calls"] == 1
    assert phases["inner"]["calls"] == 1
    assert phases["outer"]["total_s"] >= phases["inner"]["total_s"]


def test_snapshot_carries_schema_version():
    doc = timings_doc(Metrics().to_dict(), SolveAudit())
    assert doc["version"] == METRICS_SCHEMA_VERSION
    assert doc["solve_audit"] == {
        "solves": [], "cache": {"hits": 0, "misses": 0},
    }


def test_merge_rejects_versionless_snapshot():
    # Pre-versioning snapshots must not be silently folded in either.
    with pytest.raises(ValueError, match="None"):
        Metrics().merge({"counters": {}, "histograms": {}})
