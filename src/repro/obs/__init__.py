"""repro.obs — structured observability: tracing, audit, metrics, provenance.

Several pillars, all contextvar-activated and zero-cost when disabled,
and activated, snapshotted, and merged as one unit by :class:`Sinks`
(:mod:`.sinks`):

* **Event tracing** (:mod:`.events`, :mod:`.recorder`, :mod:`.export`) —
  the simulator engine, the Conductor runtime, RAPL, and the LP solver
  emit typed events into a ring-buffer :class:`TraceRecorder`; exporters
  render Chrome trace-event JSON (loadable in Perfetto) and JSONL.
* **Solver audit** (:mod:`.audit`) — every LP/MILP solve records model
  shape, iterations, status, objective, wall time, and provenance
  (cold / parametric re-solve) into a :class:`SolveAudit` ledger; the
  trace's solve event is a view of the same record.
* **Operational metrics** (:mod:`.metrics`) — the one store for
  counters and timers: counters, gauges, and fixed-bucket histograms
  (``phase.*`` wall-clock timers included) with deterministic merge
  semantics, plus JSON, Prometheus text, and ``--timings`` renderings;
  the deterministic subset is byte-identical serial vs. parallel.
* **Live progress** (:mod:`.progress`) — out-of-band sweep heartbeats
  (cells done/total, ETA, cache hit-rate) on a TTY-aware stderr line and
  a ``progress.jsonl`` stream.
* **Profiling** (:mod:`.profiling`) — per-cell cProfile aggregation into
  one fleet-wide top-N cumulative-time table.
* **Run provenance** (:mod:`.provenance`) — a :class:`RunManifest`
  (config hash, seed, model-layer version, package version, platform)
  stamped into saved artifacts and cache entries.

The package is stdlib-only and sits at the bottom of the layering:
every other layer may import it.
See ``docs/observability.md`` for the event taxonomy and workflows.
"""

from .audit import (
    SolveAudit,
    SolveRecord,
    current_audit,
    record_solve,
    use_audit,
)
from .events import (
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
from .export import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
    validate_trace_file,
)
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Histogram,
    Metrics,
    current_metrics,
    prometheus_text,
    use_metrics,
    validate_metrics_doc,
)
from .profiling import (
    ProfileCollector,
    current_profile,
    profile_block,
    use_profile,
)
from .progress import (
    PROGRESS_SCHEMA_VERSION,
    ProgressReporter,
    default_progress_stream,
)
from .provenance import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    collect_manifest,
    config_hash,
    read_manifest,
    write_manifest,
)
from .recorder import (
    DEFAULT_CAPACITY,
    TraceRecorder,
    current_recorder,
    emit,
    use_recorder,
)
from .sinks import Sinks

__all__ = [
    "CapExceededEvent",
    "CellFailureEvent",
    "CollectiveEvent",
    "CounterEvent",
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "Metrics",
    "MpiWaitEvent",
    "PROGRESS_SCHEMA_VERSION",
    "ProfileCollector",
    "ProgressReporter",
    "ReallocEvent",
    "RunManifest",
    "SolveAudit",
    "SolveEvent",
    "SolveRecord",
    "Sinks",
    "TaskEvent",
    "TraceRecorder",
    "chrome_trace",
    "collect_manifest",
    "config_hash",
    "current_audit",
    "current_metrics",
    "current_profile",
    "current_recorder",
    "default_progress_stream",
    "emit",
    "export_chrome_trace",
    "export_jsonl",
    "profile_block",
    "prometheus_text",
    "read_manifest",
    "record_solve",
    "use_audit",
    "use_metrics",
    "use_profile",
    "use_recorder",
    "validate_chrome_trace",
    "validate_metrics_doc",
    "validate_trace_file",
    "write_manifest",
]
