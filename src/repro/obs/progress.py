"""Live sweep progress: heartbeat records, out-of-band by design.

Long, fault-injected sweeps need an answer to "is it still making
progress?" *while running* — not a trace file afterwards.  A
:class:`ProgressReporter` turns per-cell completions into heartbeat
records carrying cells done/total, elapsed wall time, an ETA, failure
and retry counts, and the cache hit rate, and streams them to two sinks:

* a single in-place stderr status line (carriage-return rewritten on a
  TTY, one plain line per heartbeat otherwise), and
* an append-only ``progress.jsonl`` file, one JSON object per heartbeat,
  for dashboards and post-hoc reports.

**Out-of-band means out-of-band**: every field here may be wall-clock
and scheduling dependent.  Nothing from this stream is ever embedded in
manifests, caches, journaled payloads, or any artifact with a
byte-determinism guarantee — that is the other half of the determinism
contract in :mod:`repro.obs.metrics`.  The reporter writes to *stderr*
(never stdout) so golden diffs of captured stdout stay clean, and the
CLI suppresses the status line entirely when stderr is not a TTY unless
explicitly forced (``--progress``), keeping CI logs readable.

Stdlib-only, like every ``repro.obs`` module.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

__all__ = [
    "PROGRESS_SCHEMA_VERSION",
    "ProgressReporter",
    "default_progress_stream",
]

#: Version stamped on every heartbeat record; bump on layout changes.
PROGRESS_SCHEMA_VERSION = 1


class ProgressReporter:
    """Streams sweep heartbeats to a status line and/or a JSONL file.

    Parameters
    ----------
    total:
        Number of cells the sweep will settle.
    label:
        Short prefix for the status line (e.g. the benchmark name).
    stream:
        Text stream for the live status line, or None to disable it.
        Defaults to None; the CLI passes ``sys.stderr`` after its
        TTY/``--quiet`` decision.
    jsonl_path:
        Heartbeat JSONL file, or None to disable the file sink.
    metrics:
        An optional :class:`~repro.obs.metrics.Metrics` to read
        ``cache.hit``/``cache.miss``/``task.retry`` counters from at
        each heartbeat (the CLI passes its active metrics; parents
        merge worker snapshots in submission order, so the counters are
        current whenever a cell settles).
    min_interval_s:
        Minimum seconds between *intermediate* heartbeats; the first
        and last cells always emit.  Keeps a thousand-cell sweep from
        writing a thousand lines.
    clock:
        Monotonic time source (injectable for tests).
    depth_fn:
        Optional zero-argument callable returning the current job-queue
        depth; when given, every heartbeat carries a ``queue_depth``
        field (the service dispatcher passes its queue's pending count).
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream=None,
        jsonl_path: str | Path | None = None,
        metrics=None,
        min_interval_s: float = 0.0,
        clock=time.monotonic,
        depth_fn=None,
    ) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.label = label
        self.stream = stream
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self.metrics = metrics
        self.min_interval_s = min_interval_s
        self._clock = clock
        self.depth_fn = depth_fn
        self._t0 = clock()
        self._last_emit: float | None = None
        self._line_open = False
        self.done = 0
        self.failed = 0
        self.resumed = 0
        self.records_emitted = 0

    # ------------------------------------------------------------------
    def _counters(self) -> dict[str, int]:
        if self.metrics is None:
            return {}
        return {
            "cache_hits": self.metrics.counter("cache.hit"),
            "cache_misses": self.metrics.counter("cache.miss"),
            "retries": self.metrics.counter("task.retry"),
        }

    def _record(self) -> dict:
        elapsed = self._clock() - self._t0
        # Journal-resumed cells count toward done (the bar reaches 100%)
        # but settle in microseconds — folding them into the throughput
        # estimate would make the ETA wildly optimistic right after a
        # resume.  Rate is computed over *computed* cells only.
        computed = self.done - self.resumed
        eta = None
        if 0 < self.done < self.total and computed > 0:
            eta = elapsed / computed * (self.total - self.done)
        doc = {
            "schema": PROGRESS_SCHEMA_VERSION,
            "kind": "progress",
            "done": self.done,
            "total": self.total,
            "failed": self.failed,
            "resumed": self.resumed,
            "elapsed_s": round(elapsed, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
        }
        if self.depth_fn is not None:
            doc["queue_depth"] = int(self.depth_fn())
        counters = self._counters()
        if counters:
            doc.update(counters)
            lookups = counters["cache_hits"] + counters["cache_misses"]
            doc["cache_hit_rate"] = (
                round(counters["cache_hits"] / lookups, 4) if lookups else None
            )
        return doc

    def _line(self, doc: dict) -> str:
        pct = 100.0 * doc["done"] / doc["total"] if doc["total"] else 100.0
        parts = [
            f"[{self.label}] {doc['done']}/{doc['total']} cells ({pct:.0f}%)"
        ]
        if doc["failed"]:
            parts.append(f"{doc['failed']} failed")
        if doc.get("resumed"):
            parts.append(f"{doc['resumed']} resumed")
        if doc.get("queue_depth") is not None:
            parts.append(f"queue {doc['queue_depth']}")
        if doc.get("retries"):
            parts.append(f"{doc['retries']} retries")
        if doc.get("cache_hit_rate") is not None:
            parts.append(f"cache {100.0 * doc['cache_hit_rate']:.0f}%")
        if doc.get("eta_s") is not None:
            parts.append(f"eta {doc['eta_s']:.0f}s")
        parts.append(f"{doc['elapsed_s']:.1f}s elapsed")
        return " · ".join(parts)

    def _emit(self, doc: dict, final: bool) -> None:
        self.records_emitted += 1
        if self.jsonl_path is not None:
            self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            with self.jsonl_path.open("a") as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        if self.stream is None:
            return
        line = self._line(doc)
        if self._is_tty():
            # Rewrite one status line in place; pad to clear leftovers.
            self.stream.write("\r" + line.ljust(79))
            self._line_open = True
            if final:
                self.stream.write("\n")
                self._line_open = False
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _is_tty(self) -> bool:
        isatty = getattr(self.stream, "isatty", None)
        try:
            return bool(isatty()) if isatty is not None else False
        except (ValueError, OSError):
            return False

    # ------------------------------------------------------------------
    def update(self, ok: bool = True, resumed: bool = False) -> None:
        """Record one settled cell (called in submission order).

        ``resumed`` marks a cell rehydrated from a journal rather than
        computed: it counts toward ``done`` (and the 100% bar) but is
        excluded from the throughput behind the ETA, and reported
        separately in the heartbeat.
        """
        self.done += 1
        if not ok:
            self.failed += 1
        if resumed:
            self.resumed += 1
        now = self._clock()
        final = self.done >= self.total
        if (
            not final
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval_s
        ):
            return
        self._last_emit = now
        self._emit(self._record(), final)

    def finish(self) -> None:
        """Close the status line (idempotent; safe when nothing emitted)."""
        if self._line_open and self.stream is not None:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False


def default_progress_stream(force: bool, quiet: bool):
    """The CLI's status-line stream decision: TTY-aware, overridable.

    ``quiet`` always wins; ``force`` (``--progress``) enables the line
    even into a pipe; otherwise the line appears only when stderr is a
    real TTY, so CI logs and redirected runs stay clean.
    """
    if quiet:
        return None
    if force:
        return sys.stderr
    try:
        if sys.stderr.isatty():
            return sys.stderr
    except (ValueError, OSError, AttributeError):
        pass
    return None
