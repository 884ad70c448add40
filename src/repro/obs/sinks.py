"""One activation context for every observability sink.

A run observes through up to four sinks — a :class:`~repro.obs.metrics.
Metrics` registry (counters, gauges, histograms, and the ``phase.*``
timers), a :class:`~repro.obs.recorder.TraceRecorder`, a
:class:`~repro.obs.audit.SolveAudit` ledger, and a
:class:`~repro.obs.profiling.ProfileCollector`.  :class:`Sinks` holds
whichever of them are in use and moves them as one unit:

* :meth:`Sinks.active` activates every held sink for a with-block (the
  CLI's one observation context);
* :meth:`Sinks.current` captures what the calling context has active,
  and :meth:`Sinks.fresh` makes empty sinks of the same kinds (a
  recorder keeps its capacity) — what a parallel task is told to
  observe;
* :meth:`Sinks.snapshot` / :meth:`Sinks.merge` carry a worker's sinks
  back across a process boundary as one JSON-safe dict, folded in
  submission order so parallel artifacts match serial ones.

Stdlib-only, like every ``repro.obs`` module.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator

from .audit import SolveAudit, current_audit, use_audit
from .metrics import Metrics, current_metrics, use_metrics
from .profiling import ProfileCollector, current_profile, use_profile
from .recorder import TraceRecorder, current_recorder, use_recorder

__all__ = ["Sinks"]


@dataclass
class Sinks:
    """The observability sinks of one run (None = that sink is off)."""

    metrics: Metrics | None = None
    recorder: TraceRecorder | None = None
    audit: SolveAudit | None = None
    profile: ProfileCollector | None = None

    @classmethod
    def current(cls) -> "Sinks":
        """The sinks active in the calling context."""
        return cls(current_metrics(), current_recorder(), current_audit(),
                   current_profile())

    def fresh(self) -> "Sinks | None":
        """Empty sinks of the same kinds, or None when none is held.

        A fresh recorder keeps this one's capacity, so a worker drops
        events exactly where the parent would.
        """
        if (self.metrics is None and self.recorder is None
                and self.audit is None and self.profile is None):
            return None
        return Sinks(
            Metrics() if self.metrics is not None else None,
            (TraceRecorder(self.recorder.capacity)
             if self.recorder is not None else None),
            SolveAudit() if self.audit is not None else None,
            ProfileCollector() if self.profile is not None else None,
        )

    @contextmanager
    def active(self) -> Iterator["Sinks"]:
        """Activate every held sink for the duration of the with-block."""
        with ExitStack() as stack:
            for sink, use in ((self.metrics, use_metrics),
                              (self.recorder, use_recorder),
                              (self.audit, use_audit),
                              (self.profile, use_profile)):
                if sink is not None:
                    stack.enter_context(use(sink))
            yield self

    def snapshot(self) -> dict:
        """Every held sink's snapshot, keyed by sink (JSON-safe)."""
        doc: dict = {}
        if self.metrics is not None:
            doc["metrics"] = self.metrics.to_dict()
        if self.recorder is not None:
            doc["trace"] = {"events": self.recorder.snapshot(),
                            "dropped": self.recorder.dropped}
        if self.audit is not None:
            doc["audit"] = self.audit.to_dicts()
        if self.profile is not None:
            doc["profile"] = self.profile.to_dict()
        return doc

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. a worker's) into the held sinks."""
        if self.metrics is not None and "metrics" in snapshot:
            self.metrics.merge(snapshot["metrics"])
        if self.recorder is not None and "trace" in snapshot:
            trace = snapshot["trace"]
            self.recorder.extend(trace["events"], dropped=trace["dropped"])
        if self.audit is not None and "audit" in snapshot:
            self.audit.extend(snapshot["audit"])
        if self.profile is not None and "profile" in snapshot:
            self.profile.merge(snapshot["profile"])
