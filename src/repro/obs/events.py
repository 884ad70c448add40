"""Typed trace events: what the instrumented layers report, as data.

Every decision loop in the system — the discrete-event engine advancing
rank clocks, Conductor shifting watts between sockets, RAPL bottoming
out below a cap, the LP solver answering a re-solve from a frozen model
— emits one of the event types below into the active
:class:`~repro.obs.recorder.TraceRecorder`.  Events are plain frozen
dataclasses with a canonical :meth:`to_dict` form; the recorder stores
and ships that dict form, and :mod:`repro.obs.export` renders it as
Chrome trace-event JSON and JSONL.

Two timestamp conventions coexist:

* *simulated* events (tasks, MPI waits, collectives, reallocations,
  counters) carry ``ts_s`` in simulated seconds — they land on the run's
  timeline and are byte-identical across repeated seeded runs;
* *logical* events (solver activity, cap-exceeded reports) carry
  ``ts_s=None`` — they have no simulated time and are ordered by
  emission sequence on dedicated tracks.

The module is stdlib-only: it sits below every other layer (the
simulator, the runtimes, and the solver all import it), so it must not
import anything outside ``repro.obs`` or from third-party packages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .audit import SolveRecord

__all__ = [
    "TaskEvent",
    "MpiWaitEvent",
    "CollectiveEvent",
    "ReallocEvent",
    "CapExceededEvent",
    "SolveEvent",
    "CounterEvent",
    "CellFailureEvent",
    "EVENT_KINDS",
]


@dataclass(frozen=True)
class TaskEvent:
    """One task execution: where, when, and in which DVFS state."""

    kind: ClassVar[str] = "task"

    label: str
    rank: int
    iteration: int
    ts_s: float
    dur_s: float
    freq_ghz: float
    threads: int
    duty: float
    power_w: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.label,
            "rank": self.rank,
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "args": {
                "iteration": self.iteration,
                "freq_ghz": self.freq_ghz,
                "threads": self.threads,
                "duty": self.duty,
                "power_w": self.power_w,
            },
        }


@dataclass(frozen=True)
class MpiWaitEvent:
    """Time a rank spent blocked in a receive or wait call."""

    kind: ClassVar[str] = "mpi_wait"

    name: str  # "recv" or "wait"
    rank: int
    ts_s: float
    dur_s: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "args": {},
        }


@dataclass(frozen=True)
class CollectiveEvent:
    """One rank's span inside a collective (or Pcontrol barrier)."""

    kind: ClassVar[str] = "collective"

    name: str  # collective kind, or "pcontrol"
    rank: int
    ts_s: float
    dur_s: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "args": {},
        }


@dataclass(frozen=True)
class ReallocEvent:
    """A Conductor power-reallocation decision at a Pcontrol barrier."""

    kind: ClassVar[str] = "realloc"

    ts_s: float
    iteration: int
    job_cap_w: float
    alloc_before_w: tuple[float, ...]
    alloc_after_w: tuple[float, ...]

    def to_dict(self) -> dict:
        moved = sum(
            abs(a - b) for a, b in zip(self.alloc_after_w, self.alloc_before_w)
        ) / 2.0
        return {
            "kind": self.kind,
            "name": "power_realloc",
            "rank": None,
            "ts_s": self.ts_s,
            "dur_s": None,
            "args": {
                "iteration": self.iteration,
                "job_cap_w": self.job_cap_w,
                "alloc_before_w": list(self.alloc_before_w),
                "alloc_after_w": list(self.alloc_after_w),
                "moved_w": moved,
            },
        }


@dataclass(frozen=True)
class CapExceededEvent:
    """RAPL bottomed out: even the deepest throttle exceeds the cap."""

    kind: ClassVar[str] = "cap_exceeded"

    cap_w: float
    power_w: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": "cap_exceeded",
            "rank": None,
            "ts_s": None,
            "dur_s": None,
            "args": {"cap_w": self.cap_w, "power_w": self.power_w},
        }


@dataclass(frozen=True)
class SolveEvent:
    """One LP/MILP solve in the trace: a view of its :class:`SolveRecord`.

    Only the deterministic fields reach the trace (which model, cold or
    parametric re-solve, shape, status); iterations, objective, and wall
    time stay in the audit ledger.
    """

    kind: ClassVar[str] = "solve"

    record: SolveRecord

    def to_dict(self) -> dict:
        r = self.record
        return {
            "kind": self.kind,
            "name": f"solve:{r.program}",
            "rank": None,
            "ts_s": None,
            "dur_s": None,
            "args": {
                "source": r.source,
                "backend": r.backend,
                "rows": r.rows,
                "cols": r.cols,
                "nnz": r.nnz,
                "status": r.status,
            },
        }


@dataclass(frozen=True)
class CounterEvent:
    """A sampled counter series (e.g. instantaneous job power, the cap)."""

    kind: ClassVar[str] = "counter"

    name: str
    ts_s: float
    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "rank": None,
            "ts_s": self.ts_s,
            "dur_s": None,
            "args": dict(self.values),
        }


@dataclass(frozen=True)
class CellFailureEvent:
    """A sweep cell that exhausted its attempts under ``--keep-going``.

    Logical (``ts_s=None``): the failure has no simulated time — it is a
    property of the run that computed the cell, not of the workload.
    ``error_type``/``error_message``/``attempts`` mirror the structured
    :class:`~repro.exec.parallel.CellOutcome` recorded in the journal
    and manifest, so trace, journal, and manifest agree on every
    failure.
    """

    kind: ClassVar[str] = "cell_failure"

    benchmark: str
    cap_per_socket_w: float
    error_type: str
    error_message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": f"cell_failure:{self.benchmark}",
            "rank": None,
            "ts_s": None,
            "dur_s": None,
            "args": {
                "cap_per_socket_w": self.cap_per_socket_w,
                "error_type": self.error_type,
                "error_message": self.error_message,
                "attempts": self.attempts,
            },
        }


#: Every kind the exporter understands, in taxonomy order.
EVENT_KINDS = (
    TaskEvent.kind,
    MpiWaitEvent.kind,
    CollectiveEvent.kind,
    ReallocEvent.kind,
    CapExceededEvent.kind,
    SolveEvent.kind,
    CounterEvent.kind,
    CellFailureEvent.kind,
)
