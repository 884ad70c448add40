"""The transport contract: submit a task, await its payload, survive its worker.

:class:`ExecBackend` is the seam :class:`~repro.exec.parallel.ParallelRunner`
was split along.  The runner keeps every backend-independent guarantee —
submission-order results, seeded retry backoff, submit-time deadlines,
batching, observability merging — and drives a backend through five verbs:

* :meth:`ExecBackend.submit` — hand one :class:`TaskSpec` to the
  transport, get an opaque handle back;
* :meth:`ExecBackend.result` — block (up to the caller's deadline) for
  that handle's payload.  Three things can come out: the payload, the
  task's own exception (re-raised raw), or one of two *normalized*
  transport signals — :class:`BackendTimeoutError` when the deadline
  passed, :class:`WorkerLostError` when the worker underneath the task
  died (the worker-death signal);
* :meth:`ExecBackend.cancel` — release a handle the runner gave up on;
* :meth:`ExecBackend.recover` — restore transport capacity after a
  worker death (rebuild the pool, respawn fleet workers);
* :meth:`ExecBackend.needs_resubmit` — whether a handle's work was lost
  to that death (versus settled for real) and must be submitted again.

Both transport signals carry the underlying exception as ``.cause`` so
the runner's structured outcomes name the real culprit
(``TimeoutError``, ``BrokenProcessPool``, ``WorkerDiedError``) exactly
as the pre-backend code did.

:func:`run_task` is the worker-side half of the contract: every remote
transport runs tasks through it so results travel with one
:class:`~repro.obs.sinks.Sinks` snapshot (metrics and phase timers,
trace events, solver audits, profiles) and the parent can fold it in
submission order — the mechanism behind serial-vs-parallel
byte-identity.  In-process transports return a ``None`` snapshot
instead: the parent's own observability context already saw everything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from ...obs.sinks import Sinks

__all__ = [
    "BackendTimeoutError",
    "ExecBackend",
    "TaskPayload",
    "TaskSpec",
    "WorkerLostError",
    "make_backend",
    "run_task",
]

#: The observability-bearing result every transport ships back:
#: ``(value, snapshot)``, where ``snapshot`` is the task's
#: :meth:`Sinks.snapshot`, or ``None`` when the parent observed nothing
#: (or an in-process transport recorded directly into its context).
TaskPayload = tuple


class BackendTimeoutError(Exception):
    """The caller's deadline passed before the task's payload arrived.

    ``cause`` is the underlying timeout exception (e.g. the future's
    ``TimeoutError``); the runner records its type and message in the
    task's structured outcome.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(repr(cause))
        self.cause = cause


class WorkerLostError(Exception):
    """The worker executing (or queued to execute) a task died.

    The transport-agnostic worker-death signal: a ``ProcessPoolExecutor``
    that broke, a socket worker that was SIGKILLed mid-task, a
    connection that stopped heartbeating.  ``cause`` is the underlying
    exception (``BrokenProcessPool``, :class:`~repro.exec.backends.
    sockets.WorkerDiedError`); the runner charges the death as one
    failed attempt, calls :meth:`ExecBackend.recover`, and resubmits
    every handle :meth:`ExecBackend.needs_resubmit` reports lost.
    """

    def __init__(self, cause: BaseException) -> None:
        super().__init__(repr(cause))
        self.cause = cause


@dataclass(frozen=True)
class TaskSpec:
    """One unit of transport work: a function, its item, and what to observe.

    ``index`` is the task's submission index — transports treat it as
    opaque (it names the task in logs and wire messages); the runner
    owns its meaning.  ``observe`` is the parent's active sinks made
    fresh (:meth:`Sinks.fresh`): the kinds of sink — and the trace
    capacity — a remote worker records into, so it only pays for the
    snapshots the parent will fold in.  None when the parent observes
    nothing.
    """

    index: int
    fn: Callable[[Any], Any]
    item: Any
    observe: Sinks | None = None


def run_task(
    fn: Callable[[Any], Any],
    item: Any,
    observe: Sinks | None = None,
) -> TaskPayload:
    """Worker-side wrapper: run one task under fresh observability state.

    Returns ``(value, snapshot)``: the task runs with empty sinks of the
    kinds ``observe`` holds active, and ``snapshot`` is their
    :meth:`Sinks.snapshot` (None, with nothing activated, when
    ``observe`` is None).  Every remote transport (process pool, socket
    fleet) runs tasks through this function, so the payload shape — and
    therefore the parent's submission-order merge — is identical across
    backends.
    """
    sinks = observe.fresh() if observe is not None else None
    if sinks is None:
        return fn(item), None
    with sinks.active():
        value = fn(item)
    return value, sinks.snapshot()


class ExecBackend(ABC):
    """One task transport: in-process, a process pool, or a socket fleet.

    Lifecycle: :meth:`start` is idempotent — the runner calls it at the
    top of every map, so a long-lived backend (a fleet shared by a
    dispatcher) starts once and is reused, while the runner's default
    per-map backend starts fresh each time.  The party that *created*
    the backend owns :meth:`shutdown`; the runner only shuts down
    backends it built itself.
    """

    #: True when tasks run in the calling process: observability is
    #: recorded directly into the parent's active context, payload
    #: snapshots come back ``None``, and deadlines cannot be enforced.
    in_process: bool = False

    @abstractmethod
    def start(self, n_workers: int) -> None:
        """Bring up to ``n_workers`` of transport capacity (idempotent)."""

    @abstractmethod
    def submit(self, spec: TaskSpec) -> Any:
        """Queue one task; returns an opaque handle for :meth:`result`."""

    @abstractmethod
    def result(self, handle: Any, timeout_s: float | None) -> TaskPayload:
        """The handle's payload, its task's exception, or a transport signal.

        Blocks up to ``timeout_s`` (forever when None).  Raises
        :class:`BackendTimeoutError` when the deadline passes first,
        :class:`WorkerLostError` when the handle's worker died, and the
        task's own exception raw when the task itself failed.
        """

    @abstractmethod
    def cancel(self, handle: Any) -> None:
        """Release a handle the runner has given up waiting on.

        Queued work is dropped; running work cannot be interrupted (its
        abandoned worker finishes in the background, exactly as a
        process pool behaves) but its late result is discarded.
        """

    @abstractmethod
    def recover(self) -> None:
        """Restore capacity after a worker death (rebuild / respawn)."""

    @abstractmethod
    def needs_resubmit(self, handle: Any) -> bool:
        """Whether this handle's work was lost to a worker death.

        A handle that settled for real — with a result or with its own
        task exception — keeps its state and returns False; one whose
        work died with its worker must be submitted again.
        """

    @abstractmethod
    def shutdown(self) -> None:
        """Tear the transport down; further submits are an error."""


def make_backend(name: str, **kwargs: Any) -> ExecBackend:
    """Construct a backend by registry name.

    ``inline`` (in-process serial), ``process`` (the default
    ``ProcessPoolExecutor`` transport), or ``socket`` (a worker fleet
    over local sockets; see :class:`~repro.exec.backends.sockets.
    SocketWorkerBackend` for its keyword arguments).
    """
    from .inline import InlineBackend
    from .pool import ProcessPoolBackend
    from .sockets import SocketWorkerBackend

    factories: dict[str, Callable[..., ExecBackend]] = {
        "inline": InlineBackend,
        "process": ProcessPoolBackend,
        "socket": SocketWorkerBackend,
    }
    if name not in factories:
        raise ValueError(
            f"unknown exec backend {name!r}; choose from {sorted(factories)}"
        )
    return factories[name](**kwargs)
