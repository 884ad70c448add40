"""The default transport: a ``ProcessPoolExecutor``.

:class:`ProcessPoolBackend` performs exactly the operations the
pre-backend :class:`~repro.exec.parallel.ParallelRunner` performed, in
the same order — submit through :func:`~repro.exec.backends.base.
run_task`, wait on the future with the caller's per-wait timeout,
rebuild the pool on ``BrokenExecutor`` — so the refactored runner stays
byte-identical to the old one on the golden serial-vs-parallel suites.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError

from ...obs.metrics import inc as metric_inc
from .base import (
    BackendTimeoutError,
    ExecBackend,
    TaskPayload,
    TaskSpec,
    WorkerLostError,
    run_task,
)

__all__ = ["ProcessPoolBackend"]


class ProcessPoolBackend(ExecBackend):
    """Task transport over a ``ProcessPoolExecutor``.

    Handles are the executor's own futures.  A broken pool (a worker
    killed by the OOM killer, ``os._exit``, a segfault) surfaces as
    :class:`~repro.exec.backends.base.WorkerLostError`;
    :meth:`recover` rebuilds the executor — resubmitting to a dead pool
    would fail instantly and misreport the cause — and counts
    ``pool.rebuilt`` in operational metrics, exactly as the pre-backend
    runner did.
    """

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._n_workers = 0

    def start(self, n_workers: int) -> None:
        if self._pool is None:
            self._n_workers = max(1, n_workers)
            self._pool = ProcessPoolExecutor(max_workers=self._n_workers)

    def submit(self, spec: TaskSpec) -> Future:
        if self._pool is None:
            raise RuntimeError("ProcessPoolBackend.submit before start()")
        return self._pool.submit(run_task, spec.fn, spec.item, spec.observe)

    def result(self, handle: Future, timeout_s: float | None) -> TaskPayload:
        try:
            return handle.result(timeout=timeout_s)
        except FuturesTimeoutError as exc:
            raise BackendTimeoutError(exc) from exc
        except BrokenExecutor as exc:
            raise WorkerLostError(exc) from exc

    def cancel(self, handle: Future) -> None:
        handle.cancel()

    def recover(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        metric_inc("pool.rebuilt", operational=True)
        self._pool = ProcessPoolExecutor(max_workers=self._n_workers)

    def needs_resubmit(self, handle: Future) -> bool:
        if not handle.done():
            return True
        if handle.cancelled():
            return True
        return isinstance(handle.exception(), BrokenExecutor)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
