"""Deterministic, fault-tolerant ordered fan-out for sweep cells.

A cap sweep is embarrassingly parallel: every (workload, cap, seed) cell
is an independent, fully seeded computation.  :class:`ParallelRunner`
fans such cells out over a ``ProcessPoolExecutor`` while keeping the
*results in submission order*: the caller sees exactly the list a serial
loop would produce, so parallel and serial runs are interchangeable
byte-for-byte.

Failure semantics come in two flavors:

* :meth:`ParallelRunner.map` — the strict map: a task that fails (or
  times out) on every allowed attempt aborts the whole map with
  :class:`ParallelExecutionError` (or :class:`PoolBrokenError` when the
  workers underneath it kept dying).
* :meth:`ParallelRunner.map_outcomes` — the keep-going map: every item
  produces a :class:`CellOutcome`, ok or failed, and the sweep completes
  around failed cells.  An ``on_outcome`` callback fires per item in
  submission order, which is how the sweep journal checkpoints progress
  (see :mod:`repro.exec.checkpoint`).

Reliability machinery, hardened for production sweeps:

* per-task deadlines are measured **from submission**, not from when the
  parent starts waiting on that index — every concurrent cell gets the
  same wall-clock budget; a map that abandoned a timed-out task kills
  its workers on the way out instead of waiting for the task to return;
* a worker death (a worker killed by the OOM killer, ``os._exit``, a
  segfault — surfaced by the pool as ``BrokenProcessPool``) is detected
  distinctly from task failures: the pool is rebuilt and every task
  that died with it is resubmitted rather than charged;
* retries back off with deterministic seeded exponential delays plus
  jitter (:func:`retry_delay_s`), so a thundering herd of workers
  retrying a shared resource de-synchronizes the same way every run.

With ``max_workers <= 1`` the runner degrades to a plain in-process
loop — no pickling, no subprocesses — which is also the benchmark
harness's measured path.

Observability: each worker runs its task under fresh sinks of the kinds
the parent has active (:class:`~repro.obs.sinks.Sinks` — metrics with
their phase timers, trace events, solver audits, cProfile aggregates)
and ships one snapshot back with the result (:func:`run_task`); the
parent folds the snapshots in *submission order*, so cache counters and
phase times survive process boundaries and a parallel run's trace,
audit, and deterministic metric subset are identical to a serial run's
(modulo re-sequencing, which is itself deterministic).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..obs.metrics import inc as metric_inc
from ..obs.metrics import observe as metric_observe
from ..obs.sinks import Sinks

__all__ = [
    "ParallelRunner",
    "ParallelExecutionError",
    "PoolBrokenError",
    "CellOutcome",
    "retry_delay_s",
    "resolve_workers",
    "run_task",
]


class ParallelExecutionError(RuntimeError):
    """A task failed (or timed out) on every allowed attempt."""


class PoolBrokenError(ParallelExecutionError):
    """The workers underneath a task died on every allowed attempt.

    Raised instead of the generic :class:`ParallelExecutionError` when
    what kept failing was not the task's own code but the worker process
    beneath it — a worker killed by the OOM killer, ``os._exit``, or a
    crash in the pickling machinery.  The pool is rebuilt between
    attempts, so seeing this means even fresh workers kept dying.
    """


@dataclass(frozen=True)
class CellOutcome:
    """The structured result of one mapped item: ok, or how it failed.

    ``error_type``/``error_message``/``attempts`` are deterministic for
    deterministic failures (e.g. injected faults), so they may be stored
    in journals and manifests that must be byte-stable across runs.
    ``elapsed_s`` is wall-clock and ``error`` is the live exception —
    both are diagnostics only and excluded from :meth:`failure_doc`.
    """

    index: int
    ok: bool
    value: Any = None
    error_type: str | None = None
    error_message: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0
    error: BaseException | None = field(default=None, compare=False, repr=False)

    def failure_doc(self) -> dict:
        """Deterministic JSON-safe record of a failed outcome."""
        if self.ok:
            raise ValueError("failure_doc() on an ok outcome")
        return {
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request: None -> 1, 0 -> all usable CPUs.

    "Usable" is the process's CPU affinity set where the platform has
    one, so ``taskset -c 0`` yields one worker on a many-core host.
    """
    if workers is None:
        return 1
    if workers == 0:
        try:
            return len(os.sched_getaffinity(0)) or 1
        except AttributeError:  # pragma: no cover - platforms without affinity
            return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def retry_delay_s(
    seed: int, index: int, attempt: int, base_s: float, cap_s: float = 2.0
) -> float:
    """Deterministic exponential backoff with jitter for one retry.

    The delay doubles per attempt from ``base_s`` up to ``cap_s``, then
    is scaled into [0.5, 1.0) by a PRNG seeded from (seed, index,
    attempt) — every run, and every retrying worker, computes the same
    schedule, but different cells de-synchronize from each other.
    ``base_s <= 0`` disables backoff entirely.
    """
    if base_s <= 0:
        return 0.0
    rng = random.Random(f"{seed}:{index}:{attempt}")
    exp = min(cap_s, base_s * (2 ** max(0, attempt - 1)))
    return exp * (0.5 + 0.5 * rng.random())


def run_task(
    fn: Callable[[Any], Any],
    item: Any,
    observe: Sinks | None = None,
) -> tuple[Any, dict | None]:
    """Worker-side wrapper: run one task under fresh observability state.

    Returns ``(value, snapshot)``: the task runs with empty sinks of the
    kinds ``observe`` holds active, and ``snapshot`` is their
    :meth:`Sinks.snapshot` (None, with nothing activated, when
    ``observe`` is None).  The parent folds the snapshot in submission
    order.
    """
    sinks = observe.fresh() if observe is not None else None
    if sinks is None:
        return fn(item), None
    with sinks.active():
        value = fn(item)
    return value, sinks.snapshot()


def _lost(future: Future) -> bool:
    """Whether a future's work died with a broken pool and must rerun.

    A future that settled for real — with a result or with its own
    task exception — keeps its state.
    """
    if not future.done() or future.cancelled():
        return True
    return isinstance(future.exception(), BrokenExecutor)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting and kill its worker processes.

    A running task cannot be interrupted, so a pool holding an abandoned
    (timed-out) task would otherwise block its shutdown until that task
    returns on its own.  Python 3.14 has ``terminate_workers()`` for
    this; earlier versions have no public call, hence ``_processes``.
    """
    processes = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.kill()
    for proc in processes:
        proc.join()


def _run_batch(packed: tuple) -> list[dict]:
    """Worker-side batch: several items through one dispatch.

    Amortizes per-task pickling/IPC overhead when cells are small (the
    many-caps/cheap-solve regime a warm parametric sweep produces).
    Each item retries *in the worker* on the same deterministic backoff
    schedule as the unbatched map — :func:`retry_delay_s` keyed by the
    item's global index — and settles into a structured doc, so one
    failing item never discards its batch-mates' results.  The retry and
    failure counters land in the worker metrics that :func:`run_task`
    snapshots around the whole batch.
    """
    fn, batch, start, retries, backoff_s, seed = packed
    docs: list[dict] = []
    for k, item in enumerate(batch):
        index = start + k
        attempt = 0
        while True:
            try:
                value = fn(item)
                docs.append({"ok": True, "value": value, "attempts": attempt + 1})
                break
            except Exception as exc:
                attempt += 1
                if attempt > retries:
                    metric_inc("task.failed", operational=True)
                    docs.append({
                        "ok": False,
                        "error_type": type(exc).__name__,
                        "error_message": str(exc),
                        "attempts": attempt,
                    })
                    break
                metric_inc("task.retry", operational=True)
                time.sleep(retry_delay_s(seed, index, attempt, backoff_s))
    return docs


class ParallelRunner:
    """Ordered, fault-tolerant map over a process pool.

    Parameters
    ----------
    max_workers:
        Worker processes; ``<= 1`` runs serially in-process (``0`` means
        one per CPU core, via :func:`resolve_workers`).
    timeout_s:
        Per-task wall-clock budget, measured from the task's (re-)
        submission.  None waits forever.  A timed-out task is retried
        on the same pool while its abandoned worker keeps running (a
        running call cannot be interrupted), and the map kills the
        pool's workers when it returns rather than waiting for them —
        so timeouts should be generous, a last line of defense.
    retries:
        Extra attempts per task after the first failure or timeout.
    backoff_s:
        Base retry delay; retries sleep a deterministic seeded
        exponential backoff with jitter (:func:`retry_delay_s`).
        ``0`` retries immediately.
    backoff_seed:
        Seed of the jitter schedule (so backoff is reproducible).
    batch_size:
        Items dispatched per submission (default 1: one task per item).
        ``> 1`` groups contiguous items into one worker call
        (:func:`_run_batch`), amortizing pickling/IPC overhead when
        individual cells are cheap; results, outcome callbacks, and the
        deterministic per-item retry schedule are unchanged.  Item
        failures settle in-worker; the per-task ``timeout_s`` budget
        scales to ``timeout_s * batch_size`` per dispatch.  Serial runs
        ignore it.

    Each parallel map builds its own ``ProcessPoolExecutor`` and shuts
    it down before returning.
    """

    def __init__(
        self,
        max_workers: int | None = 1,
        timeout_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.05,
        backoff_seed: int = 0,
        batch_size: int = 1,
    ) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.max_workers = resolve_workers(max_workers)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_seed = backoff_seed
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in item order.

        A task that fails every attempt aborts the map with
        :class:`ParallelExecutionError` (:class:`PoolBrokenError` when
        the workers themselves kept dying).  ``fn`` and the items must
        be picklable when the map runs on the pool (``fn`` should be a
        module-level function).  Serially, exceptions propagate raw —
        the in-process loop adds no retry machinery.
        """
        items = list(items)
        if self.max_workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        if self.batch_size > 1:
            return [
                outcome.value
                for outcome in self._map_batched(
                    fn, items, keep_going=False, on_outcome=None
                )
            ]
        return [
            outcome.value
            for outcome in self._map_parallel(fn, items, keep_going=False)
        ]

    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        on_outcome: Callable[[CellOutcome], None] | None = None,
    ) -> list[CellOutcome]:
        """Keep-going map: one :class:`CellOutcome` per item, in order.

        A task that exhausts its attempts becomes a failed outcome
        instead of aborting the map; the remaining items still run.
        ``on_outcome`` (when given) fires once per item, in submission
        order, as soon as that item settles — the checkpoint hook: an
        interrupted sweep has journaled every settled prefix cell.
        Serially the same retry/backoff policy applies in-process
        (without the timeout, which needs a worker process to enforce).
        """
        items = list(items)
        if self.max_workers <= 1 or len(items) <= 1:
            return self._map_serial_outcomes(fn, items, on_outcome)
        if self.batch_size > 1:
            return self._map_batched(
                fn, items, keep_going=True, on_outcome=on_outcome
            )
        return self._map_parallel(fn, items, keep_going=True, on_outcome=on_outcome)

    # ------------------------------------------------------------------
    def _map_serial_outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        on_outcome: Callable[[CellOutcome], None] | None,
    ) -> list[CellOutcome]:
        outcomes: list[CellOutcome] = []
        for i, item in enumerate(items):
            attempt = 0
            t0 = time.monotonic()
            while True:
                try:
                    value = fn(item)
                    outcome = CellOutcome(
                        index=i, ok=True, value=value, attempts=attempt + 1,
                        elapsed_s=time.monotonic() - t0,
                    )
                    break
                except Exception as exc:
                    attempt += 1
                    if attempt > self.retries:
                        metric_inc("task.failed", operational=True)
                        outcome = CellOutcome(
                            index=i, ok=False,
                            error_type=type(exc).__name__,
                            error_message=str(exc),
                            attempts=attempt,
                            elapsed_s=time.monotonic() - t0,
                            error=exc,
                        )
                        break
                    metric_inc("task.retry", operational=True)
                    time.sleep(
                        retry_delay_s(self.backoff_seed, i, attempt, self.backoff_s)
                    )
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    # ------------------------------------------------------------------
    def _map_batched(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        keep_going: bool,
        on_outcome: Callable[[CellOutcome], None] | None,
    ) -> list[CellOutcome]:
        """Batched fan-out: contiguous item groups per dispatch.

        Each batch runs through :func:`_run_batch` (item retries settle
        in-worker); batch-level machinery — timeouts, worker-death
        recovery, resubmission — reuses :meth:`_map_parallel` over the
        batch descriptors, with the per-dispatch deadline scaled by the
        batch size.  Outcomes flatten back to per-item
        :class:`CellOutcome` objects in submission order, and
        ``on_outcome`` fires per item as its batch settles, so journals
        checkpoint identically to the unbatched map.  ``elapsed_s`` on a
        batched outcome is its batch's wall-clock (diagnostics only).
        """
        bs = self.batch_size
        starts = list(range(0, len(items), bs))
        batch_items = [
            (
                fn, list(items[s:s + bs]), s,
                self.retries, self.backoff_s, self.backoff_seed,
            )
            for s in starts
        ]
        batch_runner = ParallelRunner(
            max_workers=self.max_workers,
            timeout_s=None if self.timeout_s is None else self.timeout_s * bs,
            retries=self.retries,
            backoff_s=self.backoff_s,
            backoff_seed=self.backoff_seed,
        )
        flat: list[CellOutcome] = []

        def settle_batch(b_out: CellOutcome) -> None:
            start = starts[b_out.index]
            n = len(batch_items[b_out.index][1])
            for k in range(n):
                if b_out.ok:
                    doc = b_out.value[k]
                    outcome = CellOutcome(
                        index=start + k,
                        ok=bool(doc["ok"]),
                        value=doc.get("value"),
                        error_type=doc.get("error_type"),
                        error_message=doc.get("error_message"),
                        attempts=int(doc["attempts"]),
                        elapsed_s=b_out.elapsed_s,
                    )
                else:
                    # The whole dispatch failed (timeout / worker death
                    # on every attempt): every item of the batch reports
                    # that shared infrastructure failure.
                    outcome = CellOutcome(
                        index=start + k,
                        ok=False,
                        error_type=b_out.error_type,
                        error_message=b_out.error_message,
                        attempts=b_out.attempts,
                        elapsed_s=b_out.elapsed_s,
                        error=b_out.error,
                    )
                flat.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)

        # Batch-level keep_going mirrors the caller's: strict maps still
        # abort on an infrastructure failure mid-sweep.  Item-level
        # failures never raise out of _run_batch, so the strict check
        # below is what enforces them.
        batch_runner._map_parallel(
            _run_batch, batch_items, keep_going=keep_going,
            on_outcome=settle_batch,
        )
        if not keep_going:
            for outcome in flat:
                if not outcome.ok:
                    raise ParallelExecutionError(
                        f"task {outcome.index} failed on all "
                        f"{outcome.attempts} attempt(s): "
                        f"{outcome.error_message}"
                    ) from outcome.error
        return flat

    # ------------------------------------------------------------------
    def _map_parallel(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        keep_going: bool,
        on_outcome: Callable[[CellOutcome], None] | None = None,
    ) -> list[CellOutcome]:
        if not items:
            return []
        outcomes: list[CellOutcome | None] = [None] * len(items)
        parent = Sinks.current()
        observe = parent.fresh()
        n_workers = max(1, min(self.max_workers, len(items)))
        pool = ProcessPoolExecutor(max_workers=n_workers)
        abandoned = False
        deadlines: list[float | None] = [None] * len(items)
        started: list[float] = [0.0] * len(items)
        futures: list[Future | None] = [None] * len(items)

        def submit(i: int) -> None:
            # The deadline starts at (re-)submission: every attempt of
            # every cell gets the same wall-clock budget, regardless of
            # when the parent reaches index i in its wait loop.
            futures[i] = pool.submit(run_task, fn, items[i], observe)
            now = time.monotonic()
            if not started[i]:
                started[i] = now
            deadlines[i] = None if self.timeout_s is None else now + self.timeout_s

        try:
            for i in range(len(items)):
                submit(i)
            for i in range(len(items)):
                attempt = 0
                while True:
                    try:
                        wait = None
                        if deadlines[i] is not None:
                            wait = max(0.0, deadlines[i] - time.monotonic())
                        result, snapshot = futures[i].result(timeout=wait)
                        elapsed = time.monotonic() - started[i]
                        outcomes[i] = CellOutcome(
                            index=i, ok=True, value=result, attempts=attempt + 1,
                            elapsed_s=elapsed,
                        )
                        # Fold worker observability in submission order:
                        # the loop consumes futures by index, so the
                        # merged stream is stable regardless of which
                        # worker finished first.
                        if snapshot is not None:
                            parent.merge(snapshot)
                        # Dispatch latency includes queueing and IPC, so
                        # it is wall-clock-only: operational by contract.
                        metric_observe(
                            "task.dispatch_wall_s", elapsed, operational=True
                        )
                        break
                    except FuturesTimeoutError as exc:
                        # A queued task is dropped; a running one cannot
                        # be interrupted and is left to the final kill.
                        if not futures[i].cancel():
                            abandoned = True
                        metric_inc("task.deadline_expired", operational=True)
                        attempt, failed = self._note_failure(
                            i, attempt, "timed out", exc, keep_going,
                            started, outcomes,
                        )
                        if failed:
                            break
                        submit(i)
                    except BrokenExecutor as exc:
                        # A worker died.  Resubmitting to the dead pool
                        # would fail instantly and misreport the cause,
                        # so rebuild first; the death is charged to the
                        # task being awaited — the closest observable
                        # culprit.
                        pool.shutdown(wait=False, cancel_futures=True)
                        metric_inc("pool.rebuilt", operational=True)
                        pool = ProcessPoolExecutor(max_workers=n_workers)
                        attempt, failed = self._note_failure(
                            i, attempt, "broke the worker pool", exc,
                            keep_going, started, outcomes, broke_pool=True,
                        )
                        for j in range(i + (1 if failed else 0), len(items)):
                            if outcomes[j] is None and _lost(futures[j]):
                                submit(j)
                        if failed:
                            break
                    except Exception as exc:
                        attempt, failed = self._note_failure(
                            i, attempt, "failed", exc, keep_going,
                            started, outcomes,
                        )
                        if failed:
                            break
                        submit(i)
                if on_outcome is not None:
                    on_outcome(outcomes[i])
        finally:
            if abandoned:
                _kill_workers(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return outcomes  # type: ignore[return-value]

    def _note_failure(
        self,
        index: int,
        attempt: int,
        what: str,
        exc: BaseException,
        keep_going: bool,
        started: list[float],
        outcomes: list[CellOutcome | None],
        broke_pool: bool = False,
    ) -> tuple[int, bool]:
        """Account one failed attempt; returns (attempt, exhausted).

        Below the retry budget: sleeps the deterministic backoff and
        reports (attempt, False) so the caller resubmits.  At the
        budget: either records a failed :class:`CellOutcome`
        (``keep_going``) or raises.
        """
        attempt += 1
        if attempt <= self.retries:
            metric_inc("task.retry", operational=True)
            time.sleep(
                retry_delay_s(self.backoff_seed, index, attempt, self.backoff_s)
            )
            return attempt, False
        metric_inc("task.failed", operational=True)
        if keep_going:
            outcomes[index] = CellOutcome(
                index=index, ok=False,
                error_type=type(exc).__name__,
                error_message=str(exc),
                attempts=attempt,
                elapsed_s=time.monotonic() - started[index],
                error=exc,
            )
            return attempt, True
        error_cls = PoolBrokenError if broke_pool else ParallelExecutionError
        raise error_cls(
            f"task {index} {what} on all {attempt} attempt(s): {exc!r}"
        ) from exc
