"""The fixed-order LP at any cap: assemble the model once, re-solve per cap.

The paper's Figures 9-15 solve the same trace under many power caps.  The
cap appears only in the RHS of the event-power rows, so the entire model
— variables, precedence, the hundreds of thousands of event-power
nonzeros — is cap-invariant: :class:`ParametricCapSolver` compiles and
freezes it once and re-solves with an updated RHS per cap.  It is the one
path that solves the fixed-order LP; :func:`solve_fixed_order_lp` is its
one-cap spelling.  The matrix handed to HiGHS is identical to a
from-scratch build at that cap (the tests hold it to a rebuild oracle in
``tests/core/lp_oracles.py``).  Every solve starts cold, so a sweep's
caps are solved on two threads at once with the same bits
(:meth:`ParametricCapSolver.solve_many`), and a caller with other work
between its solves can have them solved ahead on a helper thread
(:func:`solving_caps_ahead`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from ..obs.metrics import timed
from ..simulator.trace import Trace
from .events import EventStructure
from .fixed_order_lp import FixedOrderLpResult, compile_fixed_order
from .model import CAP_ROW_TAG, ProblemInstance, build_problem_instance, extract_schedule
from .solver import LpStatus, drop_thread_handle, helper_threads, solving_ahead

__all__ = [
    "CapSweepResult",
    "ParametricCapSolver",
    "solve_cap_sweep",
    "minimum_feasible_cap",
    "solving_caps_ahead",
]


@dataclass
class CapSweepResult:
    """Solutions of one trace across many caps."""

    trace: Trace
    results: dict[float, FixedOrderLpResult]

    def makespans(self) -> dict[float, float | None]:
        """cap -> makespan (None where infeasible)."""
        return {
            cap: (res.makespan_s if res.feasible else None)
            for cap, res in self.results.items()
        }

    def feasible_caps(self) -> list[float]:
        return sorted(c for c, r in self.results.items() if r.feasible)

    def saturation_cap(self, tol: float = 1e-6) -> float | None:
        """Smallest tested cap whose makespan matches the loosest cap's
        (beyond it, power is no longer the constraint)."""
        feas = self.feasible_caps()
        if not feas:
            return None
        best = self.results[feas[-1]].makespan_s
        for cap in feas:
            if self.results[cap].makespan_s <= best * (1 + tol):
                return cap
        return feas[-1]


class ParametricCapSolver:
    """The fixed-order LP assembled once, solvable at any cap.

    Compiles the model from the shared IR at a placeholder cap, freezes
    the sparse matrix, and answers each :meth:`solve` by overriding the
    RHS of the :data:`~.model.CAP_ROW_TAG` rows — skipping model build
    and matrix assembly entirely.  Optionally consults/feeds a
    :class:`repro.exec.SolverCache` under
    :func:`~repro.exec.keys.fixed_order_lp_key`.  The build is timed as
    ``phase.assemble`` and each solve on the calling thread as
    ``phase.solve``.
    """

    def __init__(
        self,
        trace: Trace,
        events: EventStructure | None = None,
        power_tiebreak: float = 1e-9,
        instance: ProblemInstance | None = None,
    ) -> None:
        with timed("phase.assemble"):
            if instance is None:
                instance = build_problem_instance(trace, events=events)
            # The placeholder cap never reaches the solver: every solve
            # overrides the tagged rows' RHS with its own cap.
            self._compiled = compile_fixed_order(
                instance, cap_w=1.0, power_tiebreak=power_tiebreak
            )
            self._frozen = self._compiled.freeze()
        self.instance = instance
        self.power_tiebreak = float(power_tiebreak)
        # (cap_w, time_limit_s) -> the solve solving_caps_ahead started
        # for it, taken (and dropped) by the first solve of that cap.
        self._ahead: dict[tuple[float, float | None], Future] = {}
        # The solving_caps_ahead block that filled _ahead, if one is open.
        self._ahead_block: _SolvesAhead | None = None

    @property
    def events(self) -> EventStructure:
        return self.instance.events

    @property
    def n_solves(self) -> int:
        """LP solves actually performed (cache hits excluded)."""
        return self._frozen.n_solves

    def solve(
        self,
        cap_w: float,
        cache=None,
        time_limit_s: float | None = None,
    ) -> FixedOrderLpResult:
        """Solve the frozen model at ``cap_w`` (cache-aware)."""
        return self.solve_many(
            [cap_w], cache=cache, time_limit_s=time_limit_s
        )[float(cap_w)]

    def solve_many(
        self,
        caps_w,
        cache=None,
        time_limit_s: float | None = None,
    ) -> dict[float, FixedOrderLpResult]:
        """Solve the frozen model at every cap: ``{cap: result}`` in the
        order of ``caps_w``, a repeated cap solved once.

        Cache hits are served first.  A cap that
        :func:`solving_caps_ahead` already handed to a helper thread takes
        that solve (see there for what the caller does while it waits);
        the remaining caps are solved on up to two threads,
        one per CPU this process may run on (the caller's included): a
        helper thread solves them from the last cap backwards while the
        caller takes them in cap order, solving each one the helper has
        not started and waiting for the others.  Each cap passes through
        :meth:`FrozenProgram.solve` on the calling thread, which records
        it, and is then decoded and cached there.  Every solve starts
        cold, so the results are bit-identical to one :meth:`solve` per
        cap.  The helper is joined before this returns.  Raises
        ``ValueError`` for an empty list or a cap that is not a finite
        positive number, before anything is solved.
        """
        results: dict[float, FixedOrderLpResult | None] = dict.fromkeys(
            _checked_caps(caps_w)
        )
        ahead = {cap: self._ahead.pop((cap, time_limit_s), None) for cap in results}
        block = self._ahead_block
        keys = {}
        if cache is not None:
            # Imported here: repro.exec sits above repro.core in the
            # layering (it imports this package's siblings).
            from ..exec.cache import lp_result_from_payload, lp_result_payload
            from ..exec.keys import fixed_order_lp_key

            for cap in results:
                keys[cap] = fixed_order_lp_key(
                    self.instance.trace,
                    cap,
                    power_tiebreak=self.power_tiebreak,
                    time_limit_s=time_limit_s,
                )
                payload = cache.get(keys[cap])
                if payload is not None:
                    results[cap] = lp_result_from_payload(
                        payload, self.instance.events
                    )
                    if ahead[cap] is not None:
                        ahead[cap].cancel()  # a helper's solve goes unused
        misses = [cap for cap, result in results.items() if result is None]
        own = [cap for cap in misses if ahead[cap] is None]
        jobs = [(self._frozen, {CAP_ROW_TAG: cap}, time_limit_s) for cap in own]
        with solving_ahead(jobs) as futures:
            ahead.update(zip(own, futures))
            for cap in misses:
                meanwhile = None
                if block is not None and cap not in own:
                    meanwhile = partial(block.solve_until, ahead[cap])
                with timed("phase.solve"):
                    solution = self._frozen.solve(
                        time_limit_s, {CAP_ROW_TAG: cap},
                        ahead=ahead[cap], meanwhile=meanwhile,
                    )
                if solution.status is LpStatus.OPTIMAL:
                    schedule = extract_schedule(
                        self._compiled, solution, cap_w=cap
                    )
                else:
                    schedule = None
                result = FixedOrderLpResult(
                    schedule=schedule,
                    solution=solution,
                    events=self.instance.events,
                )
                if cache is not None:
                    cache.put(keys[cap], lp_result_payload(result))
                results[cap] = result
        return results


@contextmanager
def solving_caps_ahead(
    plan: Callable[[], list[tuple[ParametricCapSolver, float, float | None]]],
) -> Iterator[None]:
    """Solve a caller's coming ``(solver, cap_w, time_limit_s)`` solves
    ahead, on a helper thread, while the caller does other work.

    For a caller with other work between its solves (a serial scenario
    sweep runs the runtimes of each cell before its LP bound).  When
    another CPU is free, ``plan()`` lists the solves in the order the
    caller will make them, and one helper thread solves them in that
    order.  Each :meth:`ParametricCapSolver.solve` of a listed cap then
    takes its solve: it cancels it and solves on the calling thread if
    the helper has not started it, or waits for the helper's result.
    While it waits it does not idle: it solves the listed solves the
    helper has not started, from the last one back, until the helper's
    result is in (:meth:`_SolvesAhead.solve_until`), so the two threads
    meet in the middle of the list the way :meth:`~ParametricCapSolver.solve_many`'s
    do.  Either way the solve is recorded, decoded and cached on the
    calling thread when its cap asks for it, and every solve starts
    cold, so the results are the same bits.  A solve is taken once; a
    later solve of the same cap solves for itself.  The helper is joined
    when the block ends, unused solves are dropped, and the calling
    thread's HiGHS handle is freed with the helper's.  At width 1
    ``plan`` is never called, so nothing it would build is built.
    """
    if not helper_threads(1, busy_caller=True):
        yield
        return
    requests = plan()
    jobs = [
        (solver._frozen, {CAP_ROW_TAG: float(cap)}, time_limit_s)
        for solver, cap, time_limit_s in requests
    ]
    with solving_ahead(jobs, busy_caller=True) as futures:
        entries = []
        for (solver, cap, time_limit_s), future, job in zip(requests, futures, jobs):
            if future is not None:
                key = (float(cap), time_limit_s)
                solver._ahead[key] = future
                entries.append((solver, key, job))
        block = _SolvesAhead(entries)
        for solver, _, _ in requests:
            solver._ahead_block = block
        try:
            yield
        finally:
            for solver, _, _ in requests:
                solver._ahead.clear()
                solver._ahead_block = None
            # The handle this thread solved queued caps on goes with the
            # helper's, before solving_ahead hands their pages back.
            drop_thread_handle()


class _SolvesAhead:
    """The solves a :func:`solving_caps_ahead` block handed to its
    helper: ``(solver, (cap_w, time_limit_s), job)`` in the order the
    caller takes them."""

    def __init__(self, entries: list) -> None:
        self._entries = entries

    def solve_until(self, waited: Future) -> None:
        """Solve, on the calling thread, the block's solves that no
        helper has started, from the last one back, until ``waited`` is
        done.  Each one solved here replaces its future with a finished
        one, which its cap then takes like a helper's."""
        for solver, key, (program, rhs, time_limit_s) in reversed(self._entries):
            if waited.done():
                return
            queued = solver._ahead.get(key)
            if queued is None or queued.done() or not queued.cancel():
                continue  # taken, solved, or running on the helper
            solved: Future = Future()
            try:
                solved.set_result(
                    program._compute(*program._bounds_with(rhs), time_limit_s)
                )
            except Exception as exc:
                solved.set_exception(exc)
            solver._ahead[key] = solved


def _checked_caps(caps_w) -> list[float]:
    """``caps_w`` as floats; ValueError unless non-empty, finite, positive."""
    caps = [float(cap) for cap in caps_w]
    if not caps:
        raise ValueError("need at least one cap")
    for cap in caps:
        if not (math.isfinite(cap) and cap > 0):
            raise ValueError(f"cap must be finite and positive, got {cap}")
    return caps


def solve_cap_sweep(
    trace: Trace,
    caps_w: list[float] | tuple[float, ...],
    events: EventStructure | None = None,
    power_tiebreak: float = 1e-9,
    cache=None,
    instance: ProblemInstance | None = None,
) -> CapSweepResult:
    """Solve the fixed-order LP at every cap from one assembled model.

    The caps are solved concurrently by
    :meth:`ParametricCapSolver.solve_many`, with the same results as one
    cap after another.  ``cache`` (a :class:`repro.exec.SolverCache`)
    memoizes each cap's solution on disk by content address, so repeated
    sweeps over overlapping cap grids skip already-solved caps entirely.
    An empty list or a cap that is not finite and positive raises
    ``ValueError`` before anything is solved.
    """
    caps = _checked_caps(caps_w)
    solver = ParametricCapSolver(
        trace, events=events, power_tiebreak=power_tiebreak, instance=instance
    )
    return CapSweepResult(trace=trace, results=solver.solve_many(caps, cache=cache))


def minimum_feasible_cap(
    trace: Trace,
    lo_w: float,
    hi_w: float,
    tol_w: float = 0.25,
    events: EventStructure | None = None,
    cache=None,
    instance: ProblemInstance | None = None,
    solver: ParametricCapSolver | None = None,
) -> float | None:
    """Bisect for the smallest feasible job cap in [lo, hi].

    Returns None when even ``hi_w`` is infeasible.  Used by facility
    tooling to derive a job's ``min_w`` request from its trace.  The
    bisection re-solves one frozen model per probe and consults ``cache``
    (when given) before each solve, so a sweep's warm cache serves the
    bisection's endpoints for free.  Pass ``solver`` to reuse an already
    assembled :class:`ParametricCapSolver` (and observe its
    :attr:`~ParametricCapSolver.n_solves` afterwards).
    """
    if lo_w <= 0 or hi_w < lo_w or tol_w <= 0:
        raise ValueError("need 0 < lo <= hi and tol > 0")
    if solver is None:
        solver = ParametricCapSolver(trace, events=events, instance=instance)
    if not solver.solve(hi_w, cache=cache).feasible:
        return None
    if solver.solve(lo_w, cache=cache).feasible:
        return lo_w
    lo, hi = lo_w, hi_w  # lo infeasible, hi feasible
    while hi - lo > tol_w:
        mid = 0.5 * (lo + hi)
        if solver.solve(mid, cache=cache).feasible:
            hi = mid
        else:
            lo = mid
    return hi
