"""Efficient LP cap sweeps: assemble the model once, re-solve per cap.

The paper's Figures 9-15 solve the same trace under many power caps.  The
cap appears only in the RHS of the event-power rows, so the entire model
— variables, precedence, the hundreds of thousands of event-power
nonzeros — is cap-invariant: :class:`ParametricCapSolver` compiles and
freezes it once and re-solves with an updated RHS per cap.  The matrix
handed to HiGHS is identical to a from-scratch build at that cap, so the
results match the rebuild path exactly (see
``benchmarks/test_bench_sweep_parametric.py`` for the speedup and the
byte-identity assertion).  Every solve starts cold, so a sweep's caps are
solved on two threads at once with the same bits
(:meth:`ParametricCapSolver.solve_many`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..simulator.trace import Trace
from .events import EventStructure
from .fixed_order_lp import (
    FixedOrderLpResult,
    compile_fixed_order,
    solve_fixed_order_lp,
)
from .model import CAP_ROW_TAG, ProblemInstance, build_problem_instance, extract_schedule
from .solver import LpStatus

__all__ = [
    "CapSweepResult",
    "ParametricCapSolver",
    "solve_cap_sweep",
    "minimum_feasible_cap",
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
    :class:`repro.exec.SolverCache` with the same keys as
    :func:`~repro.exec.cache.cached_solve_fixed_order_lp`, so parametric
    and per-cap callers share warm entries.
    """

    def __init__(
        self,
        trace: Trace,
        events: EventStructure | None = None,
        power_tiebreak: float = 1e-9,
        instance: ProblemInstance | None = None,
    ) -> None:
        if instance is None:
            instance = build_problem_instance(trace, events=events)
        self.instance = instance
        self.power_tiebreak = float(power_tiebreak)
        # The placeholder cap never reaches the solver: every solve
        # overrides the tagged rows' RHS with its own cap.
        self._compiled = compile_fixed_order(
            instance, cap_w=1.0, power_tiebreak=power_tiebreak
        )
        self._frozen = self._compiled.freeze()

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

        Cache hits are served first.  The remaining caps are solved on up
        to two threads, one per CPU this process may run on (the
        caller's included): a helper thread solves them from the last cap
        backwards while the caller takes them in cap order, solving each
        one the helper has not started and waiting for the others.  Each
        cap passes through :meth:`FrozenProgram.solve` on the calling
        thread, which records it, and is then decoded and cached there.
        Every solve starts cold, so the results are bit-identical to one
        :meth:`solve` per cap.  The helper is joined before this returns.
        Raises ``ValueError`` for an empty list or a cap that is not a
        finite positive number, before anything is solved.
        """
        results: dict[float, FixedOrderLpResult | None] = dict.fromkeys(
            _checked_caps(caps_w)
        )
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
        misses = [cap for cap, result in results.items() if result is None]
        rhs_list = [{CAP_ROW_TAG: cap} for cap in misses]
        with self._frozen._solving_ahead(rhs_list, time_limit_s) as ahead:
            for cap, rhs, pending in zip(misses, rhs_list, ahead):
                solution = self._frozen.solve(time_limit_s, rhs, ahead=pending)
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
    parametric: bool = True,
) -> CapSweepResult:
    """Solve the fixed-order LP at every cap from one assembled model.

    The caps are solved concurrently by
    :meth:`ParametricCapSolver.solve_many`, with the same results as one
    cap after another.  ``cache`` (a :class:`repro.exec.SolverCache`)
    memoizes each cap's solution on disk by content address, so repeated
    sweeps over overlapping cap grids skip already-solved caps entirely.
    An empty list or a cap that is not finite and positive raises
    ``ValueError`` before anything is solved.

    ``parametric=False`` falls back to a full per-cap rebuild — every cap
    pays trace -> events -> IR -> LP compilation -> matrix assembly again
    (unless the caller hands in ``events``/``instance``, which are then
    shared as given).  The results are identical (the benchmark asserts
    it); the flag exists as the comparison baseline and as an escape
    hatch.
    """
    caps = _checked_caps(caps_w)
    if parametric:
        solver = ParametricCapSolver(
            trace, events=events, power_tiebreak=power_tiebreak,
            instance=instance,
        )
        return CapSweepResult(
            trace=trace, results=solver.solve_many(caps, cache=cache)
        )

    if cache is not None:
        from ..exec.cache import cached_solve_fixed_order_lp

        solve = functools.partial(cached_solve_fixed_order_lp, cache=cache)
    else:
        solve = solve_fixed_order_lp
    results = {
        cap: solve(
            trace,
            cap,
            events=events,
            power_tiebreak=power_tiebreak,
            instance=instance,
        )
        for cap in caps
    }
    return CapSweepResult(trace=trace, results=results)


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
