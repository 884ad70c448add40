"""Parametric cap-sweep benchmark: one assembled model, many caps.

The paper's Figures 9-15 re-solve the same trace at dozens of caps.  A
loop of one-cap :func:`repro.core.solve_fixed_order_lp` calls pays trace
-> events -> IR -> LP compilation -> sparse assembly at every cap; a
sweep (:class:`repro.core.ParametricCapSolver`) pays them once and
re-solves with an updated RHS.  This benchmark pins both properties:

* **speed** — the parametric dense sweep is at least 2x faster than the
  per-cap loop on the same grid (measured as min over interleaved
  repetitions, alternating which path runs first, so a scheduler hiccup
  on either side cannot fake or mask the speedup);
* **identity** — both return byte-identical makespans and primal
  vectors, and so does the rebuild oracle (``tests/core/lp_oracles.py``):
  the model handed to HiGHS is the same, and HiGHS is deterministic.
"""

import time

import numpy as np

from repro.core import (
    CapSweepResult,
    ParametricCapSolver,
    round_schedule,
    solve_cap_sweep,
    solve_fixed_order_lp,
)
from repro.experiments.runner import make_power_models
from repro.simulator import replay_schedule_sweep, trace_application
from repro.simulator.engine import Engine
from repro.simulator.replay import ReplayPolicy
from repro.workloads import WorkloadSpec, make_bt
from tests.core.lp_oracles import solve_fixed_order_lp_reference
from tests.core.rounding_oracles import round_schedule_reference
from tests.simulator.oracles import job_power_timeline_reference, run_scalar

#: Dense grid, as in a production figure sweep.
N_CAPS = 50
#: Interleaved timing repetitions per path.  The speedup is a ratio of
#: minima, so more repetitions only make it steadier: with three, one
#: read 1.98x on a loaded two-vCPU host.
N_REPS = 7


def _bt_trace(n_ranks=8, iterations=2):
    app = make_bt(WorkloadSpec(n_ranks=n_ranks, iterations=iterations, seed=1))
    return trace_application(app, make_power_models(n_ranks))


def _cap_grid(n_ranks=8):
    return [float(c) * n_ranks for c in np.linspace(22.0, 70.0, N_CAPS)]


def _per_cap_sweep(trace, caps):
    """The baseline: one :func:`solve_fixed_order_lp` call per cap, each
    assembling its own model."""
    return CapSweepResult(
        trace=trace, results={cap: solve_fixed_order_lp(trace, cap) for cap in caps}
    )


def test_parametric_sweep_2x_and_byte_identical(benchmark):
    trace = _bt_trace()
    caps = _cap_grid()

    times = {False: [], True: []}
    results = {}
    for rep in range(N_REPS):
        # Alternate which path goes first, so a slow stretch of the host
        # does not always land on the same side.
        for parametric in (rep % 2 == 1, rep % 2 == 0):
            sweep = solve_cap_sweep if parametric else _per_cap_sweep
            t0 = time.perf_counter()
            results[parametric] = sweep(trace, caps)
            times[parametric].append(time.perf_counter() - t0)
    rebuild, parametric = results[False], results[True]
    t_rebuild, t_parametric = times[False], times[True]

    # Identity first: same feasibility verdicts, bit-equal makespans and
    # primal vectors at every cap, for the per-cap loop and the oracle.
    assert parametric.makespans() == rebuild.makespans()
    for cap in caps:
        a, b = parametric.results[cap], rebuild.results[cap]
        oracle = solve_fixed_order_lp_reference(trace, cap)
        assert np.array_equal(a.solution.x, b.solution.x)
        assert np.array_equal(a.solution.x, oracle.solution.x)

    speedup = min(t_rebuild) / min(t_parametric)
    assert speedup >= 2.0, (
        f"parametric sweep only {speedup:.2f}x faster "
        f"({min(t_parametric):.2f}s vs {min(t_rebuild):.2f}s per-cap)"
    )

    # Record the parametric path for the regression baseline.
    result = benchmark.pedantic(
        solve_cap_sweep, args=(trace, caps), rounds=1, iterations=1
    )
    assert result.feasible_caps()


def _assignment(disc):
    return {ref: a.mixture[0][0].config for ref, a in disc.assignments.items()}


def _ref_pipeline(trace, app_run, pms, caps):
    """Baseline: per-cap rebuild with the row-by-row LP assembly and
    per-task decode oracles, per-frontier rounding with the scalar ASAP
    re-timing, scalar replay, reference timeline accounting.  One ``(lp
    makespan, replay makespan, peak W)`` tuple per cap, ``None`` where the
    LP is infeasible."""
    out = []
    for cap in caps:
        lp = solve_fixed_order_lp_reference(trace, cap)
        if not lp.feasible:
            out.append(None)
            continue
        asg = _assignment(round_schedule_reference(trace, lp.schedule))
        result = run_scalar(Engine(pms), app_run, ReplayPolicy(asg))
        tl = job_power_timeline_reference(result, pms)
        out.append((lp.makespan_s, result.makespan_s, tl.max_power()))
    return out


def _vec_pipeline(trace, app_run, pms, caps):
    """Vectorized path: parametric LP re-solves, one sweep-batched replay
    for every feasible cap, array-built timelines."""
    solver = ParametricCapSolver(trace)
    asgs, kept, lp_mk = [], [], {}
    for cap in caps:
        lp = solver.solve(cap)
        if not lp.feasible:
            lp_mk[cap] = None
            continue
        lp_mk[cap] = lp.makespan_s
        asgs.append(_assignment(round_schedule(trace, lp.schedule)))
        kept.append(cap)
    outcomes = replay_schedule_sweep(app_run, asgs, pms, kept)
    out, i = [], 0
    for cap in caps:
        if lp_mk[cap] is None:
            out.append(None)
            continue
        o = outcomes[i]
        i += 1
        out.append((lp_mk[cap], o.result.makespan_s, o.peak_power_w))
    return out


def test_end_to_end_sweep_3x_and_byte_identical(benchmark):
    """Full figure-sweep pipeline (LP solve -> rounding -> replay ->
    power verification) at 50 caps: the vectorized composition must be at
    least 3x faster than the per-cap oracle baseline and produce
    byte-identical results at every cap.

    The LP is solved on a short trace (the paper's profiling run) while
    the replay executes a longer production run of the same workload, so
    the replay/accounting side carries realistic weight next to the
    solver floor (HiGHS deliberately cold-starts each re-solve to keep
    parametric results bit-identical; that floor is shared by both
    paths).
    """
    n_ranks = 8
    app_lp = make_bt(WorkloadSpec(n_ranks=n_ranks, iterations=2, seed=1))
    app_run = make_bt(WorkloadSpec(n_ranks=n_ranks, iterations=60, seed=1))
    pms = make_power_models(n_ranks)
    trace = trace_application(app_lp, pms)
    caps = _cap_grid(n_ranks)

    # Warm model/solver caches so neither path pays first-touch costs.
    _ref_pipeline(trace, app_run, pms, caps[:2])
    _vec_pipeline(trace, app_run, pms, caps[:2])

    t_ref, t_vec = [], []
    ref = vec = None
    for _ in range(N_REPS):
        t0 = time.perf_counter()
        ref = _ref_pipeline(trace, app_run, pms, caps)
        t_ref.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        vec = _vec_pipeline(trace, app_run, pms, caps)
        t_vec.append(time.perf_counter() - t0)

    # Identity first: same feasibility pattern, bit-equal LP makespans,
    # replay makespans, and peak powers at every cap.
    assert len(ref) == len(vec) == N_CAPS
    for cap, a, b in zip(caps, ref, vec):
        assert a == b, f"cap {cap}: ref={a} vec={b}"

    speedup = min(t_ref) / min(t_vec)
    assert speedup >= 3.0, (
        f"end-to-end sweep only {speedup:.2f}x faster "
        f"({min(t_vec):.2f}s vs {min(t_ref):.2f}s baseline)"
    )

    # Record the vectorized pipeline for the regression baseline.
    result = benchmark.pedantic(
        _vec_pipeline, args=(trace, app_run, pms, caps), rounds=1, iterations=1
    )
    assert any(r is not None for r in result)


def test_parametric_solver_reuse(benchmark):
    """Per-cap cost on an already-frozen model (the sweep's steady state)."""
    trace = _bt_trace()
    solver = ParametricCapSolver(trace)
    solver.solve(400.0)  # warm: first HiGHS call passes the model once
    calls = 0

    def counted_solve(cap_w):
        nonlocal calls
        calls += 1
        return solver.solve(cap_w)

    # pedantic runs 3 rounds when timing and once under
    # --benchmark-disable; count the calls it actually made.
    result = benchmark.pedantic(
        counted_solve, args=(320.0,), rounds=3, iterations=1
    )
    assert result.feasible
    assert calls >= 1
    assert solver.n_solves == 1 + calls
