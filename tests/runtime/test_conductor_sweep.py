"""Conductor planned interval by interval == Conductor decided task by task.

``ConductorPlanner`` plans each Pcontrol interval for every job cap at
once; ``ConductorPolicy`` is the planner at one cap.  Both must make the
per-task reference runtime's decisions (``.conductor_oracle``), record
for record: the same configurations, floats, switches, barrier overheads
and reallocations, and at one cap under a recorder the same trace events
in the same order.  The cases cover every branch of the planner:
exploration, the RAPL fallback below the cheapest hull point, Adagio
slack, the 1 ms switch rule holding a rank's configuration across a
barrier, and noisy and noiseless measurements.

The selection-only and Adagio configurations are held to their own
per-task oracles (``.selection_oracle``) the same way, swept and at one
cap.  Uncapped, every point of a hull fits, but not the +inf padding
after a shorter hull: comd's hulls differ in length, and a padding point
counted as fitting anchors Adagio's slack budget at an infinite duration.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.machine.variability import make_power_models
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.runtime import ConductorConfig, ConductorPolicy
from repro.runtime.conductor import ConductorPlanner
from repro.simulator import ComputeOp, Engine, PcontrolOp
from repro.workloads import (
    WorkloadSpec,
    make_bt,
    make_comd,
    make_lulesh,
    make_sp,
    random_application,
)

from .apps import reverse_pipeline_app
from .conductor_oracle import ScalarConductor
from .selection_oracle import ScalarAdagio, ScalarSelectionOnly

#: Per-socket caps: 9 W is below every task's cheapest hull point.
CAPS_PER_SOCKET = (9.0, 25.0, 45.0, 70.0)
CONFIGS = {
    "default": ConductorConfig(),
    "every-barrier": ConductorConfig(
        exploration_iterations=1, realloc_period=1, step_w=1e6,
        measurement_noise=0.0, seed=0,
    ),
    # Every task runs shorter than 10 s: each rank holds its first
    # configuration through every later interval.
    "always-hold": ConductorConfig(
        min_switch_duration_s=10.0, realloc_period=2, exploration_iterations=2,
    ),
    "never-hold": ConductorConfig(
        min_switch_duration_s=0.0, realloc_period=3, measurement_noise=0.1,
        seed=7,
    ),
}


def same_run(point, run) -> None:
    assert point.records == run.records
    assert point.makespan_s == run.makespan_s
    assert point.dvfs_switch_count == run.dvfs_switch_count
    assert point.pcontrol_overhead_s == run.pcontrol_overhead_s


def assert_sweep_is_scalar(app, pms, job_caps, config) -> None:
    engine = Engine(pms)
    planner = ConductorPlanner(pms, job_caps, app, config=config)
    outcome = engine.run_sweep(app, planner, planner.sweep_plan(engine))
    for c, job_cap in enumerate(job_caps):
        reference = ScalarConductor(pms, job_cap, app, config=config)
        policy = ConductorPolicy(pms, job_cap, app, config=config)
        runs = []
        for p in (reference, policy):
            recorder = TraceRecorder()
            with use_recorder(recorder):
                runs.append((engine.run(app, p), recorder.snapshot()))
        (want, want_events), (got, got_events) = runs
        same_run(outcome.result(c), want)
        same_run(got, want)
        assert got_events == want_events
        assert planner.realloc_count == policy.realloc_count == reference.realloc_count
        assert [list(a) for a in policy.alloc_history] == [
            list(a) for a in reference.alloc_history
        ]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize(
    "make,n_ranks",
    [(make_comd, 4), (make_bt, 4), (make_bt, 1), ("reverse-pipeline", 3)],
    ids=["comd-4", "bt-4", "bt-1", "reverse-pipeline-3"],
)
def test_sweep_points_are_the_scalar_runs(config, make, n_ranks, kernel):
    if make == "reverse-pipeline":
        # Measurement errors are drawn rank by rank in the order the
        # ranks first ran in the interval, here not rank order.
        app = reverse_pipeline_app(kernel, n_ranks)
    else:
        app = make(WorkloadSpec(n_ranks=n_ranks, iterations=9, seed=5))
    pms = make_power_models(n_ranks, 11)
    job_caps = [cap * n_ranks for cap in CAPS_PER_SOCKET]
    assert_sweep_is_scalar(app, pms, job_caps, CONFIGS[config])


@settings(max_examples=15, deadline=None)
@given(
    n_ranks=st.integers(1, 4),
    iterations=st.integers(1, 7),
    app_seed=st.integers(0, 10_000),
    caps=st.lists(st.floats(8.0, 90.0), min_size=1, max_size=4),
    explore=st.integers(0, 3),
    period=st.integers(1, 4),
    noise=st.sampled_from([0.0, 0.02, 0.2]),
    hold_s=st.sampled_from([0.0, 1e-3, 0.05, 10.0]),
    seed=st.integers(0, 100),
)
def test_random_programs_and_caps(
    n_ranks, iterations, app_seed, caps, explore, period, noise, hold_s, seed
):
    app = random_application(
        n_ranks=n_ranks, iterations=iterations, seed=app_seed, p_p2p=0.5
    )
    pms = make_power_models(n_ranks, 3)
    config = ConductorConfig(
        exploration_iterations=explore, realloc_period=period, step_w=3.0,
        measurement_noise=noise, min_switch_duration_s=hold_s, seed=seed,
    )
    assert_sweep_is_scalar(app, pms, [cap * n_ranks for cap in caps], config)


def test_a_sweep_plan_fills_each_interval_at_its_barrier():
    """Before the walk only the first interval's rows are planned; after
    it every row is, and the plan's column is the scalar policy's."""
    app = make_comd(WorkloadSpec(n_ranks=4, iterations=6, seed=5))
    pms = make_power_models(4, 11)
    engine = Engine(pms)
    planner = ConductorPlanner(pms, [160.0, 240.0], app)
    plan = planner.sweep_plan(engine)
    rows = plan.ranks[0].configs
    prog = app.programs[0]
    cut = next(i for i, op in enumerate(prog) if isinstance(op, PcontrolOp))
    first = sum(isinstance(op, ComputeOp) for op in prog[:cut])
    assert all(cfg is not None for cfg in rows[:first].ravel())
    assert all(cfg is None for cfg in rows[first:].ravel())
    engine.run_sweep(app, planner, plan)
    assert all(cfg is not None for cfg in rows.ravel())
    result = engine.run(app, ConductorPolicy(pms, 240.0, app))
    assert [r.config for r in result.records_by_rank()[0]] == list(rows[:, 1])


def test_a_planner_needs_positive_caps():
    app = make_comd(WorkloadSpec(n_ranks=2, iterations=3, seed=5))
    pms = make_power_models(2, 11)
    with pytest.raises(ValueError, match="at least one job cap"):
        ConductorPlanner(pms, [], app)
    with pytest.raises(ValueError, match="must be positive"):
        ConductorPlanner(pms, [80.0, 0.0], app)
    with pytest.raises(ValueError, match="must be positive"):
        ConductorPolicy(pms, -1.0, app)


# ----------------------------------------------------------------------
#: The Conductor configurations of the other barrier-deciding runtimes:
#: each with the policy's classmethod and its per-task oracle, at a cap.
ABLATIONS = {
    "selection-only": (
        lambda pms, cap, app: ConductorPolicy.selection_only(pms, cap, app),
        ScalarSelectionOnly,
    ),
    "adagio": (
        lambda pms, cap, app: ConductorPolicy.adagio(pms, app),
        lambda pms, cap, app: ScalarAdagio(pms, app),
    ),
}


def assert_ablation_sweep_is_scalar(app, pms, job_caps, name) -> None:
    build, oracle = ABLATIONS[name]
    # Adagio runs uncapped at every point, as its registry sweep does.
    caps = job_caps if name == "selection-only" else [math.inf] * len(job_caps)
    engine = Engine(pms)
    planner = ConductorPlanner(
        pms, caps, app, config=ConductorConfig.selection_only()
    )
    outcome = engine.run_sweep(app, planner, planner.sweep_plan(engine))
    assert planner.realloc_count is None
    for c, job_cap in enumerate(job_caps):
        policy = build(pms, job_cap, app)
        runs = []
        for p in (oracle(pms, job_cap, app), policy):
            recorder = TraceRecorder()
            with use_recorder(recorder):
                runs.append((engine.run(app, p), recorder.snapshot()))
        (want, want_events), (got, got_events) = runs
        same_run(outcome.result(c), want)
        same_run(got, want)
        assert got_events == want_events
        assert got.pcontrol_overhead_s == 0.0
        assert policy.realloc_count is None and policy.alloc_history == []


@pytest.mark.parametrize("name", sorted(ABLATIONS))
@pytest.mark.parametrize(
    "make,n_ranks",
    [
        (make_comd, 4), (make_bt, 4), (make_sp, 4), (make_lulesh, 4),
        (make_bt, 1),
    ],
    ids=["comd-4", "bt-4", "sp-4", "lulesh-4", "bt-1"],
)
def test_ablation_sweep_points_are_the_scalar_runs(name, make, n_ranks):
    app = make(WorkloadSpec(n_ranks=n_ranks, iterations=9, seed=5))
    pms = make_power_models(n_ranks, 11)
    job_caps = [cap * n_ranks for cap in CAPS_PER_SOCKET]
    assert_ablation_sweep_is_scalar(app, pms, job_caps, name)


@settings(max_examples=10, deadline=None)
@given(
    n_ranks=st.integers(1, 4),
    iterations=st.integers(1, 7),
    app_seed=st.integers(0, 10_000),
    caps=st.lists(st.floats(8.0, 90.0), min_size=1, max_size=4),
    name=st.sampled_from(sorted(ABLATIONS)),
)
def test_ablation_random_programs_and_caps(n_ranks, iterations, app_seed, caps, name):
    app = random_application(
        n_ranks=n_ranks, iterations=iterations, seed=app_seed, p_p2p=0.5
    )
    pms = make_power_models(n_ranks, 3)
    assert_ablation_sweep_is_scalar(
        app, pms, [cap * n_ranks for cap in caps], name
    )
