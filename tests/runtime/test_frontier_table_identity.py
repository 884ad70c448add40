"""Table-reading runtimes make the per-kernel runtimes' decisions.

Conductor, and Adagio and selection-only as its configurations, read
each task's hull from a frontier table by (rank, seq) and pick points
with an array count and a first-fit scan.  Run against :mod:`.list_policies` — the same policies
deciding from per-kernel ``ConfigPoint`` lists — every task record and
every trace event, reallocations included, must be identical.
"""

from dataclasses import replace

import pytest

from repro.machine.variability import make_power_models
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from repro.simulator import ComputeOp, Engine
from repro.workloads import WorkloadSpec, make_bt, make_comd, make_sp

from ..simulator.oracles import run_scalar
from .list_policies import ListAdagio, ListConductor, ListSelectionOnly

N_RANKS = 4
MAKERS = {"comd": make_comd, "bt": make_bt, "sp": make_sp}


def app_for(name, iterations=12):
    return MAKERS[name](WorkloadSpec(n_ranks=N_RANKS, iterations=iterations, seed=3))


def run(app, policy, pms):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        result = Engine(pms).run(app, policy)
    return result.records, recorder.snapshot()


def assert_same_run(app, pms, table_policy, list_policy):
    records, events = run(app, table_policy, pms)
    want_records, want_events = run(app, list_policy, pms)
    assert records == want_records
    assert events == want_events
    return events


CONDUCTORS = {
    "default": ConductorConfig(),
    "every-pcontrol": ConductorConfig(
        exploration_iterations=2, realloc_period=1, step_w=4.0, seed=4
    ),
}


@pytest.mark.parametrize("bench", sorted(MAKERS))
@pytest.mark.parametrize("cfg", sorted(CONDUCTORS))
@pytest.mark.parametrize("cap_per_socket", [10.0, 45.0, 70.0])
def test_conductor(bench, cfg, cap_per_socket):
    app, pms = app_for(bench), make_power_models(N_RANKS, 11)
    cap, config = cap_per_socket * N_RANKS, CONDUCTORS[cfg]
    events = assert_same_run(
        app, pms,
        ConductorPolicy(pms, cap, app, config=config),
        ListConductor(pms, cap, app, config=config),
    )
    assert any(e["kind"] == "realloc" for e in events)


@pytest.mark.parametrize("bench", sorted(MAKERS))
def test_adagio(bench):
    app, pms = app_for(bench), make_power_models(N_RANKS, 11)
    assert_same_run(
        app, pms, ConductorPolicy.adagio(pms, app), ListAdagio(pms, app)
    )


@pytest.mark.parametrize("bench", sorted(MAKERS))
@pytest.mark.parametrize("cap_per_socket", [10.0, 45.0])
def test_selection_only(bench, cap_per_socket):
    app, pms = app_for(bench), make_power_models(N_RANKS, 11)
    cap = cap_per_socket * N_RANKS
    assert_same_run(
        app, pms,
        ConductorPolicy.selection_only(pms, cap, app),
        ListSelectionOnly(pms, cap, app),
    )


def test_budget_below_the_cheapest_point_falls_back_to_rapl():
    app, pms = app_for("comd", iterations=6), make_power_models(N_RANKS, 11)
    policy = ConductorPolicy(pms, 10.0 * N_RANKS, app)
    cheapest = min(
        prof.hull_powers[0] for row in policy.table._profiles for prof in row
    )
    assert cheapest > 10.0
    records, _ = run(app, policy, pms)
    steady = [r for r in records if r.iteration >= 3]
    assert steady and all(r.config.duty < 1.0 for r in steady)


@pytest.mark.parametrize(
    "build",
    [
        lambda pms, app: ConductorPolicy(pms, 50.0 * N_RANKS, app),
        lambda pms, app: ConductorPolicy.adagio(pms, app),
        lambda pms, app: ConductorPolicy.selection_only(pms, 50.0 * N_RANKS, app),
    ],
    ids=["conductor", "adagio", "selection-only"],
)
def test_a_policy_built_for_another_app_raises(build):
    pms = make_power_models(N_RANKS, 11)
    policy = build(pms, app_for("comd"))
    with pytest.raises(ValueError, match="another application"):
        Engine(pms).run(app_for("bt"), policy)


def test_a_program_changed_after_a_run_is_read_again():
    """Kernel arrays and tables follow the programs: a kernel replaced
    after a first run is the one the next plan and table read."""
    app, pms = app_for("comd", iterations=6), make_power_models(N_RANKS, 11)
    engine = Engine(pms)
    engine.run(app, StaticPolicy(pms, 50.0 * N_RANKS))
    engine.run(app, ConductorPolicy(pms, 50.0 * N_RANKS, app))
    prog = app.programs[0]
    k = next(i for i, op in enumerate(prog) if isinstance(op, ComputeOp))
    prog[k] = replace(prog[k], kernel=prog[k].kernel.scaled(3.0))
    static = StaticPolicy(pms, 50.0 * N_RANKS)
    assert engine.run(app, static).records == run_scalar(engine, app, static).records
    assert_same_run(
        app, pms,
        ConductorPolicy(pms, 50.0 * N_RANKS, app),
        ListConductor(pms, 50.0 * N_RANKS, app),
    )
