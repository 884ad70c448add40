"""Tests for configuration-selection-only (no reallocation) — paper §6."""

import numpy as np
import pytest

from repro.machine import FrontierStore, sample_socket_efficiencies, SocketPowerModel
from repro.runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from repro.scenarios.registry import PolicyContext, default_registry
from repro.simulator import Engine, TaskRef, job_power_timeline
from repro.workloads import WorkloadSpec, imbalanced_collective_app, make_lulesh

from .apps import kernel_app

SelectionOnly = ConductorPolicy.selection_only

#: Knobs the ablation's config rejects, each as a selection-only
#: override (the registry's keys and the classmethod's arguments).
INVALID = [
    {"adagio_safety": -0.1},
    {"adagio_safety": 1.5},
    {"switch_overhead_s": -1e-6},
    {"min_switch_duration_s": -1e-3},
]


def registry_build(name, models, job_cap_w, app, overrides):
    """The registry entry's policy for one cell (its build reads only
    the machine, the cap, the application and the frontier store)."""
    entry = default_registry().get(name)
    ctx = PolicyContext(
        power_models=models, job_cap_w=job_cap_w, app=app,
        frontier_store=FrontierStore(models), trace=None, instance=None,
        cache=None, lp_iterations=1, cap_solvers={},
    )
    return entry.build(ctx, entry.resolve_config(overrides))


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


class TestSelectionOnlyPolicy:
    def test_validation(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=2)
        with pytest.raises(ValueError):
            SelectionOnly(models, 0.0, app)
        with pytest.raises(ValueError):
            registry_build("selection-only", models, 0.0, app, {})
        for overrides in INVALID:
            with pytest.raises(ValueError):
                SelectionOnly(models, 120.0, app, **overrides)
            with pytest.raises(ValueError):
                registry_build("selection-only", models, 120.0, app, overrides)

    def test_uniform_budget(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=2)
        policy = SelectionOnly(models, 120.0, app)
        np.testing.assert_allclose(policy.alloc_w, 30.0)

    def test_no_pcontrol_overhead(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=12)
        policy = SelectionOnly(models, 120.0, app)
        assert policy.on_pcontrol(0, []) == 0.0
        res = Engine(models).run(app, SelectionOnly(models, 120.0, app))
        assert res.pcontrol_overhead_s == 0.0
        assert policy.realloc_count is None  # never reallocates

    def test_respects_budget(self, models, kernel):
        app = kernel_app(kernel, iterations=2)
        policy = SelectionOnly(models, 120.0, app)
        cfg = policy.configure(TaskRef(0, 0), kernel, 0, None)
        power = models[0].power(cfg.freq_ghz, cfg.threads, kernel.activity,
                                kernel.mem_intensity, cfg.duty)
        assert power <= 30.0 + 1e-9 or cfg.duty < 1.0

    def test_job_cap_respected(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=6)
        policy = SelectionOnly(models, 120.0, app)
        res = Engine(models).run(app, policy)
        tl = job_power_timeline(res, models, slack_mode="idle")
        assert tl.max_power() <= 120.0 * 1.001


class TestSelectionVsConductor:
    """Paper §6: selection-only has lower overhead but lower performance
    than Conductor — the difference is the reallocation step."""

    def test_selection_captures_lulesh_gain(self, models):
        """LULESH's gain is thread selection: selection-only gets it."""
        spec = WorkloadSpec(n_ranks=4, iterations=8, seed=3)
        app = make_lulesh(spec)
        engine = Engine(models)
        job_cap = 4 * 50.0
        t_static = engine.run(app, StaticPolicy(models, job_cap)).makespan_s
        t_sel = engine.run(app, SelectionOnly(models, job_cap, app)).makespan_s
        assert t_sel < t_static * 0.9  # >10% from thread choice alone

    def test_reallocation_needed_for_imbalance(self, models):
        """An imbalanced app: Conductor (with reallocation) beats
        selection-only in steady state."""
        app = imbalanced_collective_app(n_ranks=4, iterations=16, spread=1.6)
        engine = Engine(models)
        job_cap = 4 * 28.0
        res_sel = engine.run(app, SelectionOnly(models, job_cap, app))
        cond = ConductorPolicy(
            models, job_cap, app,
            config=ConductorConfig(realloc_period=2, step_w=4.0,
                                   measurement_noise=0.0),
        )
        res_cond = engine.run(app, cond)

        def tail(res):
            start = min(
                r.start_s for r in res.records if r.iteration >= 10
            )
            return res.makespan_s - start

        assert tail(res_cond) < tail(res_sel)
