"""Tests for configuration-selection-only (no reallocation) — paper §6."""

import pytest

from repro.machine import sample_socket_efficiencies, SocketPowerModel
from repro.runtime import (
    ConductorConfig,
    ConductorPolicy,
    SelectionOnlyPolicy,
    StaticPolicy,
)
from repro.simulator import Engine, TaskRef, job_power_timeline
from repro.workloads import WorkloadSpec, imbalanced_collective_app, make_lulesh

from .apps import kernel_app


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


class TestSelectionOnlyPolicy:
    def test_validation(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=2)
        with pytest.raises(ValueError):
            SelectionOnlyPolicy(models, 0.0, app)

    def test_uniform_budget(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=2)
        policy = SelectionOnlyPolicy(models, 120.0, app)
        assert policy.budget_w == pytest.approx(30.0)

    def test_no_pcontrol_overhead(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=2)
        policy = SelectionOnlyPolicy(models, 120.0, app)
        assert policy.on_pcontrol(0, []) == 0.0

    def test_respects_budget(self, models, kernel):
        app = kernel_app(kernel, iterations=2)
        policy = SelectionOnlyPolicy(models, 120.0, app)
        cfg = policy.configure(TaskRef(0, 0), kernel, 0, None)
        power = models[0].power(cfg.freq_ghz, cfg.threads, kernel.activity,
                                kernel.mem_intensity, cfg.duty)
        assert power <= 30.0 + 1e-9 or cfg.duty < 1.0

    def test_job_cap_respected(self, models):
        app = imbalanced_collective_app(n_ranks=4, iterations=6)
        policy = SelectionOnlyPolicy(models, 120.0, app)
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
        t_sel = engine.run(
            app, SelectionOnlyPolicy(models, job_cap, app)
        ).makespan_s
        assert t_sel < t_static * 0.9  # >10% from thread choice alone

    def test_reallocation_needed_for_imbalance(self, models):
        """An imbalanced app: Conductor (with reallocation) beats
        selection-only in steady state."""
        app = imbalanced_collective_app(n_ranks=4, iterations=16, spread=1.6)
        engine = Engine(models)
        job_cap = 4 * 28.0
        res_sel = engine.run(app, SelectionOnlyPolicy(models, job_cap, app))
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
