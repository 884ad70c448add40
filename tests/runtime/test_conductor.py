"""Unit and behavioral tests for the Conductor runtime."""

import dataclasses

import numpy as np
import pytest

from repro.machine import sample_socket_efficiencies, SocketPowerModel
from repro.runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from repro.simulator import Engine, TaskRef, job_power_timeline
from repro.workloads import imbalanced_collective_app

from .apps import kernel_app

FAST_CONDUCTOR = ConductorConfig(
    exploration_iterations=2, realloc_period=1, step_w=4.0,
    measurement_noise=0.0, seed=1,
)


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


@pytest.fixture
def app():
    return imbalanced_collective_app(n_ranks=4, iterations=12, spread=1.6)


class TestConductorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"exploration_iterations": -1},
            {"realloc_period": 0},
            {"step_w": 0.0},
            {"receiver_fraction": 0.0},
            {"measurement_noise": -0.1},
            {"switch_overhead_s": -0.5},
            {"realloc_overhead_s": -1e-6},
            {"min_switch_duration_s": -1e-3},
            {"donor_margin_w": -0.5},
            {"adagio_safety": -3.0},
            {"adagio_safety": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConductorConfig(**kwargs)

    def test_no_realloc_period_never_reallocates(self, models, app):
        config = dataclasses.replace(FAST_CONDUCTOR, realloc_period=None)
        policy = ConductorPolicy(models, 120.0, app, config=config)
        res = Engine(models).run(app, policy)
        assert policy.realloc_count is None and policy.alloc_history == []
        assert res.pcontrol_overhead_s == 0.0
        np.testing.assert_allclose(policy.alloc_w, 30.0)


class TestConductorPolicy:
    def test_initial_allocation_uniform(self, models, app):
        policy = ConductorPolicy(models, 120.0, app)
        np.testing.assert_allclose(policy.alloc_w, 30.0)

    def test_invalid_cap(self, models, app):
        with pytest.raises(ValueError):
            ConductorPolicy(models, 0.0, app)

    def test_exploration_configs_heterogeneous(self, models, kernel):
        app = kernel_app(kernel)
        policy = ConductorPolicy(models, 120.0, app, config=FAST_CONDUCTOR)
        cfgs = {
            policy.configure(TaskRef(r, 0), kernel, 0, None)
            for r in range(4)
        }
        assert len(cfgs) > 1  # different ranks profile different configs

    def test_exploration_respects_budget(self, models, kernel):
        app = kernel_app(kernel)
        policy = ConductorPolicy(models, 120.0, app, config=FAST_CONDUCTOR)
        for r in range(4):
            cfg = policy.configure(TaskRef(r, 0), kernel, 0, None)
            power = models[r].power(
                cfg.freq_ghz, cfg.threads, kernel.activity,
                kernel.mem_intensity, cfg.duty,
            )
            assert power <= policy.alloc_w[r] * 1.001 or cfg.duty < 1.0

    def test_steady_state_fastest_under_budget(self, models, kernel):
        app = kernel_app(kernel)
        steady = dataclasses.replace(FAST_CONDUCTOR, exploration_iterations=0)
        policy = ConductorPolicy(models, 120.0, app, config=steady)
        cfg = policy.configure(TaskRef(0, 0), kernel, 0, None)
        frontier = policy.frontiers.convex(0, kernel)
        budget = policy.alloc_w[0]
        fits = [p for p in frontier if p.power_w <= budget]
        assert cfg == fits[-1].config  # no slack info yet -> fastest

    def test_rapl_fallback_below_frontier(self, models, kernel):
        app = kernel_app(kernel)
        steady = dataclasses.replace(FAST_CONDUCTOR, exploration_iterations=0)
        # 8 W per rank: below any frontier point.
        policy = ConductorPolicy(models, 4 * 8.0, app, config=steady)
        assert (policy.alloc_w == 8.0).all()
        cfg = policy.configure(TaskRef(0, 0), kernel, 0, None)
        assert cfg.effective_freq_ghz <= 1.2

    def test_switch_cost(self, models, app):
        policy = ConductorPolicy(models, 120.0, app)
        assert policy.switch_cost_s() == pytest.approx(145e-6)


class TestConductorEndToEnd:
    def test_allocations_conserve_cap(self, models, app):
        job_cap = 120.0
        policy = ConductorPolicy(models, job_cap, app, config=FAST_CONDUCTOR)
        Engine(models).run(app, policy)
        assert policy.realloc_count > 0
        for alloc in policy.alloc_history:
            assert alloc.sum() <= job_cap + 1e-6
            assert (alloc > 0).all()

    def test_power_shifts_toward_heavy_ranks(self, models, app):
        policy = ConductorPolicy(models, 120.0, app, config=FAST_CONDUCTOR)
        res = Engine(models).run(app, policy)
        # Heaviest rank by total work:
        busy = np.zeros(4)
        for r in res.records:
            if r.iteration >= 8:
                busy[r.ref.rank] += r.duration_s * r.power_w
        heavy = int(np.argmax([
            sum(rec.duration_s for rec in res.records
                if rec.ref.rank == r and rec.iteration == 11)
            for r in range(4)
        ]))
        final = policy.alloc_w
        assert final[heavy] >= np.median(final) - 1e-9

    def test_beats_static_on_imbalanced_app(self, models, app):
        job_cap = 4 * 28.0
        engine = Engine(models)
        engine.run(app, StaticPolicy(models, job_cap))
        policy = ConductorPolicy(models, job_cap, app, config=FAST_CONDUCTOR)
        res = engine.run(app, policy)
        # Compare the last few iterations (post-convergence).
        start_s = min(r.start_s for r in res.records if r.iteration >= 9)
        start_t = None
        res_static = engine.run(app, StaticPolicy(models, job_cap))
        start_t = min(r.start_s for r in res_static.records if r.iteration >= 9)
        cond_tail = res.makespan_s - start_s
        static_tail = res_static.makespan_s - start_t
        assert cond_tail < static_tail

    def test_job_cap_never_violated(self, models, app):
        job_cap = 4 * 30.0
        policy = ConductorPolicy(models, job_cap, app, config=FAST_CONDUCTOR)
        res = Engine(models).run(app, policy)
        tl = job_power_timeline(res, models, slack_mode="idle")
        assert tl.max_power() <= job_cap * 1.005

    def test_realloc_overhead_charged(self, models, app):
        policy = ConductorPolicy(models, 120.0, app, config=FAST_CONDUCTOR)
        res = Engine(models).run(app, policy)
        expected = policy.realloc_count * FAST_CONDUCTOR.realloc_overhead_s
        assert res.pcontrol_overhead_s == pytest.approx(expected)

    def test_noise_changes_decisions(self, models, app):
        noisy_cfg = ConductorConfig(
            exploration_iterations=2, realloc_period=1, step_w=4.0,
            measurement_noise=0.05, seed=3,
        )
        p_clean = ConductorPolicy(models, 120.0, app, config=FAST_CONDUCTOR)
        p_noisy = ConductorPolicy(models, 120.0, app, config=noisy_cfg)
        engine = Engine(models)
        engine.run(app, p_clean)
        engine.run(app, p_noisy)
        assert not np.allclose(p_clean.alloc_w, p_noisy.alloc_w)
