"""White-box tests of Conductor's reallocation controller and the oracle."""

import numpy as np
import pytest

from repro.machine import Configuration, TaskKernel, sample_socket_efficiencies
from repro.machine import SocketPowerModel
from repro.runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from repro.simulator import Engine, TaskRecord, TaskRef
from repro.workloads import imbalanced_collective_app

from .apps import kernel_app


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


@pytest.fixture
def app():
    return imbalanced_collective_app(n_ranks=4, iterations=12, spread=1.6)


def record(rank, start, dur, power, kernel):
    return TaskRecord(
        ref=TaskRef(rank, 0), iteration=5, label="",
        config=Configuration(2.0, 8), start_s=start, duration_s=dur,
        power_w=power, kernel=kernel,
    )


def reallocate(policy, records):
    """One barrier of ``policy``'s planner over ``records`` (iteration 5:
    past exploration, and every barrier reallocates)."""
    assert policy.planner.barrier(
        5,
        np.array([r.ref.rank for r in records]),
        np.array([r.ref.seq for r in records]),
        np.array([[r.start_s] for r in records]),
        np.array([[r.duration_s] for r in records]),
    ) == policy.cfg.realloc_overhead_s


class TestReallocateController:
    def make_policy(self, models, app, job_cap_w=120.0, **overrides):
        kwargs = dict(realloc_period=1, step_w=100.0, measurement_noise=0.0)
        kwargs.update(overrides)
        return ConductorPolicy(models, job_cap_w, app,
                               config=ConductorConfig(**kwargs))

    def test_heavy_rank_gains(self, models, kernel):
        policy = self.make_policy(models, kernel_app(kernel))
        # Rank 3 busy the whole span; others idle half of it.
        records = [
            record(r, 0.0, 1.0 if r < 3 else 2.0, 28.0, kernel)
            for r in range(4)
        ]
        before = policy.alloc_w.copy()
        reallocate(policy, records)
        assert policy.alloc_w[3] > before[3]
        assert policy.alloc_w.sum() <= 120.0 + 1e-9

    def test_balanced_records_stable(self, models, kernel):
        policy = self.make_policy(models, kernel_app(kernel))
        records = [record(r, 0.0, 1.5, 29.0, kernel) for r in range(4)]
        before = policy.alloc_w.copy()
        reallocate(policy, records)
        # Everyone critical and equally needy: allocation barely moves.
        np.testing.assert_allclose(policy.alloc_w, before, atol=2.0)

    def test_step_bound_limits_movement(self, models, kernel):
        policy = self.make_policy(models, kernel_app(kernel), step_w=1.0)
        records = [
            record(r, 0.0, 0.5 if r < 3 else 2.0, 20.0 if r < 3 else 29.0,
                   kernel)
            for r in range(4)
        ]
        before = policy.alloc_w.copy()
        reallocate(policy, records)
        assert np.abs(policy.alloc_w - before).max() <= 1.0 + 1e-9

    def test_infeasible_demand_scales_down(self, models):
        hungry = TaskKernel(cpu_seconds=1.0, activity=1.8, mem_intensity=0.8)
        policy = self.make_policy(models, kernel_app(hungry), job_cap_w=60.0)
        assert (policy.alloc_w == 15.0).all()
        records = [record(r, 0.0, 2.0, 15.0, hungry) for r in range(4)]
        reallocate(policy, records)
        assert policy.alloc_w.sum() <= 60.0 + 1e-6


class TestOracle:
    def test_oracle_construction(self, models, app):
        policy = ConductorPolicy.oracle(models, 120.0, app)
        assert policy.cfg.measurement_noise == 0.0
        assert policy.cfg.realloc_overhead_s == 0.0
        assert policy.switch_cost_s() == 0.0

    def test_oracle_between_conductor_and_lp(self, models, app):
        """oracle >= LP bound; oracle <= realistic Conductor (steady)."""
        from repro.core import solve_fixed_order_lp
        from repro.simulator import trace_application
        from repro.workloads import imbalanced_collective_app as make

        job_cap = 4 * 28.0
        engine = Engine(models)

        def tail(policy):
            res = engine.run(app, policy)
            start = min(r.start_s for r in res.records if r.iteration >= 8)
            return (res.makespan_s - start) / 4

        t_oracle = tail(ConductorPolicy.oracle(models, job_cap, app))
        t_real = tail(
            ConductorPolicy(
                models, job_cap, app,
                config=ConductorConfig(realloc_period=4, step_w=2.5,
                                       measurement_noise=0.02),
            )
        )
        lp_app = make(n_ranks=4, iterations=4, spread=1.6)
        trace = trace_application(lp_app, models)
        lp = solve_fixed_order_lp(trace, job_cap)
        t_lp = lp.makespan_s / 4
        assert t_lp <= t_oracle * (1 + 5e-3)
        assert t_oracle <= t_real * (1 + 5e-3)

    def test_oracle_beats_static(self, models, app):
        engine = Engine(models)
        job_cap = 4 * 28.0
        res_static = engine.run(app, StaticPolicy(models, job_cap))
        res_oracle = engine.run(
            app, ConductorPolicy.oracle(models, job_cap, app)
        )
        start_o = min(
            r.start_s for r in res_oracle.records if r.iteration >= 8
        )
        start_s = min(
            r.start_s for r in res_static.records if r.iteration >= 8
        )
        assert (res_oracle.makespan_s - start_o) < (
            res_static.makespan_s - start_s
        )
