"""Tests for the energy-optimal configuration search (Silva-style)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.machine import (
    Configuration,
    SocketPowerModel,
    TaskKernel,
    enumerate_configurations,
    measure_task,
    sample_socket_efficiencies,
)
from repro.machine.configuration import ConfigPoint
from repro.runtime import ConfigSearchPolicy, energy_optimal_point
from repro.runtime.config_search import _energy_optimal_index
from repro.simulator import Engine, MaxPerformancePolicy, TaskRef
from repro.workloads import imbalanced_collective_app
from tests.simulator.oracles import run_scalar


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


@pytest.fixture
def app():
    return imbalanced_collective_app(n_ranks=4, iterations=10, spread=1.5)


def point(freq, threads, duration_s, power_w):
    return ConfigPoint(Configuration(freq, threads), duration_s, power_w)


class TestEnergyOptimalPoint:
    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            energy_optimal_point([])

    def test_negative_slowdown_rejected(self):
        with pytest.raises(ValueError, match="max_slowdown"):
            energy_optimal_point([point(2.6, 8, 1.0, 90.0)], max_slowdown=-0.1)

    def test_min_energy_within_the_slowdown_bound(self):
        pts = [
            point(2.6, 8, 1.0, 90.0),   # 90 J, fastest
            point(2.4, 8, 1.05, 80.0),  # 84 J, within 10%
            point(1.2, 8, 2.0, 30.0),   # 60 J, but 2x slower
        ]
        chosen = energy_optimal_point(pts, max_slowdown=0.1)
        assert chosen is pts[1]
        # A looser bound admits the genuinely cheapest point.
        assert energy_optimal_point(pts, max_slowdown=1.5) is pts[2]

    def test_power_budget_filters_the_space(self):
        pts = [
            point(2.6, 8, 1.0, 90.0),
            point(2.4, 8, 1.05, 80.0),
            point(1.2, 8, 2.0, 30.0),
        ]
        # Budget 50 W: only the slow point is admissible.
        assert energy_optimal_point(pts, power_budget_w=50.0) is pts[2]

    def test_unreachable_budget_falls_back_to_least_power(self):
        pts = [point(2.6, 8, 1.0, 90.0), point(1.2, 8, 2.0, 30.0)]
        assert energy_optimal_point(pts, power_budget_w=5.0) is pts[1]


# Small value sets make exact duration, power and energy ties common;
# every point is a distinct object so a pick is identified by position.
scatters = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1.0, 1.05, 1.1, 2.0]), st.floats(0.01, 10.0)),
        st.one_of(st.sampled_from([20.0, 21.0, 40.0]), st.floats(1.0, 100.0)),
    ),
    min_size=1,
    max_size=20,
).map(
    lambda rows: [
        ConfigPoint(Configuration(1.0 + 0.1 * k, 1), d, p)
        for k, (d, p) in enumerate(rows)
    ]
)
budgets = st.one_of(
    st.none(), st.sampled_from([20.0, 21.0, 40.0]), st.floats(0.5, 120.0)
)
slowdowns = st.one_of(st.sampled_from([0.0, 0.05, 0.1]), st.floats(0.0, 2.0))


class TestEnergyOptimalIndex:
    @settings(max_examples=300, deadline=None)
    @given(points=scatters, budget=budgets, slowdown=slowdowns)
    def test_matches_the_scalar_pick(self, points, budget, slowdown):
        durations = np.array([p.duration_s for p in points])
        powers = np.array([p.power_w for p in points])
        k = _energy_optimal_index(durations, powers, budget, slowdown)
        assert points[k] is energy_optimal_point(points, budget, slowdown)

    @settings(max_examples=60, deadline=None)
    @given(
        cpu=st.floats(0.01, 5.0),
        mem=st.floats(0.0, 2.0),
        activity=st.floats(0.1, 2.0),
        eff=st.floats(0.8, 1.3),
        budget=st.one_of(st.none(), st.floats(10.0, 120.0)),
        slowdown=slowdowns,
    )
    def test_policy_search_matches_the_scalar_list(
        self, cpu, mem, activity, eff, budget, slowdown
    ):
        kernel = TaskKernel(cpu_seconds=cpu, mem_seconds=mem, activity=activity)
        pm = SocketPowerModel(efficiency=eff)
        policy = ConfigSearchPolicy(
            [pm], job_cap_w=budget, max_slowdown=slowdown
        )
        points = [
            measure_task(kernel, c, pm) for c in enumerate_configurations(pm.spec)
        ]
        want = energy_optimal_point(points, budget, slowdown)
        assert policy.configure(TaskRef(0, 0), kernel, 0, None) == want.config

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _energy_optimal_index(np.array([]), np.array([]))


class TestConfigSearchPolicy:
    def test_validation(self, models):
        with pytest.raises(ValueError, match="job cap"):
            ConfigSearchPolicy(models, job_cap_w=0.0)
        with pytest.raises(ValueError, match="max_slowdown"):
            ConfigSearchPolicy(models, job_cap_w=None, max_slowdown=-1.0)

    def test_configuration_is_history_free(self, models, kernel):
        policy = ConfigSearchPolicy(models, job_cap_w=None)
        first = policy.configure(TaskRef(0, 0), kernel, 0, None)
        again = policy.configure(TaskRef(0, 3), kernel, 7, first)
        assert first == again

    def test_saves_energy_within_bounded_slowdown(self, models, app):
        engine = Engine(models)
        base = engine.run(app, MaxPerformancePolicy())
        searched = engine.run(
            app, ConfigSearchPolicy(models, job_cap_w=None, max_slowdown=0.1)
        )
        assert searched.total_energy_j() < base.total_energy_j()
        # Per-task slowdown is bounded by 10%; the makespan inherits it.
        assert searched.makespan_s <= base.makespan_s * 1.1 * (1 + 1e-9)

    def test_cap_constrains_chosen_power(self, models, app):
        cap_w = 45.0 * len(models)
        res = Engine(models).run(
            app, ConfigSearchPolicy(models, job_cap_w=cap_w)
        )
        assert all(r.power_w <= 45.0 * (1 + 1e-9) for r in res.records)

    def test_plan_run_matches_scalar_path(self, models, app):
        engine = Engine(models)
        scalar = run_scalar(engine, app, ConfigSearchPolicy(models, job_cap_w=None))
        planned = engine.run(app, ConfigSearchPolicy(models, job_cap_w=None))
        assert planned.makespan_s == scalar.makespan_s
        assert planned.total_energy_j() == scalar.total_energy_j()

    def test_overhead_hooks(self, models):
        policy = ConfigSearchPolicy(models, job_cap_w=None)
        assert policy.switch_cost_s() == 0.0
        assert policy.on_pcontrol(0, []) == 0.0
