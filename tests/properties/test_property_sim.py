"""Property-based tests for the simulator, tracer, and DAG pipeline."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dag import unconstrained_schedule
from repro.machine import SocketPowerModel, TaskTimeModel
from repro.simulator import (
    Engine,
    MaxPerformancePolicy,
    build_dag,
    job_power_timeline,
    )
from repro.workloads import random_application
from tests.dag.checks import deep_validate

apps = st.builds(
    random_application,
    n_ranks=st.integers(1, 4),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    p_p2p=st.floats(0.0, 1.0),
)


def models_for(app):
    return [
        SocketPowerModel(efficiency=1.0 + 0.02 * r) for r in range(app.n_ranks)
    ]


class TestSimulatorProperties:
    @given(app=apps)
    @settings(max_examples=30, deadline=None)
    def test_executes_without_deadlock(self, app):
        res = Engine(models_for(app)).run(app, MaxPerformancePolicy())
        assert res.makespan_s > 0
        assert len(res.records) == app.n_tasks()

    @given(app=apps)
    @settings(max_examples=30, deadline=None)
    def test_per_rank_clocks_monotone(self, app):
        res = Engine(models_for(app)).run(app, MaxPerformancePolicy())
        for recs in res.records_by_rank():
            for a, b in zip(recs, recs[1:]):
                assert b.start_s >= a.end_s - 1e-12

    @given(app=apps)
    @settings(max_examples=30, deadline=None)
    def test_trace_matches_engine_makespan(self, app):
        models = models_for(app)
        engine = Engine(models, mpi_call_overhead_s=0.0)
        res = engine.run(app, MaxPerformancePolicy())
        graph, _ = build_dag(app)
        deep_validate(graph)
        sched = unconstrained_schedule(graph, TaskTimeModel())
        assert sched.makespan == pytest.approx(res.makespan_s, rel=1e-9)

    @given(app=apps)
    @settings(max_examples=20, deadline=None)
    def test_energy_consistency(self, app):
        """Integral of the idle-mode power timeline equals task energy plus
        idle energy — conservation across the telemetry pipeline."""
        models = models_for(app)
        res = Engine(models).run(app, MaxPerformancePolicy())
        tl = job_power_timeline(res, models, slack_mode="idle")
        task_energy = res.total_energy_j()
        busy = [
            sum(r.duration_s for r in recs)
            for recs in res.records_by_rank()
        ]
        idle_energy = sum(
            pm.idle_power() * (res.makespan_s - b)
            for pm, b in zip(models, busy)
        )
        assert tl.energy_j() == pytest.approx(
            task_energy + idle_energy, rel=1e-6, abs=1e-9
        )

    @given(app=apps)
    @settings(max_examples=20, deadline=None)
    def test_timeline_nonnegative(self, app):
        models = models_for(app)
        res = Engine(models).run(app, MaxPerformancePolicy())
        tl = job_power_timeline(res, models, slack_mode="task")
        assert (tl.power >= -1e-9).all()
