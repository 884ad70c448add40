"""Unit tests for synthetic workloads."""

import pytest

from repro.machine import SocketPowerModel
from repro.simulator import Engine, MaxPerformancePolicy, build_dag, trace_application
from repro.workloads import (
    imbalanced_collective_app,
    random_application,
    two_rank_exchange,
)
from tests.dag.checks import deep_validate


class TestTwoRankExchange:
    def test_small_enough_for_flow_ilp(self):
        app = two_rank_exchange(phases=2)
        graph, _ = build_dag(app)
        assert graph.n_edges < 30  # the paper's flow-ILP practical limit

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            two_rank_exchange(phases=0)

    def test_executes(self):
        app = two_rank_exchange(phases=2)
        models = [SocketPowerModel(), SocketPowerModel()]
        res = Engine(models).run(app, MaxPerformancePolicy())
        assert res.makespan_s > 0
        assert len(res.records) == app.n_tasks()

    def test_imbalance_parameter(self):
        app = two_rank_exchange(phases=1, imbalance=2.0)
        k0 = app.compute_ops(0)[0].kernel
        k1 = app.compute_ops(1)[0].kernel
        assert k1.cpu_seconds == pytest.approx(2.0 * k0.cpu_seconds)


class TestImbalancedCollective:
    def test_structure(self):
        app = imbalanced_collective_app(n_ranks=4, iterations=3)
        assert app.n_ranks == 4
        assert app.n_tasks() == 12
        graph, _ = build_dag(app)
        deep_validate(graph)

    def test_spread(self):
        app = imbalanced_collective_app(n_ranks=4, spread=1.5, iterations=1)
        works = sorted(
            op.kernel.cpu_seconds
            for prog in app.programs
            for op in prog
            if hasattr(op, "kernel")
        )
        assert works[-1] / works[0] == pytest.approx(1.5)


class TestRandomApplication:
    @pytest.mark.parametrize("seed", range(6))
    def test_always_executable_and_traceable(self, seed):
        app = random_application(n_ranks=3, iterations=2, seed=seed)
        models = [SocketPowerModel() for _ in range(3)]
        res = Engine(models).run(app, MaxPerformancePolicy())
        assert res.makespan_s > 0
        trace = trace_application(app, models)
        deep_validate(trace.graph)

    def test_deterministic(self):
        a = random_application(seed=5)
        b = random_application(seed=5)
        for pa, pb in zip(a.programs, b.programs):
            assert pa == pb
