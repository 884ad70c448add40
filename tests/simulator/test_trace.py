"""Unit tests for the tracing library (program -> DAG + profiles)."""

import pytest

from repro.dag import unconstrained_schedule
from repro.machine import TaskTimeModel
from repro.simulator import (
    Application,
    ComputeOp,
    Engine,
    MaxPerformancePolicy,
    RecvOp,
    SendOp,
    TaskRef,
    build_dag,
    trace_application,
)
from repro.workloads import WorkloadSpec, make_bt
from tests.dag.checks import deep_validate

from .. import conftest


class TestBuildDag:
    def test_structure(self, p2p_app):
        graph, task_edges = build_dag(p2p_app)
        deep_validate(graph)
        assert len(task_edges) == p2p_app.n_tasks()

    def test_task_refs_cover_programs(self, p2p_app):
        _, task_edges = build_dag(p2p_app)
        for rank in range(p2p_app.n_ranks):
            n = len(p2p_app.compute_ops(rank))
            for seq in range(n):
                assert TaskRef(rank, seq) in task_edges

    def test_task_edges_in_program_order(self, p2p_app):
        graph, task_edges = build_dag(p2p_app)
        for rank in range(p2p_app.n_ranks):
            ops = p2p_app.compute_ops(rank)
            for seq, op in enumerate(ops):
                edge = graph.edges[task_edges[TaskRef(rank, seq)]]
                assert edge.kernel == op.kernel

    def test_message_duration_from_network(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel), SendOp(dst=1, size_bytes=1 << 20)],
             [RecvOp(src=0), ComputeOp(kernel)]],
        )
        graph, _ = build_dag(app)
        from repro.simulator import IB_QDR

        msgs = [e for e in graph.message_edges() if e.size_bytes == 1 << 20]
        assert len(msgs) == 1
        assert msgs[0].duration_s == pytest.approx(IB_QDR.message_time(1 << 20))

    def test_deadlock_detected(self, kernel):
        app = Application(
            "t",
            [[RecvOp(src=1), SendOp(dst=1, size_bytes=8), ComputeOp(kernel)],
             [RecvOp(src=0), SendOp(dst=0, size_bytes=8), ComputeOp(kernel)]],
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            build_dag(app)

    def test_rank_without_compute_rejected(self, two_rank_models):
        """A rank with no compute task has no task to charge its slack
        power to, so tracing names it instead of solving a model that
        leaves its power out."""
        bt = make_bt(WorkloadSpec(n_ranks=2, iterations=2, seed=1))
        idle = [op for op in bt.programs[1] if not isinstance(op, ComputeOp)]
        app = Application("bt-idle-rank-1", [bt.programs[0], idle])
        with pytest.raises(ValueError, match=r"no compute tasks: \[1\]"):
            trace_application(app, two_rank_models)


class TestDagMatchesEngine:
    def test_makespan_agreement(self, kernel, two_rank_models):
        """The DAG's unconstrained schedule and the engine must agree
        (modulo per-call overheads, which the DAG does not model)."""
        app = conftest.make_p2p_app(kernel, iterations=2)
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, MaxPerformancePolicy())
        graph, _ = build_dag(app)
        sched = unconstrained_schedule(graph, TaskTimeModel())
        assert sched.makespan == pytest.approx(res.makespan_s, rel=1e-9)


class TestTraceProfiles:
    def test_every_task_profiled(self, p2p_trace, p2p_app):
        assert len(p2p_trace.frontiers) == p2p_app.n_tasks()
        assert len(p2p_trace.pareto) == p2p_app.n_tasks()

    def test_frontiers_convex_subsets(self, p2p_trace):
        for edge_id, convex in p2p_trace.frontiers.items():
            pareto = p2p_trace.pareto[edge_id]
            assert len(convex) <= len(pareto)
            powers = [p.power_w for p in convex]
            assert powers == sorted(powers)

    def test_frontier_for_ref(self, p2p_trace):
        front = p2p_trace.frontier_for(TaskRef(0, 0))
        assert front and front[0].power_w < front[-1].power_w

    def test_profiles_reflect_socket_efficiency(self, p2p_app, two_rank_models):
        tr = trace_application(p2p_app, two_rank_models)
        # Rank 1's socket is 5% leakier: same kernel, higher frontier power.
        k0 = tr.frontier_for(TaskRef(0, 0))[-1]
        # find a rank-1 task with the same kernel shape scaled differently —
        # compare via the max-power config of the first tasks instead.
        k1 = tr.frontier_for(TaskRef(1, 0))[-1]
        assert k1.power_w > k0.power_w * 0.99  # heavier work AND leakier

    def test_measurement_noise_perturbs(self, p2p_app, two_rank_models):
        clean = trace_application(p2p_app, two_rank_models)
        noisy = trace_application(
            p2p_app, two_rank_models, measurement_noise=0.05, seed=1
        )
        c = clean.frontier_for(TaskRef(0, 0))[0]
        n = noisy.frontier_for(TaskRef(0, 0))[0]
        assert n.duration_s != pytest.approx(c.duration_s, rel=1e-6)

    def test_noise_validation(self, p2p_app, two_rank_models):
        with pytest.raises(ValueError):
            trace_application(p2p_app, two_rank_models, measurement_noise=-0.1)

    def test_model_count_checked(self, p2p_app, two_rank_models):
        with pytest.raises(ValueError):
            trace_application(p2p_app, two_rank_models[:1])

    def test_describe(self, p2p_trace):
        assert "p2p-test" in p2p_trace.describe()
