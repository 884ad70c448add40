"""Edge-case tests for the engine and tracer: tags, ordering, blocking.

Every program here runs both as one :meth:`Engine.run` per cap and as one
width-3 :meth:`Engine.run_sweep` over the same caps: the two share the
engine's one DAG walk, so they must agree bit for bit, down to the
exception a broken program raises.
"""

import dataclasses

import numpy as np
import pytest

from repro.machine import Configuration, TaskKernel
from repro.runtime import StaticPolicy
from repro.simulator import (
    Application,
    CollectiveOp,
    ComputeOp,
    Engine,
    IrecvOp,
    IsendOp,
    MaxPerformancePolicy,
    PcontrolOp,
    RecvOp,
    SendOp,
    WaitOp,
    build_dag,
    trace_application,
)

#: Job caps of the width-3 sweeps (two ranks): duty-cycled through P0.
CAPS_W = (60.0, 90.0, 140.0)


def both_widths(app, models, policy_cls=StaticPolicy, **engine_kwargs):
    """Run ``app`` at width 1 (one run per cap) and at width 3 (one sweep);
    assert the two agree bit for bit and return the width-1 results."""
    engine = Engine(models, **engine_kwargs)
    policy = policy_cls(models, CAPS_W[0])
    sweep = engine.run_sweep(app, policy, policy.plan_sweep(app, engine, CAPS_W))
    runs = [engine.run(app, policy_cls(models, cap)) for cap in CAPS_W]
    for c, run in enumerate(runs):
        point = sweep.result(c)
        assert point.makespan_s == run.makespan_s
        assert point.mpi_call_count == run.mpi_call_count
        assert point.collective_count == run.collective_count
        assert [(r.ref, r.start_s, r.duration_s) for r in point.records] == [
            (r.ref, r.start_s, r.duration_s) for r in run.records
        ]
    return runs


def same_error(app, models, exc):
    """The exception ``app`` raises at width 1, asserted identical (type
    and message) to the one a width-3 sweep raises."""
    engine = Engine(models)
    policy = StaticPolicy(models, CAPS_W[0])
    plan = policy.plan_sweep(app, engine, CAPS_W)
    with pytest.raises(exc) as one:
        engine.run(app, policy)
    with pytest.raises(exc) as wide:
        engine.run_sweep(app, policy, plan)
    assert type(one.value) is type(wide.value)
    assert str(one.value) == str(wide.value)
    return one.value


class TestTagIsolation:
    def test_different_tags_do_not_match(self, kernel, two_rank_models,
                                         time_model):
        """A recv on tag 1 must wait for the tag-1 send even when a tag-0
        message arrived earlier."""
        heavy = kernel.scaled(3.0)
        app = Application(
            "t",
            [
                [
                    SendOp(dst=1, size_bytes=8, tag=0),
                    ComputeOp(heavy),
                    SendOp(dst=1, size_bytes=8, tag=1),
                ],
                [RecvOp(src=0, tag=1), ComputeOp(kernel), RecvOp(src=0, tag=0)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, MaxPerformancePolicy())
        t_heavy = time_model.duration(heavy, 2.6, time_model.best_threads(heavy))
        assert res.makespan_s > t_heavy  # rank 1 waited through the compute
        for run in both_widths(app, two_rank_models, mpi_call_overhead_s=0.0):
            assert run.records_by_rank()[1][0].start_s > run.records[0].end_s

    def test_same_tag_fifo_order(self, kernel, two_rank_models):
        """Two same-tag messages match in send order (sizes differ, so a
        swap would change the makespan measurably)."""
        app = Application(
            "t",
            [
                [SendOp(dst=1, size_bytes=8, tag=5),
                 SendOp(dst=1, size_bytes=1 << 24, tag=5)],
                [RecvOp(src=0, tag=5), ComputeOp(kernel),
                 RecvOp(src=0, tag=5)],
            ],
        )
        Engine(two_rank_models).run(app, MaxPerformancePolicy())
        graph, _ = build_dag(app)
        msgs = sorted(
            (e for e in graph.message_edges() if e.size_bytes > 0),
            key=lambda e: e.id,
        )
        assert [m.size_bytes for m in msgs] == [8, 1 << 24]
        both_widths(app, two_rank_models)


class TestBlockingPaths:
    def test_wait_blocks_until_late_send(self, kernel, two_rank_models,
                                         time_model):
        """Irecv posted early, Wait reached before the matching send has
        executed: the rank must stall in the scan loop and resume later."""
        heavy = kernel.scaled(4.0)
        app = Application(
            "t",
            [
                [ComputeOp(heavy), IsendOp(dst=1, size_bytes=8, request=9),
                 WaitOp(9)],
                [IrecvOp(src=0, request=1), WaitOp(1), ComputeOp(kernel)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, MaxPerformancePolicy())
        t_heavy = time_model.duration(heavy, 2.6, time_model.best_threads(heavy))
        assert res.makespan_s >= t_heavy
        for run in both_widths(app, two_rank_models, mpi_call_overhead_s=0.0):
            assert run.records_by_rank()[1][0].start_s >= run.records[0].end_s

    def test_trace_handles_blocked_wait(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel.scaled(2)), IsendOp(dst=1, size_bytes=8,
                                                      request=9), WaitOp(9)],
                [IrecvOp(src=0, request=1), WaitOp(1), ComputeOp(kernel)],
            ],
        )
        trace = trace_application(app, two_rank_models)
        assert len(trace.task_edges) == 2

    def test_wait_on_unposted_request_raises(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel), IsendOp(dst=1, size_bytes=8, request=1),
              WaitOp(1)],
             [RecvOp(src=0), ComputeOp(kernel)]],
        )
        # sanity: this one is fine
        Engine(two_rank_models).run(app, MaxPerformancePolicy())
        unposted = Application(
            "t",
            [[ComputeOp(kernel), SendOp(dst=1, size_bytes=8), WaitOp(4)],
             [RecvOp(src=0), ComputeOp(kernel)]],
        )
        err = same_error(unposted, two_rank_models, ValueError)
        assert str(err) == "rank 0: wait on unknown request 4"


class TestHeterogeneousPrograms:
    def test_compute_only_rank_next_to_messaging_ranks(self, kernel,
                                                       two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel), ComputeOp(kernel)],
                [ComputeOp(kernel.scaled(0.5)), ComputeOp(kernel)],
            ],
        )
        res = Engine(two_rank_models).run(app, MaxPerformancePolicy())
        assert len(res.records) == 4
        # Consecutive computes with no MPI call between: the tracer merges
        # them into a single task per rank.
        trace = trace_application(app, two_rank_models)
        assert len(trace.task_edges) == 2
        both_widths(app, two_rank_models)

    def test_many_iterations_pcontrol_ordering(self, kernel, two_rank_models):
        n_iter = 7
        progs = [
            [
                op
                for it in range(n_iter)
                for op in (ComputeOp(kernel, it), PcontrolOp(it))
            ]
            for _ in range(2)
        ]
        app = Application("t", progs, iterations=n_iter)

        seen = []

        class Watcher(MaxPerformancePolicy):
            def on_pcontrol(self, iteration, records):
                seen.append(iteration)
                return 0.0

        Engine(two_rank_models).run(app, Watcher())
        assert seen == list(range(n_iter))

        class StaticWatcher(StaticPolicy):
            def on_pcontrol(self, iteration, records):
                seen.append(iteration)
                return 1e-3 * iteration

        seen.clear()
        runs = both_widths(app, two_rank_models, StaticWatcher)
        # one sweep, then one run per cap, each in iteration order
        assert seen == list(range(n_iter)) * (1 + len(CAPS_W))
        assert runs[0].pcontrol_overhead_s == sum(1e-3 * i for i in range(n_iter))

    def test_records_by_rank_sorted_by_time(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel), CollectiveOp(), ComputeOp(kernel)],
                [ComputeOp(kernel.scaled(2)), CollectiveOp(), ComputeOp(kernel)],
            ],
        )
        res = Engine(two_rank_models).run(app, MaxPerformancePolicy())
        for recs in res.records_by_rank():
            starts = [r.start_s for r in recs]
            assert starts == sorted(starts)
        both_widths(app, two_rank_models)


class TestBrokenPrograms:
    """Programs the walk must refuse, the same way at every width."""

    def test_deadlock(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[RecvOp(src=1), SendOp(dst=1, size_bytes=8), ComputeOp(kernel)],
             [RecvOp(src=0), SendOp(dst=0, size_bytes=8), ComputeOp(kernel)]],
        )
        err = same_error(app, two_rank_models, RuntimeError)
        assert str(err).startswith("deadlock: ranks blocked at")

    def test_collective_type_mismatch(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel), CollectiveOp()],
             [ComputeOp(kernel), PcontrolOp(0)]],
        )
        err = same_error(app, two_rank_models, RuntimeError)
        assert "collective mismatch across ranks" in str(err)

    def test_partial_participant_collective(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel), CollectiveOp(participants=(0,))],
             [ComputeOp(kernel), CollectiveOp(participants=(0,))]],
        )
        err = same_error(app, two_rank_models, NotImplementedError)
        assert str(err) == "engine supports all-rank collectives only"


class TestUnmatchedMessages:
    """A message no rank can match fails loudly before any walk."""

    @pytest.fixture(params=["peer out of range", "never received"])
    def unmatched(self, request, kernel):
        send = SendOp(dst=7 if request.param == "peer out of range" else 1,
                      size_bytes=8)
        return Application(
            "t", [[ComputeOp(kernel), send], [ComputeOp(kernel)]]
        )

    def test_engine_run_and_sweep_refuse(self, unmatched, two_rank_models):
        same_error(unmatched, two_rank_models, ValueError)

    def test_trace_application_refuses(self, unmatched, two_rank_models):
        with pytest.raises(ValueError, match="outside|unmatched"):
            trace_application(unmatched, two_rank_models)

    def test_messages(self, kernel):
        out_of_range = Application(
            "t", [[IrecvOp(src=-1, request=0), WaitOp(0)], [ComputeOp(kernel)]]
        )
        with pytest.raises(ValueError, match=r"\(src=-1, dst=0, tag=0\) names "
                           r"a rank outside \[0, 2\)"):
            out_of_range.validate()
        extra_recv = Application(
            "t",
            [[SendOp(dst=1, size_bytes=8, tag=3)],
             [RecvOp(src=0, tag=3), RecvOp(src=0, tag=3)]],
        )
        with pytest.raises(ValueError, match=r"\(0, 1, 3\): -1"):
            extra_recv.validate()


class TestPolicyConfigPersistence:
    def test_first_task_has_no_switch_cost(self, kernel, two_rank_models):
        class Fixed:
            def configure(self, ref, kernel, iteration, current):
                return Configuration(2.0, 4)

            def on_pcontrol(self, iteration, records):
                return 0.0

            def switch_cost_s(self):
                return 1.0  # huge, to make any switch obvious

        app = Application("t", [[ComputeOp(kernel)], [ComputeOp(kernel)]])
        res = Engine(two_rank_models).run(app, Fixed())
        assert res.dvfs_switch_count == 0

    def test_duty_cycled_config_executes(self, two_rank_models, time_model):
        kernel = TaskKernel(cpu_seconds=0.5)

        class Modulated:
            def configure(self, ref, kernel, iteration, current):
                return Configuration(1.2, 8, duty=0.5)

            def on_pcontrol(self, iteration, records):
                return 0.0

            def switch_cost_s(self):
                return 0.0

        app = Application("t", [[ComputeOp(kernel)], [ComputeOp(kernel)]])
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, Modulated())
        expected = time_model.duration(kernel, 1.2, 8, duty=0.5)
        assert res.makespan_s == pytest.approx(expected)


class TestBadSweepPlans:
    """A malformed sweep plan fails loudly instead of broadcasting."""

    @pytest.fixture
    def sweep_inputs(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel), SendOp(dst=1, size_bytes=8), ComputeOp(kernel)],
                [RecvOp(src=0), ComputeOp(kernel)],
            ],
        )
        engine = Engine(two_rank_models)
        policy = StaticPolicy(two_rank_models, 100.0)
        return app, engine, policy, policy.plan_sweep(app, engine, [80.0, 100.0])

    def test_a_well_formed_plan_runs(self, sweep_inputs):
        app, engine, policy, plan = sweep_inputs
        outcome = engine.run_sweep(app, policy, plan)
        assert outcome.n_points == 2

    def test_zero_points(self, sweep_inputs):
        app, engine, policy, plan = sweep_inputs
        empty = policy.plan_sweep(app, engine, [])
        assert empty.n_points == 0
        with pytest.raises(ValueError, match="n_points >= 1"):
            engine.run_sweep(app, policy, empty)

    def test_rank_count_mismatch(self, sweep_inputs):
        app, engine, policy, plan = sweep_inputs
        short = dataclasses.replace(plan, ranks=plan.ranks[:1])
        with pytest.raises(ValueError, match="1 ranks but the application has 2"):
            engine.run_sweep(app, policy, short)

    @pytest.mark.parametrize("field", ["durations", "powers", "switch_add"])
    def test_one_column_does_not_broadcast(self, sweep_inputs, field):
        app, engine, policy, plan = sweep_inputs
        rank = plan.ranks[0]
        narrow = dataclasses.replace(
            rank, **{field: np.ascontiguousarray(getattr(rank, field)[:, :1])}
        )
        bad = dataclasses.replace(plan, ranks=[narrow, plan.ranks[1]])
        with pytest.raises(ValueError, match=rf"rank 0: sweep plan {field}"):
            engine.run_sweep(app, policy, bad)

    def test_task_count_mismatch(self, sweep_inputs):
        app, engine, policy, plan = sweep_inputs
        rank = plan.ranks[1]
        extra = dataclasses.replace(
            rank, durations=np.vstack([rank.durations, rank.durations])
        )
        bad = dataclasses.replace(plan, ranks=[plan.ranks[0], extra])
        with pytest.raises(ValueError, match=r"expected \(n_tasks, n_points\)"):
            engine.run_sweep(app, policy, bad)
