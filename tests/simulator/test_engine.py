"""Unit tests for the discrete-event engine."""

import pytest

from repro.machine import Configuration, XEON_E5_2670
from repro.simulator import (
    Application,
    CollectiveOp,
    ComputeOp,
    Engine,
    IrecvOp,
        MaxPerformancePolicy,
    PcontrolOp,
    RecvOp,
    SendOp,
    WaitOp,
)

from .. import conftest


class FixedPolicy:
    """Always the same configuration; configurable hooks for tests."""

    def __init__(self, config=Configuration(2.6, 8), switch_cost=0.0,
                 pcontrol_cost=0.0):
        self.config = config
        self._switch = switch_cost
        self._pcontrol = pcontrol_cost
        self.pcontrol_calls = []

    def configure(self, ref, kernel, iteration, current):
        return self.config

    def on_pcontrol(self, iteration, records):
        self.pcontrol_calls.append((iteration, len(records)))
        return self._pcontrol

    def switch_cost_s(self) -> float:
        return self._switch


class TestBasicExecution:
    def test_single_rank_compute(self, kernel, two_rank_models, time_model):
        app = Application("t", [[ComputeOp(kernel)], [ComputeOp(kernel)]])
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, FixedPolicy())
        expected = time_model.duration(kernel, 2.6, 8)
        assert res.makespan_s == pytest.approx(expected)
        assert len(res.records) == 2

    def test_rank_count_mismatch(self, kernel, two_rank_models):
        app = Application("t", [[ComputeOp(kernel)]])
        with pytest.raises(ValueError, match="power models"):
            Engine(two_rank_models).run(app, FixedPolicy())

    def test_records_carry_power_from_socket(self, kernel, two_rank_models):
        app = Application("t", [[ComputeOp(kernel)], [ComputeOp(kernel)]])
        res = Engine(two_rank_models).run(app, FixedPolicy())
        by_rank = res.records_by_rank()
        p0 = by_rank[0][0].power_w
        p1 = by_rank[1][0].power_w
        assert p1 == pytest.approx(p0 * 1.05)  # socket 1 is 5% leakier


class TestMessaging:
    def test_blocking_recv_waits_for_send(self, kernel, two_rank_models,
                                          time_model):
        heavy = kernel.scaled(3.0)
        app = Application(
            "t",
            [
                [ComputeOp(heavy), SendOp(dst=1, size_bytes=1 << 20)],
                [RecvOp(src=0), ComputeOp(kernel)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, FixedPolicy())
        t_heavy = time_model.duration(heavy, 2.6, 8)
        msg = engine.network.message_time(1 << 20)
        t_light = time_model.duration(kernel, 2.6, 8)
        assert res.makespan_s == pytest.approx(t_heavy + msg + t_light)

    def test_eager_send_does_not_block(self, kernel, two_rank_models,
                                       time_model):
        app = Application(
            "t",
            [
                [SendOp(dst=1, size_bytes=8), ComputeOp(kernel)],
                [ComputeOp(kernel.scaled(5.0)), RecvOp(src=0)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, FixedPolicy())
        # Rank 0 finishes its compute long before rank 1 receives.
        assert res.makespan_s == pytest.approx(
            time_model.duration(kernel.scaled(5.0), 2.6, 8),
            rel=1e-3,
        )

    def test_fifo_matching_per_channel(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [
                    SendOp(dst=1, size_bytes=1024, tag=0),
                    SendOp(dst=1, size_bytes=1 << 22, tag=0),
                    ComputeOp(kernel),
                ],
                [RecvOp(src=0, tag=0), ComputeOp(kernel), RecvOp(src=0, tag=0)],
            ],
        )
        res = Engine(two_rank_models).run(app, FixedPolicy())
        assert res.makespan_s > 0  # completes without deadlock

    def test_isend_wait_semantics(self, kernel, two_rank_models):
        app = conftest.make_p2p_app(kernel)
        res = Engine(two_rank_models).run(app, FixedPolicy())
        assert len(res.records) == 4

    def test_irecv_wait_blocks_until_arrival(self, kernel, two_rank_models,
                                             time_model):
        heavy = kernel.scaled(4.0)
        app = Application(
            "t",
            [
                [ComputeOp(heavy), SendOp(dst=1, size_bytes=8)],
                [IrecvOp(src=0, request=1), WaitOp(1), ComputeOp(kernel)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, FixedPolicy())
        assert res.makespan_s >= time_model.duration(heavy, 2.6, 8)

    def test_deadlock_detected(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[RecvOp(src=1), SendOp(dst=1, size_bytes=8), ComputeOp(kernel)],
             [RecvOp(src=0), SendOp(dst=0, size_bytes=8), ComputeOp(kernel)]],
        )
        with pytest.raises(RuntimeError, match="deadlock"):
            Engine(two_rank_models).run(app, FixedPolicy())


class TestCollectives:
    def test_collective_synchronizes(self, kernel, two_rank_models, time_model):
        heavy = kernel.scaled(2.0)
        app = Application(
            "t",
            [
                [ComputeOp(kernel), CollectiveOp("allreduce", 8), ComputeOp(kernel)],
                [ComputeOp(heavy), CollectiveOp("allreduce", 8), ComputeOp(kernel)],
            ],
        )
        engine = Engine(two_rank_models, mpi_call_overhead_s=0.0)
        res = engine.run(app, FixedPolicy())
        t_heavy = time_model.duration(heavy, 2.6, 8)
        t_light = time_model.duration(kernel, 2.6, 8)
        coll = engine.network.collective_time("allreduce", 2, 8)
        assert res.makespan_s == pytest.approx(t_heavy + coll + t_light)
        # Post-collective tasks start simultaneously.
        second = [r for r in res.records if r.ref.seq == 1]
        assert second[0].start_s == pytest.approx(second[1].start_s)

    def test_subset_collective_unsupported(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel), CollectiveOp(participants=(0,))],
                [ComputeOp(kernel), CollectiveOp(participants=(0,))],
            ],
        )
        with pytest.raises(NotImplementedError):
            Engine(two_rank_models).run(app, FixedPolicy())

    def test_mismatched_collectives_rejected(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel), CollectiveOp()],
             [ComputeOp(kernel), PcontrolOp(0)]],
        )
        with pytest.raises(RuntimeError, match="mismatch"):
            Engine(two_rank_models).run(app, FixedPolicy())


class TestPolicyHooks:
    def test_pcontrol_hook_sees_iteration_records(self, kernel, two_rank_models):
        app = Application(
            "t",
            [
                [ComputeOp(kernel, 0), PcontrolOp(0), ComputeOp(kernel, 1),
                 PcontrolOp(1)],
                [ComputeOp(kernel, 0), PcontrolOp(0), ComputeOp(kernel, 1),
                 PcontrolOp(1)],
            ],
        )
        policy = FixedPolicy()
        Engine(two_rank_models).run(app, policy)
        assert policy.pcontrol_calls == [(0, 2), (1, 2)]

    def test_pcontrol_overhead_charged(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel, 0), PcontrolOp(0)],
             [ComputeOp(kernel, 0), PcontrolOp(0)]],
        )
        base = Engine(two_rank_models).run(app, FixedPolicy())
        slow = Engine(two_rank_models).run(
            app, FixedPolicy(pcontrol_cost=566e-6)
        )
        assert slow.makespan_s == pytest.approx(base.makespan_s + 566e-6)
        assert slow.pcontrol_overhead_s == pytest.approx(566e-6)

    def test_switch_cost_on_config_change(self, kernel, two_rank_models):
        class Alternator(FixedPolicy):
            def configure(self, ref, kernel, iteration, current):
                return (
                    Configuration(2.6, 8)
                    if ref.seq % 2 == 0
                    else Configuration(1.2, 8)
                )

        app = Application(
            "t",
            [[ComputeOp(kernel), ComputeOp(kernel), ComputeOp(kernel)],
             [ComputeOp(kernel)]],
        )
        res = Engine(two_rank_models).run(app, Alternator(switch_cost=145e-6))
        assert res.dvfs_switch_count == 2  # first task is free

    def test_negative_pcontrol_overhead_rejected(self, kernel, two_rank_models):
        app = Application(
            "t",
            [[ComputeOp(kernel, 0), PcontrolOp(0)],
             [ComputeOp(kernel, 0), PcontrolOp(0)]],
        )
        with pytest.raises(ValueError):
            Engine(two_rank_models).run(app, FixedPolicy(pcontrol_cost=-1.0))


class TestSimulationResult:
    def test_warmup_slicing(self, kernel, two_rank_models):
        app = conftest.make_p2p_app(kernel, iterations=3)
        res = Engine(two_rank_models).run(app, FixedPolicy())
        full = res.makespan_s
        tail = res.makespan_after_warmup(1)
        assert 0 < tail < full
        with pytest.raises(ValueError):
            res.makespan_after_warmup(99)

    def test_iterations_listing(self, kernel, two_rank_models):
        app = conftest.make_p2p_app(kernel, iterations=2)
        res = Engine(two_rank_models).run(app, FixedPolicy())
        assert res.iterations() == [0, 1]
        assert len(res.records_for_iteration(0)) == 4

    def test_energy_positive(self, kernel, two_rank_models):
        app = conftest.make_p2p_app(kernel)
        res = Engine(two_rank_models).run(app, FixedPolicy())
        assert res.total_energy_j() > 0

    def test_max_performance_policy(self, memory_kernel, two_rank_models):
        app = Application(
            "t", [[ComputeOp(memory_kernel)], [ComputeOp(memory_kernel)]]
        )
        res = Engine(two_rank_models).run(
            app, MaxPerformancePolicy(XEON_E5_2670)
        )
        # Contended kernel: best thread count is 5, not 8.
        assert all(r.config.threads == 5 for r in res.records)
        assert all(r.config.freq_ghz == 2.6 for r in res.records)
