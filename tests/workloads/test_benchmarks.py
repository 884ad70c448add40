"""Tests for the four benchmark proxies: structure, determinism, character."""

import numpy as np
import pytest

from repro.machine import SocketPowerModel
from repro.simulator import (
    CollectiveOp,
    ComputeOp,
    IsendOp,
    PcontrolOp,
    build_dag,
)
from repro.workloads import (
    BENCHMARKS,
    WorkloadSpec,
    make_bt,
    make_comd,
    make_lulesh,
    make_sp,
    neighbors_3d,
)
from tests.dag.checks import deep_validate

SMALL = WorkloadSpec(n_ranks=8, iterations=2, seed=3)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
class TestCommonProperties:
    def test_validates_and_traces(self, name):
        app = BENCHMARKS[name](SMALL)
        app.validate()
        graph, task_edges = build_dag(app)
        deep_validate(graph)
        assert len(task_edges) == app.n_tasks()

    def test_deterministic(self, name):
        a = BENCHMARKS[name](SMALL)
        b = BENCHMARKS[name](SMALL)
        for pa, pb in zip(a.programs, b.programs):
            assert pa == pb

    def test_seed_changes_work(self, name):
        a = BENCHMARKS[name](SMALL)
        b = BENCHMARKS[name](WorkloadSpec(n_ranks=8, iterations=2, seed=4))
        ka = [op.kernel for op in a.programs[0] if isinstance(op, ComputeOp)]
        kb = [op.kernel for op in b.programs[0] if isinstance(op, ComputeOp)]
        assert ka != kb

    def test_pcontrol_every_iteration(self, name):
        app = BENCHMARKS[name](SMALL)
        for prog in app.programs:
            iters = [op.iteration for op in prog if isinstance(op, PcontrolOp)]
            assert iters == [0, 1]

    def test_scale_knob(self, name):
        small = BENCHMARKS[name](SMALL)
        big = BENCHMARKS[name](
            WorkloadSpec(n_ranks=8, iterations=2, seed=3, scale=2.0)
        )
        k_small = next(
            op.kernel for op in small.programs[0] if isinstance(op, ComputeOp)
        )
        k_big = next(
            op.kernel for op in big.programs[0] if isinstance(op, ComputeOp)
        )
        assert k_big.cpu_seconds == pytest.approx(2 * k_small.cpu_seconds)


def rank_work(app, rank):
    return sum(
        op.kernel.total_reference_seconds
        for op in app.programs[rank]
        if isinstance(op, ComputeOp)
    )


class TestCoMD:
    def test_collectives_only(self):
        """CoMD's defining property (§5.2): no point-to-point messages."""
        app = make_comd(SMALL)
        for prog in app.programs:
            assert not any(isinstance(op, IsendOp) for op in prog)
            assert any(isinstance(op, CollectiveOp) for op in prog)

    def test_mild_imbalance(self):
        app = make_comd(WorkloadSpec(n_ranks=16, iterations=1, seed=1))
        work = np.array([rank_work(app, r) for r in range(16)])
        assert work.max() / work.min() < 1.35


class TestLulesh:
    def test_halo_neighbors(self):
        dims = (4, 4, 2)
        assert neighbors_3d(0, dims) == [1, 4, 16]
        assert len(neighbors_3d(5, dims)) == 5
        corner = neighbors_3d(31, dims)
        assert len(corner) == 3

    def test_p2p_between_collectives(self):
        app = make_lulesh(SMALL)
        prog = app.programs[0]
        assert any(isinstance(op, IsendOp) for op in prog)
        assert any(isinstance(op, CollectiveOp) for op in prog)

    def test_contention_makes_five_threads_best(self, time_model):
        app = make_lulesh(SMALL)
        k = next(op.kernel for op in app.programs[0]
                 if isinstance(op, ComputeOp))
        assert time_model.best_threads(k) in (4, 5)

    def test_min_cap_metadata(self):
        app = make_lulesh(SMALL)
        assert app.metadata["min_cap_per_socket_w"] == 40.0


class TestNasMz:
    def test_bt_strong_imbalance(self):
        app = make_bt(WorkloadSpec(n_ranks=16, iterations=1, seed=1))
        work = np.array([rank_work(app, r) for r in range(16)])
        assert work.max() / work.min() > 2.5

    def test_sp_balanced(self):
        app = make_sp(WorkloadSpec(n_ranks=16, iterations=1, seed=1))
        work = np.array([rank_work(app, r) for r in range(16)])
        assert work.max() / work.min() < 1.06

    def test_bt_power_hungry(self):
        """BT must overflow a 30 W cap at fmin/8t on leaky sockets — the
        clock-modulation pathology of §6.4."""
        app = make_bt(SMALL)
        k = next(op.kernel for op in app.programs[0]
                 if isinstance(op, ComputeOp))
        leaky = SocketPowerModel(efficiency=1.10)
        assert leaky.power(1.2, 8, k.activity, k.mem_intensity) > 27.0

    def test_sp_min_cap_metadata(self):
        assert make_sp(SMALL).metadata["min_cap_per_socket_w"] == 40.0
        assert "min_cap_per_socket_w" not in make_bt(SMALL).metadata

    def test_chain_communication(self):
        app = make_sp(SMALL)
        sends = [op for op in app.programs[0] if isinstance(op, IsendOp)]
        assert {op.dst for op in sends} == {1}  # rank 0 talks to rank 1 only
        sends_mid = [op for op in app.programs[3] if isinstance(op, IsendOp)]
        assert {op.dst for op in sends_mid} == {2, 4}
