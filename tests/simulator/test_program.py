"""Unit tests for the program representation."""

import pytest

from repro.simulator import (
    Application,
    CollectiveOp,
    ComputeOp,
    IrecvOp,
    IsendOp,
    MaxPerformancePolicy,
    PcontrolOp,
    RecvOp,
    SendOp,
    TaskRef,
    WaitOp,
)


class TestApplication:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Application("x", [])

    def test_bad_iterations(self, kernel):
        with pytest.raises(ValueError):
            Application("x", [[ComputeOp(kernel)]], iterations=0)

    def test_n_ranks_and_tasks(self, p2p_app):
        assert p2p_app.n_ranks == 2
        assert p2p_app.n_tasks() == 8  # 2 per rank per iteration, 2 iters

    def test_compute_ops_order(self, p2p_app):
        labels = [op.label for op in p2p_app.compute_ops(0)]
        assert labels == ["a0", "b0", "a0", "b0"]

    def test_task_kernel_lookup(self, p2p_app, kernel):
        k = p2p_app.task_kernel(TaskRef(0, 0))
        assert k.cpu_seconds == pytest.approx(kernel.cpu_seconds)
        with pytest.raises(KeyError):
            p2p_app.task_kernel(TaskRef(0, 99))


class TestValidation:
    def test_collective_misalignment_caught(self, kernel):
        p0 = [ComputeOp(kernel), CollectiveOp()]
        p1 = [ComputeOp(kernel)]
        with pytest.raises(ValueError, match="collectives"):
            Application("x", [p0, p1]).validate()

    def test_request_reuse_caught(self, kernel):
        prog = [
            IsendOp(dst=0, size_bytes=8, request=1),
            IsendOp(dst=0, size_bytes=8, request=1),
            WaitOp(1),
            WaitOp(1),
        ]
        with pytest.raises(ValueError, match="reused"):
            Application("x", [prog]).validate()

    def test_wait_on_unknown_request_caught(self):
        with pytest.raises(ValueError, match="unknown request"):
            Application("x", [[WaitOp(3)]]).validate()

    def test_unwaited_request_caught(self):
        prog = [IsendOp(dst=0, size_bytes=8, request=1)]
        with pytest.raises(ValueError, match="unwaited"):
            Application("x", [prog]).validate()

    def test_valid_program_passes(self, p2p_app):
        p2p_app.validate()

    def test_program_changed_after_a_run_is_checked_again(self, p2p_app, engine):
        engine.run(p2p_app, MaxPerformancePolicy())
        p2p_app.validate()  # remembered: the programs did not change
        p2p_app.programs[1].insert(0, RecvOp(src=0, tag=99))
        with pytest.raises(ValueError, match="unmatched"):
            engine.run(p2p_app, MaxPerformancePolicy())

    def test_replaced_op_is_checked_again(self, p2p_app, engine):
        engine.run(p2p_app, MaxPerformancePolicy())
        prog = p2p_app.programs[0]
        k = next(i for i, op in enumerate(prog) if isinstance(op, PcontrolOp))
        prog[k] = CollectiveOp(iteration=prog[k].iteration)
        prog[k] = PcontrolOp(prog[k].iteration)  # equal again: still valid
        engine.run(p2p_app, MaxPerformancePolicy())
        prog.pop(k)
        with pytest.raises(ValueError, match="collectives"):
            engine.run(p2p_app, MaxPerformancePolicy())


def _old_tasks_per_iteration(app: Application) -> dict[int, int]:
    """The per-policy rescan the runtimes used before the count moved onto
    the application."""
    return {
        r: max(1, sum(
            1 for op in app.programs[r]
            if isinstance(op, ComputeOp) and op.iteration == 0
        ))
        for r in range(app.n_ranks)
    }


class TestTasksPerIteration:
    @pytest.mark.parametrize("bench", ["bt", "sp", "comd", "lulesh"])
    def test_matches_the_per_policy_rescan(self, bench):
        from repro.workloads import BENCHMARKS, WorkloadSpec

        app = BENCHMARKS[bench](WorkloadSpec(n_ranks=4, iterations=3, seed=2015))
        assert app.tasks_per_iteration() == _old_tasks_per_iteration(app)
        # Read back, and a copy: a caller's edit cannot reach the next one.
        counts = app.tasks_per_iteration()
        counts[0] = -1
        assert app.tasks_per_iteration() == _old_tasks_per_iteration(app)

    def test_counted_again_after_a_program_edit(self, p2p_app, kernel):
        assert p2p_app.tasks_per_iteration() == {0: 2, 1: 2}
        p2p_app.programs[0].insert(0, ComputeOp(kernel, 0, label="extra"))
        assert p2p_app.tasks_per_iteration() == {0: 3, 1: 2}
        p2p_app.programs[1][:] = [
            op for op in p2p_app.programs[1] if not isinstance(op, ComputeOp)
        ]
        # A rank without iteration-0 tasks counts one.
        assert p2p_app.tasks_per_iteration() == {0: 3, 1: 1}
        assert p2p_app.tasks_per_iteration() == _old_tasks_per_iteration(p2p_app)


class TestTaskRef:
    def test_hashable_identity(self):
        assert TaskRef(1, 2) == TaskRef(1, 2)
        assert len({TaskRef(0, 0), TaskRef(0, 0), TaskRef(0, 1)}) == 2


class TestOps:
    def test_ops_are_frozen(self, kernel):
        op = ComputeOp(kernel)
        with pytest.raises(AttributeError):
            op.iteration = 5

    def test_defaults(self):
        c = CollectiveOp()
        assert c.kind == "allreduce"
        assert c.participants is None
        s = SendOp(dst=1, size_bytes=100)
        assert s.tag == 0
        r = RecvOp(src=0)
        assert r.iteration == -1
        ir = IrecvOp(src=0, request=2)
        assert ir.tag == 0
        p = PcontrolOp(3)
        assert p.iteration == 3
