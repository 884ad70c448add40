"""Unit tests for the DAG builder."""

import pytest

from repro.dag import DagBuilder, VertexKind
from tests.dag.checks import deep_validate


class TestBasicShapes:
    def test_compute_only(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        b.compute(1, kernel)
        g = b.finalize()
        assert len(g.compute_edges()) == 2
        deep_validate(g)

    def test_consecutive_computes_merge(self, kernel):
        b = DagBuilder(1)
        b.compute(0, kernel)
        b.compute(0, kernel.scaled(2.0))
        g = b.finalize()
        (edge,) = g.compute_edges()
        assert edge.kernel.cpu_seconds == pytest.approx(3 * kernel.cpu_seconds)
        assert edge.kernel.mem_seconds == pytest.approx(3 * kernel.mem_seconds)

    def test_merge_blends_characteristics(self, kernel, memory_kernel):
        b = DagBuilder(1)
        b.compute(0, kernel)
        b.compute(0, memory_kernel)
        g = b.finalize()
        (edge,) = g.compute_edges()
        k = edge.kernel
        assert min(kernel.mem_intensity, memory_kernel.mem_intensity) <= \
            k.mem_intensity <= max(kernel.mem_intensity, memory_kernel.mem_intensity)
        assert k.contention_threshold == min(
            kernel.contention_threshold, memory_kernel.contention_threshold
        )

    def test_send_recv(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        sv, rv = b.send(0, 1, duration_s=1e-5, size_bytes=1024)
        b.compute(1, kernel)
        g = b.finalize()
        msg = [
            e for e in g.message_edges() if e.src == sv and e.dst == rv
        ]
        assert len(msg) == 1
        assert msg[0].duration_s == pytest.approx(1e-5)
        deep_validate(g)

    def test_isend_recv_from(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        sv = b.isend(0, 1)
        b.compute(0, kernel)
        b.wait(0)
        b.compute(1, kernel)
        b.recv_from(1, sv, duration_s=2e-5)
        g = b.finalize()
        deep_validate(g)
        kinds = {v.kind for v in g.vertices}
        assert VertexKind.ISEND in kinds and VertexKind.WAIT in kinds

    def test_collective_shares_vertex(self, kernel):
        b = DagBuilder(3)
        for r in range(3):
            b.compute(r, kernel)
        shared = b.collective("allreduce", duration_s=1e-5)
        for r in range(3):
            b.compute(r, kernel)
        g = b.finalize()
        # Three wire edges converge on the shared vertex; three tasks leave.
        assert len(g.in_edges(shared)) == 3
        assert len(g.out_edges(shared)) == 3
        deep_validate(g)

    def test_pcontrol_is_zero_cost_barrier(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        b.compute(1, kernel)
        b.pcontrol(0)
        g = b.finalize()
        wires = [e for e in g.message_edges() if "pcontrol" in e.label]
        assert wires and all(e.duration_s == 0.0 for e in wires)


class TestBuilderGuards:
    def test_finalize_twice(self, kernel):
        b = DagBuilder(1)
        b.compute(0, kernel)
        b.finalize()
        with pytest.raises(RuntimeError):
            b.finalize()

    def test_compute_after_finalize(self, kernel):
        b = DagBuilder(1)
        b.compute(0, kernel)
        b.finalize()
        with pytest.raises(RuntimeError):
            b.compute(0, kernel)

    def test_bad_rank(self, kernel):
        b = DagBuilder(2)
        with pytest.raises(ValueError):
            b.compute(5, kernel)

    def test_empty_collective(self):
        b = DagBuilder(2)
        with pytest.raises(ValueError):
            b.collective(ranks=[])

    def test_rank_without_work_fails_deep_validation(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        g = b.finalize()
        with pytest.raises(ValueError, match="no compute"):
            deep_validate(g)


class TestIterationTagging:
    def test_iteration_propagates_to_edges(self, kernel):
        b = DagBuilder(1)
        b.compute(0, kernel, iteration=7)
        g = b.finalize()
        assert g.compute_edges()[0].iteration == 7

    def test_labels_kept(self, kernel):
        b = DagBuilder(1)
        b.compute(0, kernel, label="force")
        g = b.finalize()
        assert g.compute_edges()[0].label == "force"
