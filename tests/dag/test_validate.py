"""Unit tests for the deep task-graph checker in ``tests/dag/checks.py``."""

import pytest

from repro.dag import DagBuilder, TaskGraph, VertexKind
from tests.dag.checks import deep_validate


class TestDeepValidate:
    def test_traced_app_passes(self, p2p_trace):
        deep_validate(p2p_trace.graph)

    def test_disconnected_fails(self, kernel):
        g = TaskGraph(1)
        init = g.add_vertex(VertexKind.INIT)
        fin = g.add_vertex(VertexKind.FINALIZE)
        g.add_compute(init.id, fin.id, rank=0, kernel=kernel)
        g.add_vertex(VertexKind.SEND, rank=0)  # orphan vertex
        with pytest.raises(ValueError, match="connected"):
            deep_validate(g)

    def test_same_rank_costly_message_fails(self, kernel):
        g = TaskGraph(1)
        init = g.add_vertex(VertexKind.INIT)
        a = g.add_vertex(VertexKind.SEND, rank=0)
        fin = g.add_vertex(VertexKind.FINALIZE)
        g.add_compute(init.id, a.id, rank=0, kernel=kernel)
        b = g.add_vertex(VertexKind.RECV, rank=0)
        g.add_message(a.id, b.id, duration_s=1.0)  # same rank, nonzero cost
        g.add_message(b.id, fin.id, 0.0)
        with pytest.raises(ValueError, match="nonzero duration"):
            deep_validate(g)

    def test_zero_cost_program_order_edges_allowed(self, kernel):
        b = DagBuilder(2)
        b.compute(0, kernel)
        b.isend(0, 1)  # creates program-order edges on rank 1's side later
        b.compute(1, kernel)
        b.wait(0)
        g = b.finalize()
        deep_validate(g)
