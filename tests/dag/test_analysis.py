"""Unit tests for DAG scheduling analysis."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.dag import (
    DagBuilder,
    TaskGraph,
    VertexKind,
    critical_path_edges,
    edge_slack,
    fastest_configurations,
    fastest_durations,
    schedule_fixed_durations,
    unconstrained_schedule,
)
from repro.machine import SocketPowerModel, XEON_E5_2670
from repro.simulator import trace_application
from repro.workloads import random_application

from ..core.rounding_oracles import asap_reference


@pytest.fixture
def diamond(kernel):
    """Two ranks, imbalanced compute, then a collective."""
    b = DagBuilder(2)
    b.compute(0, kernel)               # light
    b.compute(1, kernel.scaled(2.0))   # heavy -> critical
    b.collective("allreduce", duration_s=0.001)
    b.compute(0, kernel)
    b.compute(1, kernel)
    return b.finalize()


class TestFixedDurationSchedule:
    def test_shape_checks(self, diamond):
        with pytest.raises(ValueError):
            schedule_fixed_durations(diamond, [1.0])
        with pytest.raises(ValueError):
            schedule_fixed_durations(diamond, [-1.0] * diamond.n_edges)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("edge", [0, 1, 2])
    def test_non_finite_durations_rejected(self, bad, edge):
        # INIT -> v1 -> FINALIZE plus INIT -> FINALIZE: a NaN on either
        # path used to read as nan or be dropped by the max, by edge order.
        g = TaskGraph(1)
        init = g.add_vertex(VertexKind.INIT).id
        mid = g.add_vertex(VertexKind.SEND, rank=0).id
        fin = g.add_vertex(VertexKind.FINALIZE).id
        g.add_message(init, mid, 1.0)
        g.add_message(mid, fin, 0.0)
        g.add_message(init, fin, 1.0)
        d = np.ones(3)
        d[edge] = bad
        with pytest.raises(ValueError, match="finite"):
            schedule_fixed_durations(g, d)

    def test_asap_property(self, diamond):
        d = np.ones(diamond.n_edges)
        s = schedule_fixed_durations(diamond, d)
        for e in diamond.edges:
            assert s.vertex_times[e.dst] >= s.vertex_times[e.src] + d[e.id] - 1e-12
        # Every non-init vertex has at least one tight in-edge.
        for v in diamond.vertices:
            ins = diamond.in_edges(v.id)
            if ins:
                gaps = [
                    s.vertex_times[v.id] - s.vertex_times[e.src] - d[e.id]
                    for e in ins
                ]
                assert min(gaps) == pytest.approx(0.0, abs=1e-9)

    def test_makespan_is_finalize_time(self, diamond):
        s = schedule_fixed_durations(diamond, np.ones(diamond.n_edges))
        assert s.makespan == pytest.approx(s.vertex_times.max())

    def test_task_window(self, diamond):
        s = schedule_fixed_durations(diamond, np.ones(diamond.n_edges))
        e = diamond.compute_edges()[0]
        lo, hi = s.task_window(diamond, e.id)
        assert lo == pytest.approx(s.vertex_times[e.src])
        assert hi == pytest.approx(s.vertex_times[e.dst])


class TestUnconstrainedSchedule:
    def test_durations_are_fastest(self, diamond, time_model):
        d = fastest_durations(diamond, time_model)
        for e in diamond.compute_edges():
            best = time_model.best_duration(e.kernel)
            assert d[e.id] == pytest.approx(best)

    def test_fastest_configurations_at_fmax(self, diamond, time_model):
        configs = fastest_configurations(diamond, time_model)
        assert all(
            c.freq_ghz == XEON_E5_2670.fmax_ghz for c in configs.values()
        )

    def test_heavy_task_on_critical_path(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        critical = set(critical_path_edges(diamond, s))
        heavy = max(
            diamond.compute_edges(), key=lambda e: e.kernel.cpu_seconds
        )
        assert heavy.id in critical

    def test_critical_path_connects_init_to_finalize(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        path = critical_path_edges(diamond, s)
        assert diamond.edges[path[0]].src == 0  # INIT is vertex 0
        for a, b in zip(path, path[1:]):
            assert diamond.edges[a].dst == diamond.edges[b].src

    def test_critical_path_durations_sum_to_makespan(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        path = critical_path_edges(diamond, s)
        total = sum(s.edge_durations[e] for e in path)
        assert total == pytest.approx(s.makespan)


class TestSlack:
    def test_critical_edges_have_zero_slack(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        slack = edge_slack(diamond, s)
        for e in critical_path_edges(diamond, s):
            assert slack[e] == pytest.approx(0.0, abs=1e-9)

    def test_light_task_has_slack(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        slack = edge_slack(diamond, s)
        light = min(
            diamond.compute_edges(), key=lambda e: e.kernel.cpu_seconds
        )
        heavy = max(
            diamond.compute_edges(), key=lambda e: e.kernel.cpu_seconds
        )
        # The light first-phase task idles while the heavy one finishes.
        if light.dst == heavy.dst:
            assert slack[light.id] > 0

    def test_slack_nonnegative(self, diamond, time_model):
        s = unconstrained_schedule(diamond, time_model)
        assert (edge_slack(diamond, s) >= 0).all()


class TestLevelWiseAsap:
    """The level-wise re-timing against the per-vertex loop, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        app=st.builds(
            random_application,
            n_ranks=st.integers(1, 5),
            iterations=st.integers(1, 3),
            seed=st.integers(0, 10_000),
            p_p2p=st.floats(0.0, 1.0),
        ),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.floats(0.0, 1.0),
    )
    def test_matches_the_per_vertex_loop(self, app, seed, zeros):
        models = [SocketPowerModel() for _ in range(app.n_ranks)]
        graph = trace_application(app, models).graph
        rng = np.random.default_rng(seed)
        d = rng.random(graph.n_edges) * rng.choice([1e-3, 1.0, 1e3])
        d[rng.random(graph.n_edges) < zeros] = 0.0
        got = schedule_fixed_durations(graph, d)
        want = asap_reference(graph, d)
        assert got.vertex_times.tobytes() == want.vertex_times.tobytes()
        assert got.edge_starts.tobytes() == want.edge_starts.tobytes()
        assert got.makespan == want.makespan

    def test_levels_only_read_earlier_levels(self, diamond):
        view = diamond.compiled()
        assert view.order.tolist() == diamond.topological_order()
        seen = {v.id for v in diamond.vertices if not diamond.in_edges(v.id)}
        for level in view.levels:
            assert set(level.src.tolist()) <= seen
            assert level.edges.tolist() == [
                e.id for v in level.vertices.tolist() for e in diamond.in_edges(v)
            ]
            seen |= set(level.vertices.tolist())
        assert seen == {v.id for v in diamond.vertices}

    def test_view_is_cached_until_the_graph_grows(self):
        graph = TaskGraph(1)
        init = graph.add_vertex(VertexKind.INIT).id
        fin = graph.add_vertex(VertexKind.FINALIZE).id
        graph.add_message(init, fin, 1.0)
        first = graph.compiled()
        assert graph.compiled() is first
        graph.add_message(init, fin, 2.0)
        grown = graph.compiled()
        assert grown is not first and grown.n_edges == 2
        assert schedule_fixed_durations(graph, grown.durations).makespan == 2.0
