"""Tests for the shared problem-instance IR and model compilation."""

import numpy as np
import pytest

from repro.core import (
    LpStatus,
    build_problem_instance,
    compile_energy,
    compile_fixed_order,
    compile_flow_ilp,
    extract_schedule,
    solve_fixed_order_lp,
)
from repro.core.model import MODEL_LAYER_VERSION, TaskFrontier, _as_frontiers
from repro.dag.graph import VertexKind
from repro.experiments import make_power_models
from repro.simulator import trace_application
from repro.workloads import imbalanced_collective_app

from .lp_oracles import compile_fixed_order_reference, frontier_family


@pytest.fixture(scope="module")
def trace():
    app = imbalanced_collective_app(n_ranks=3, iterations=2, spread=1.3)
    return trace_application(app, make_power_models(3, 7))


@pytest.fixture(scope="module")
def instance(trace):
    return build_problem_instance(trace)


class TestProblemInstance:
    def test_anchors(self, trace, instance):
        assert instance.init_id == trace.graph.find_vertex(VertexKind.INIT).id
        assert instance.fin_id == trace.graph.find_vertex(VertexKind.FINALIZE).id
        assert instance.graph is trace.graph
        assert instance.version == MODEL_LAYER_VERSION

    def test_frontiers_mirror_trace(self, trace, instance):
        assert set(instance.convex) == set(trace.frontiers)
        assert set(frontier_family(instance, discrete=True)) == set(trace.pareto)
        for edge_id, tf in instance.convex.items():
            points = trace.frontiers[edge_id]
            assert isinstance(tf, TaskFrontier)
            assert len(tf) == len(points)
            np.testing.assert_allclose(
                tf.durations, [p.duration_s for p in points]
            )
            np.testing.assert_allclose(tf.powers, [p.power_w for p in points])

    def test_frontier_family(self, trace, instance):
        assert frontier_family(instance, discrete=False) is instance.convex
        pareto = frontier_family(instance, discrete=True)
        for edge_id, tf in pareto.items():
            assert tf.points == tuple(trace.pareto[edge_id])

    def test_unconstrained_makespan(self, instance):
        assert instance.unconstrained_makespan_s() == pytest.approx(
            float(instance.events.initial.makespan)
        )

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError, match="empty frontier"):
            _as_frontiers({0: []})

    def test_events_shared_when_given(self, trace, instance):
        again = build_problem_instance(trace, events=instance.events)
        assert again.events is instance.events


class TestCompilation:
    def test_all_formulations_compile_from_one_instance(self, instance):
        fixed = compile_fixed_order(instance, cap_w=100.0)
        energy = compile_energy(instance, slowdown=0.1)
        flow = compile_flow_ilp(instance, cap_w=100.0)
        assert fixed.instance is instance
        assert energy.instance is instance
        assert flow.instance is instance
        assert {fixed.formulation, energy.formulation, flow.formulation} == {
            "fixed-order", "energy-lp", "flow-ilp"
        }

    def test_base_rows_shared(self, instance):
        # Same trace structure -> same vertex variables and simplex rows
        # across formulations, regardless of objective.
        fixed = compile_fixed_order(instance, cap_w=100.0)
        energy = compile_energy(instance)
        assert fixed.v_idx == energy.v_idx
        assert fixed.c_idx == energy.c_idx

    def test_init_pinned(self, instance):
        fixed = compile_fixed_order(instance, cap_w=100.0)
        lb, ub = fixed.lp.var_bounds(fixed.v_idx[instance.init_id])
        assert (lb, ub) == (0.0, 0.0)

    def test_discrete_uses_pareto(self, trace, instance):
        disc = compile_fixed_order_reference(instance, cap_w=100.0, discrete=True)
        assert {e: tf.points for e, tf in disc.frontiers.items()} == {
            e: tuple(points) for e, points in trace.pareto.items()
        }
        assert disc.kind == "discrete"
        assert disc.lp.is_mip

    def test_compiled_matches_entry_point(self, instance):
        compiled = compile_fixed_order(instance, cap_w=120.0)
        solution = compiled.lp.solve()
        assert solution.status is LpStatus.OPTIMAL
        schedule = extract_schedule(compiled, solution)
        res = solve_fixed_order_lp(instance.trace, 120.0, instance=instance)
        assert schedule.objective_s == pytest.approx(res.makespan_s)
        assert schedule.cap_w == 120.0
        for ref, a in schedule.assignments.items():
            b = res.schedule.assignments[ref]
            assert a.duration_s == pytest.approx(b.duration_s)
            assert a.power_w == pytest.approx(b.power_w)


class TestExtractSchedule:
    def test_needs_cap(self, instance):
        energy = compile_energy(instance)
        energy.cap_w = None
        solution = energy.lp.solve()
        with pytest.raises(ValueError, match="cap"):
            extract_schedule(energy, solution)

    def test_solver_info_merged(self, instance):
        energy = compile_energy(instance, slowdown=0.05)
        solution = energy.lp.solve()
        schedule = extract_schedule(energy, solution)
        assert schedule.solver_info["formulation"] == "energy-lp"
        assert schedule.solver_info["n_vars"] == energy.lp.n_vars
        assert "time_budget_s" in schedule.solver_info

    def test_mixture_normalized(self, instance):
        compiled = compile_fixed_order(instance, cap_w=90.0)
        solution = compiled.lp.solve()
        if solution.status is not LpStatus.OPTIMAL:
            pytest.skip("cap infeasible for this trace")
        schedule = extract_schedule(compiled, solution)
        for a in schedule.assignments.values():
            assert sum(f for _, f in a.mixture) == pytest.approx(1.0)

    def test_tiny_fraction_snaps_to_argmax(self, instance):
        # A degenerate solution vector (all fractions ~0) must still decode
        # to a single valid configuration.
        compiled = compile_fixed_order(instance, cap_w=500.0)
        solution = compiled.lp.solve()
        x = solution.x.copy()
        edge_id = next(iter(compiled.c_idx))
        for col in compiled.c_idx[edge_id]:
            x[col] = 0.0
        x[compiled.c_idx[edge_id][0]] = 1e-12
        degenerate = type(solution)(
            status=solution.status, objective=solution.objective, x=x
        )
        schedule = extract_schedule(compiled, degenerate)
        ref = instance.trace.edge_refs[edge_id]
        mixture = schedule.assignments[ref].mixture
        assert len(mixture) == 1
        assert mixture[0][1] == pytest.approx(1.0)


class TestLayerBoundaries:
    def test_formulations_do_not_build_events(self):
        # Acceptance: formulations consume the IR; only the model layer
        # touches event-structure and task-space measurement.
        import inspect

        from repro.core import energy_lp, fixed_order_lp, flow_ilp

        for mod in (fixed_order_lp, energy_lp, flow_ilp):
            src = inspect.getsource(mod)
            assert "build_event_structure" not in src, mod.__name__
            assert "measure_task_space" not in src, mod.__name__
