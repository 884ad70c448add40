"""Tests for the discrete (MILP) variant of the fixed-order formulation.

The MILP is a test oracle (``tests/core/lp_oracles.py``): the product
solves the continuous LP and rounds.  These tests hold the two to the
relations paper §3.2 states between them.
"""

import functools

import pytest

from repro.core import round_schedule, solve_fixed_order_lp
from repro.machine import SocketPowerModel, TaskKernel
from repro.simulator import trace_application
from repro.workloads import WorkloadSpec, make_comd

from ..conftest import make_p2p_app
from .lp_oracles import MAX_DISCRETE_TASKS, solve_fixed_order_lp_reference

solve_discrete = functools.partial(solve_fixed_order_lp_reference, discrete=True)


@pytest.fixture(scope="module")
def trace():
    kernel = TaskKernel(cpu_seconds=1.0, mem_seconds=0.2,
                        parallel_fraction=0.98, mem_parallel_fraction=0.9,
                        bw_saturation_threads=4, mem_intensity=0.3)
    models = [SocketPowerModel(), SocketPowerModel(efficiency=1.05)]
    return trace_application(make_p2p_app(kernel, iterations=2), models)


class TestDiscreteFormulation:
    def test_single_configuration_per_task(self, trace):
        res = solve_discrete(trace, 58.0)
        assert res.feasible
        assert res.schedule.kind == "discrete"
        for a in res.schedule.assignments.values():
            assert a.is_discrete

    def test_bounded_by_continuous(self, trace):
        """Discrete is a restriction: its optimum can only be >= the
        continuous relaxation's."""
        for cap in (48.0, 58.0, 80.0):
            cont = solve_fixed_order_lp(trace, cap)
            disc = solve_discrete(trace, cap)
            assert disc.makespan_s >= cont.makespan_s - 1e-9

    def test_close_to_continuous(self, trace):
        """Paper §3.1: 'the LP and ILP formulations yield similar results'
        — the relaxation gap is small."""
        cont = solve_fixed_order_lp(trace, 58.0)
        disc = solve_discrete(trace, 58.0)
        assert disc.makespan_s <= cont.makespan_s * 1.05

    def test_beats_or_matches_rounding(self, trace):
        """The exact MILP never loses to heuristic rounding at the same
        cap (rounding may also overshoot the cap; the MILP cannot)."""
        cap = 58.0
        cont = solve_fixed_order_lp(trace, cap)
        rounded = round_schedule(trace, cont.schedule, mode="floor")
        disc = solve_discrete(trace, cap)
        assert disc.makespan_s <= rounded.objective_s + 1e-9

    def test_discrete_respects_cap_at_events(self, trace):
        cap = 52.0
        res = solve_discrete(trace, cap)
        for act in res.events.active.values():
            total = sum(
                res.schedule.assignments[trace.edge_refs[e]].power_w
                for e in act
            )
            assert total <= cap * (1 + 1e-6)

    def test_size_guard(self):
        app = make_comd(WorkloadSpec(n_ranks=8, iterations=8, seed=0))
        models = [SocketPowerModel() for _ in range(8)]
        trace = trace_application(app, models)
        assert len(trace.task_edges) > MAX_DISCRETE_TASKS
        with pytest.raises(ValueError, match="discrete formulation limited"):
            solve_discrete(trace, 240.0)
