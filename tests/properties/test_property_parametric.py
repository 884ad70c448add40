"""Property: parametric re-solve is indistinguishable from rebuilding.

The parametric cap solver freezes one matrix and swaps the cap into the
tagged rows' RHS; the rebuild oracle (``tests/core/lp_oracles.py``)
assembles a fresh model per cap, row by row.  For any random application
and any cap grid the two must agree — same feasibility verdicts, same
makespans, same primal vectors (HiGHS is deterministic on identical
inputs, and the inputs are identical by construction).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import ParametricCapSolver, solve_cap_sweep
from repro.machine import SocketPowerModel
from repro.simulator import trace_application
from repro.workloads import random_application

from ..core.lp_oracles import solve_fixed_order_lp_reference

apps = st.builds(
    random_application,
    n_ranks=st.integers(2, 3),
    iterations=st.integers(1, 2),
    seed=st.integers(0, 5_000),
    p_p2p=st.floats(0.0, 1.0),
)

cap_grids = st.lists(st.floats(15.0, 120.0), min_size=1, max_size=4,
                     unique=True)


def trace_for(app):
    models = [
        SocketPowerModel(efficiency=1.0 + 0.03 * r) for r in range(app.n_ranks)
    ]
    return trace_application(app, models)


class TestParametricEquivalence:
    @given(app=apps, caps_per_rank=cap_grids)
    @settings(max_examples=20, deadline=None)
    def test_solver_matches_independent_solves(self, app, caps_per_rank):
        trace = trace_for(app)
        solver = ParametricCapSolver(trace)
        for cap_per_rank in caps_per_rank:
            cap = cap_per_rank * app.n_ranks
            para = solver.solve(cap)
            fresh = solve_fixed_order_lp_reference(trace, cap)
            assert para.feasible == fresh.feasible
            if not para.feasible:
                continue
            assert para.makespan_s == fresh.makespan_s  # exact, not approx
            assert np.array_equal(para.solution.x, fresh.solution.x)

    @given(app=apps, caps_per_rank=cap_grids)
    @settings(max_examples=10, deadline=None)
    def test_sweep_paths_identical(self, app, caps_per_rank):
        trace = trace_for(app)
        caps = [c * app.n_ranks for c in caps_per_rank]
        sweep = solve_cap_sweep(trace, caps)
        rebuilt = {}
        for cap in caps:
            result = solve_fixed_order_lp_reference(trace, cap)
            rebuilt[cap] = result.makespan_s if result.feasible else None
        assert sweep.makespans() == rebuilt

    @given(app=apps, cap_per_rank=st.floats(25.0, 90.0))
    @settings(max_examples=10, deadline=None)
    def test_repeat_solve_is_stable(self, app, cap_per_rank):
        trace = trace_for(app)
        solver = ParametricCapSolver(trace)
        cap = cap_per_rank * app.n_ranks
        first = solver.solve(cap)
        second = solver.solve(cap)
        assert first.feasible == second.feasible
        if first.feasible:
            assert first.makespan_s == second.makespan_s
        assert solver.n_solves == 2
