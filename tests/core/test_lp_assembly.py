"""Bulk LP assembly and vectorized decode against their row-by-row oracles.

``base_model`` and ``compile_fixed_order`` append constraint rows as CSR
blocks, and ``extract_schedule`` decodes all tasks with whole-solution
gathers.  The oracles in
``tests/core/lp_oracles.py`` build and decode the same model one row and
one task at a time.  Every comparison here is exact: the same column
names and bounds, the same rows in the same order with the same tags,
the same CSR arrays and objective, and bit-identical task assignments.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core import (
    base_model,
    build_problem_instance,
    compile_fixed_order,
    extract_schedule,
    solve_fixed_order_lp,
)
from repro.core.solver import LpSolution, LpStatus
from repro.experiments.runner import make_power_models
from repro.simulator import trace_application
from repro.workloads import BENCHMARKS, WorkloadSpec, random_application
from tests.core.lp_oracles import (
    base_model_reference,
    compile_fixed_order_reference,
    extract_assignments_reference,
    frontier_family,
    solve_fixed_order_lp_reference,
)

N_RANKS = 4
CAP_PER_RANK_W = 45.0


def _trace(app):
    return trace_application(app, make_power_models(app.n_ranks))


@pytest.fixture(scope="module", params=sorted(BENCHMARKS))
def instance(request):
    app = BENCHMARKS[request.param](
        WorkloadSpec(n_ranks=N_RANKS, iterations=2, seed=3)
    )
    return build_problem_instance(_trace(app))


def assert_same_program(bulk, ref):
    """Two LinearPrograms assemble to exactly the same model."""
    assert list(bulk._names.items()) == list(ref._names.items())
    assert bulk.n_constraints == ref.n_constraints
    a, b = bulk.freeze(), ref.freeze()
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a._a, name), getattr(b._a, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a._a.shape == b._a.shape
    assert np.array_equal(a._lo, b._lo)
    assert np.array_equal(a._hi, b._hi)
    assert np.array_equal(a._c, b._c)
    assert a._var_lb == b._var_lb
    assert a._var_ub == b._var_ub
    assert a._integrality == b._integrality
    assert list(a._tag_rows) == list(b._tag_rows)
    for tag, rows in a._tag_rows.items():
        assert np.array_equal(rows, b._tag_rows[tag]), tag


def assert_same_compiled(bulk, ref):
    assert bulk.v_idx == ref.v_idx
    assert bulk.c_idx == ref.c_idx
    assert_same_program(bulk.lp, ref.lp)


def assert_same_compiled_base(instance):
    bulk = base_model(instance, "m")
    ref = base_model_reference(instance, "m")
    assert bulk[1] == ref[1]
    assert bulk[2] == ref[2]
    assert_same_program(bulk[0], ref[0])


def assert_same_assignments(got, want):
    assert list(got) == list(want)
    for ref, a in want.items():
        b = got[ref]
        assert b.edge_id == a.edge_id
        assert b.mixture == a.mixture, ref
        assert b.duration_s == a.duration_s, ref
        assert b.power_w == a.power_w, ref


class TestBenchmarkModels:
    def test_base_model(self, instance):
        assert_same_compiled_base(instance)

    def test_fixed_order(self, instance):
        cap = CAP_PER_RANK_W * N_RANKS
        assert_same_compiled(
            compile_fixed_order(instance, cap),
            compile_fixed_order_reference(instance, cap),
        )

    def test_fixed_order_without_tiebreak(self, instance):
        cap = CAP_PER_RANK_W * N_RANKS
        assert_same_compiled(
            compile_fixed_order(instance, cap, power_tiebreak=0.0),
            compile_fixed_order_reference(instance, cap, power_tiebreak=0.0),
        )

    @pytest.mark.parametrize("frac_tol", [1e-7, 0.5, 1.0])
    def test_decode(self, instance, frac_tol):
        """``frac_tol=1.0`` keeps no fraction, so every task takes the
        argmax fallback; the smaller tolerances keep real mixtures."""
        compiled = compile_fixed_order(instance, CAP_PER_RANK_W * N_RANKS)
        solution = compiled.lp.solve()
        assert solution.status is LpStatus.OPTIMAL
        got = extract_schedule(compiled, solution, frac_tol=frac_tol)
        want = extract_assignments_reference(compiled, solution.x, frac_tol)
        assert_same_assignments(got.assignments, want)

    def test_decode_of_wide_mixtures(self, instance):
        """Random fractions keep three or more points of most tasks: the
        runs the decode adds one by one rather than by ``reduceat``."""
        compiled = compile_fixed_order(instance, CAP_PER_RANK_W * N_RANKS)
        x = np.random.default_rng(5).random(compiled.lp.n_vars)
        got = extract_schedule(
            compiled, LpSolution(LpStatus.OPTIMAL, 0.0, x)
        )
        assert (np.diff(got.tasks.mix_ptr) > 2).any()
        want = extract_assignments_reference(compiled, x)
        assert_same_assignments(got.assignments, want)
        assert got.total_energy_j() == sum(
            a.duration_s * a.power_w for a in want.values()
        )


def test_discrete_model_matches():
    """The eq. 5 MILP oracle is the product's model over the full Pareto
    sets with binary fraction columns: the product build on an instance
    whose convex frontiers are swapped for the Pareto sets matches it in
    everything but the integrality."""
    app = random_application(n_ranks=2, iterations=1, seed=7)
    instance = build_problem_instance(_trace(app))
    on_pareto = dataclasses.replace(
        instance, convex=frontier_family(instance, discrete=True)
    )
    bulk = compile_fixed_order(on_pareto, 100.0)
    ref = compile_fixed_order_reference(instance, 100.0, discrete=True)
    binary = sorted(col for cols in ref.c_idx.values() for col in cols)
    assert np.flatnonzero(ref.lp._integrality).tolist() == binary
    assert not bulk.lp.is_mip
    ref.lp._integrality = list(bulk.lp._integrality)
    assert_same_compiled(bulk, ref)


def test_solve_path_matches_oracle_path():
    """The product solve and the oracle solve return the same primal
    vector, makespan and schedule, at a feasible cap and an infeasible one."""
    app = BENCHMARKS["comd"](WorkloadSpec(n_ranks=N_RANKS, iterations=2, seed=3))
    trace = _trace(app)
    for cap in (CAP_PER_RANK_W * N_RANKS, 1.0):
        got = solve_fixed_order_lp(trace, cap)
        want = solve_fixed_order_lp_reference(trace, cap)
        assert got.feasible == want.feasible
        if not want.feasible:
            continue
        assert np.array_equal(got.solution.x, want.solution.x)
        assert got.makespan_s == want.makespan_s
        assert np.array_equal(
            got.schedule.vertex_times, want.schedule.vertex_times
        )
        assert got.schedule.solver_info == want.schedule.solver_info
        assert_same_assignments(
            got.schedule.assignments, want.schedule.assignments
        )


@given(
    app=st.builds(
        random_application,
        n_ranks=st.integers(2, 4),
        iterations=st.integers(1, 3),
        seed=st.integers(0, 5_000),
        p_p2p=st.floats(0.0, 1.0),
    ),
    cap_per_rank=st.floats(25.0, 90.0),
)
# Task 0:1 keeps three fractions: np.add.reduceat sums them in another
# order than the per-task .sum() and moved a fraction by one ulp.
@example(app=random_application(n_ranks=3, iterations=3, seed=1), cap_per_rank=28.0)
@settings(max_examples=20, deadline=None)
def test_random_applications_match(app, cap_per_rank):
    instance = build_problem_instance(_trace(app))
    cap = cap_per_rank * app.n_ranks
    bulk = compile_fixed_order(instance, cap)
    assert_same_compiled(bulk, compile_fixed_order_reference(instance, cap))
    solution = bulk.lp.solve()
    if solution.status is LpStatus.OPTIMAL:
        got = extract_schedule(bulk, solution)
        want = extract_assignments_reference(bulk, solution.x)
        assert_same_assignments(got.assignments, want)
