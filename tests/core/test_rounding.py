"""Unit tests for continuous -> discrete schedule rounding."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import round_schedule, solve_fixed_order_lp
from repro.core.rounding import _pick_indices
from repro.machine import Configuration, ConfigPoint, SocketPowerModel, TaskKernel
from repro.simulator import trace_application

from ..conftest import make_p2p_app

CAP = 58.0


@pytest.fixture(scope="module")
def lp_and_trace():
    kernel = TaskKernel(cpu_seconds=1.0, mem_seconds=0.2,
                        parallel_fraction=0.98, mem_parallel_fraction=0.9,
                        bw_saturation_threads=4, mem_intensity=0.3)
    models = [SocketPowerModel(efficiency=1.0), SocketPowerModel(efficiency=1.05)]
    trace = trace_application(make_p2p_app(kernel, iterations=2), models)
    res = solve_fixed_order_lp(trace, CAP)
    assert res.feasible
    return res.schedule, trace


class TestRounding:
    def test_discrete_kind_and_singleton_mixtures(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched)
        assert disc.kind == "discrete"
        for a in disc.assignments.values():
            assert a.is_discrete
            assert len(a.mixture) == 1

    def test_configs_on_frontier(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="nearest")
        for a in disc.assignments.values():
            frontier_cfgs = {p.config for p in trace.frontiers[a.edge_id]}
            assert a.configuration in frontier_cfgs

    def test_nearest_picks_closest_power(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="nearest")
        for ref, a in disc.assignments.items():
            target = sched.assignments[ref].power_w
            best_gap = min(
                abs(p.power_w - target) for p in trace.frontiers[a.edge_id]
            )
            assert abs(a.power_w - target) == pytest.approx(best_gap)

    def test_floor_never_exceeds_lp_power(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="floor")
        for ref, a in disc.assignments.items():
            cont = sched.assignments[ref]
            lowest = min(p.power_w for p in trace.frontiers[a.edge_id])
            assert (
                a.power_w <= cont.power_w + 1e-9
                or a.power_w == pytest.approx(lowest)
            )

    def test_dominant_picks_biggest_fraction(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="dominant")
        for ref, a in disc.assignments.items():
            assert a.configuration == sched.assignments[ref].dominant.config

    def test_retimed_makespan_close_to_lp(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="nearest")
        # Rounding moves each task at most one hull segment: small change.
        assert disc.objective_s == pytest.approx(sched.objective_s, rel=0.1)

    def test_floor_slower_than_continuous(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="floor")
        assert disc.objective_s >= sched.objective_s - 1e-9

    def test_unknown_mode(self, lp_and_trace):
        sched, trace = lp_and_trace
        with pytest.raises(ValueError):
            round_schedule(trace, sched, mode="bogus")

    def test_rejects_discrete_input(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched)
        with pytest.raises(ValueError):
            round_schedule(trace, disc)

    def test_solver_info_kept(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="floor")
        assert disc.solver_info["rounding"] == "floor"
        assert disc.solver_info["continuous_objective_s"] == pytest.approx(
            sched.objective_s
        )


# ----------------------------------------------------------------------
# The per-point list scan rounding used before it read frontier arrays:
# the oracle for the array pick, ties included.


def list_pick(frontier, target_power, mode):
    if mode == "nearest":
        return min(
            frontier, key=lambda p: (abs(p.power_w - target_power), p.duration_s)
        )
    below = [p for p in frontier if p.power_w <= target_power + 1e-9]
    if below:
        return max(below, key=lambda p: p.power_w)
    return min(frontier, key=lambda p: p.power_w)


def array_pick(frontier, targets, mode):
    powers = np.array([p.power_w for p in frontier])
    durations = np.array([p.duration_s for p in frontier])
    idx = _pick_indices(powers, durations, np.array(targets, dtype=float), mode)
    return [frontier[k] for k in idx.tolist()]


_POWERS = [10.0, 12.5, 20.0, 30.0]

# Small value sets make exact power and (power, duration) ties common;
# every point is a distinct object so a pick is identified by position.
frontiers = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_POWERS), st.floats(1.0, 100.0)),
        st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0)),
    ),
    min_size=1,
    max_size=12,
).map(
    lambda rows: [
        ConfigPoint(Configuration(1.0 + 0.1 * k, 1), d, p)
        for k, (p, d) in enumerate(rows)
    ]
)

targets = st.lists(
    st.one_of(
        st.sampled_from(_POWERS + [11.25, 16.25, 25.0]),
        st.sampled_from(_POWERS).map(lambda p: p - 1e-9),
        st.sampled_from(_POWERS).map(lambda p: p - 2e-9),
        st.floats(0.5, 120.0),
    ),
    min_size=1,
    max_size=8,
)


class TestArrayPick:
    @settings(max_examples=300, deadline=None)
    @given(
        frontier=frontiers,
        targets=targets,
        mode=st.sampled_from(["nearest", "floor"]),
        ordered=st.booleans(),
    )
    def test_matches_the_list_scan(self, frontier, targets, mode, ordered):
        if ordered:  # trace frontiers are sorted by power
            frontier = sorted(frontier, key=lambda p: p.power_w)
        got = array_pick(frontier, targets, mode)
        want = [list_pick(frontier, t, mode) for t in targets]
        assert all(g is w for g, w in zip(got, want))

    def test_exact_power_tie_keeps_the_first_point(self):
        a = ConfigPoint(Configuration(1.0, 1), 2.0, 20.0)
        b = ConfigPoint(Configuration(1.1, 1), 1.0, 20.0)
        c = ConfigPoint(Configuration(1.2, 1), 0.5, 30.0)
        assert array_pick([a, b, c], [25.0], "floor") == [a]
        assert array_pick([a, b, c], [21.0], "nearest") == [b]  # faster twin
        assert array_pick([a, b, c], [25.0], "nearest") == [c]  # equal gaps
        assert array_pick([b, a], [20.0], "floor") == [b]

    @pytest.mark.parametrize("mode", ["nearest", "floor"])
    def test_round_schedule_matches_the_list_scan(self, lp_and_trace, mode):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode=mode)
        for ref, a in disc.assignments.items():
            want = list_pick(
                trace.frontiers[a.edge_id], sched.assignments[ref].power_w, mode
            )
            assert a.mixture[0][0] is want
