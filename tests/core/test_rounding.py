"""Unit tests for continuous -> discrete schedule rounding."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    PowerSchedule,
    TaskAssignment,
    round_schedule,
    schedule_from_dict,
    schedule_to_dict,
    solve_fixed_order_lp,
)
from repro.core.rounding import RoundingTable, rounding_table
from repro.machine import Configuration, ConfigPoint, SocketPowerModel, TaskKernel
from repro.simulator import trace_application
from repro.workloads import random_application

from ..conftest import make_p2p_app
from .rounding_oracles import pick_indices_reference, round_schedule_reference

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
# the oracle for the table pick, ties included.


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
    table = RoundingTable.build({0: frontier}, 1)
    rows = np.zeros(len(targets), dtype=np.int64)
    idx = table.pick(rows, np.array(targets, dtype=float), mode)
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

    @settings(max_examples=200, deadline=None)
    @given(
        fronts=st.lists(frontiers, min_size=1, max_size=5),
        targets=targets,
        mode=st.sampled_from(["nearest", "floor"]),
        data=st.data(),
    )
    def test_padded_rows_match_the_per_frontier_pick(
        self, fronts, targets, mode, data
    ):
        """Frontiers of different lengths share one padded table; each
        row picks as the one-frontier pick over its own arrays does."""
        table = RoundingTable.build(dict(enumerate(fronts)), len(fronts))
        rows = np.array(
            data.draw(st.lists(st.integers(0, len(fronts) - 1),
                               min_size=len(targets), max_size=len(targets)))
        )
        got = table.pick(rows, np.array(targets, dtype=float), mode)
        for r, t, k in zip(rows.tolist(), targets, got.tolist()):
            front = fronts[r]
            want = pick_indices_reference(
                np.array([p.power_w for p in front]),
                np.array([p.duration_s for p in front]),
                np.array([t]),
                mode,
            )
            assert k == int(want[0])

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


# ----------------------------------------------------------------------
# The whole rounding path against the per-frontier oracle, over random
# programs and random continuous schedules.

def random_continuous_schedule(trace, seed):
    """Mixtures of one to three frontier points per task, in any order,
    with equal fractions often enough to tie the dominant pick; task
    powers are the mixture's, or a frontier power nudged by less than
    the floor tolerance."""
    rng = np.random.default_rng(seed)
    assignments = {}
    for ref, edge_id in trace.task_edges.items():
        front = trace.frontiers[edge_id]
        k = int(rng.integers(1, min(3, len(front)) + 1))
        picks = rng.choice(len(front), size=k, replace=False).tolist()
        if rng.random() < 0.4:
            fracs = [1.0 / k] * k
        else:
            fracs = rng.dirichlet(np.ones(k)).tolist()
        points = [front[j] for j in picks]
        power = sum(p.power_w * f for p, f in zip(points, fracs))
        if rng.random() < 0.3:
            power = front[int(rng.integers(len(front)))].power_w + float(
                rng.choice([-2e-9, -5e-10, 0.0, 5e-10])
            )
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=edge_id,
            mixture=tuple(zip(points, fracs)),
            duration_s=sum(p.duration_s * f for p, f in zip(points, fracs)),
            power_w=power,
        )
    return PowerSchedule(
        kind="continuous", cap_w=100.0, objective_s=1.0,
        assignments=assignments, vertex_times=np.zeros(trace.graph.n_vertices),
    )


class TestAgainstTheOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        app=st.builds(
            random_application,
            n_ranks=st.integers(1, 4),
            iterations=st.integers(1, 3),
            seed=st.integers(0, 10_000),
            p_p2p=st.floats(0.0, 1.0),
        ),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["nearest", "floor", "dominant"]),
    )
    def test_bit_identical_to_the_oracle(self, app, seed, mode):
        models = [
            SocketPowerModel(efficiency=1.0 + 0.03 * r) for r in range(app.n_ranks)
        ]
        trace = trace_application(app, models)
        cont = random_continuous_schedule(trace, seed)
        got = round_schedule(trace, cont, mode=mode)
        want = round_schedule_reference(trace, cont, mode=mode)
        assert got.objective_s == want.objective_s
        assert got.vertex_times.tobytes() == want.vertex_times.tobytes()
        assert got.solver_info == want.solver_info
        assert list(got.config_map().items()) == list(want.config_map().items())
        assert got.total_energy_j() == want.total_energy_j()
        for (ref, a), (ref_w, w) in zip(
            got.assignments.items(), want.assignments.items()
        ):
            assert ref == ref_w and a.edge_id == w.edge_id
            assert a.mixture[0][0] is w.mixture[0][0]
            assert a.mixture == w.mixture
            assert (a.duration_s, a.power_w) == (w.duration_s, w.power_w)
        # The same schedule read back from its document rounds alike.
        again = round_schedule(
            trace, schedule_from_dict(schedule_to_dict(cont)), mode=mode
        )
        assert again.vertex_times.tobytes() == want.vertex_times.tobytes()
        assert again.config_map() == want.config_map()

    @pytest.mark.parametrize("mode", ["nearest", "floor", "dominant"])
    def test_lp_schedule_matches_the_oracle(self, lp_and_trace, mode):
        sched, trace = lp_and_trace
        got = round_schedule(trace, sched, mode=mode)
        want = round_schedule_reference(trace, sched, mode=mode)
        assert got.objective_s == want.objective_s
        assert got.vertex_times.tobytes() == want.vertex_times.tobytes()
        assert got.config_map() == want.config_map()
        assert schedule_to_dict(got) == schedule_to_dict(want)

    def test_rounding_is_lazy_and_cached_per_trace(self, lp_and_trace):
        sched, trace = lp_and_trace
        disc = round_schedule(trace, sched, mode="floor")
        assert disc._assignments is None  # read from the arrays
        assert rounding_table(trace) is rounding_table(trace)

    def test_empty_frontier_is_an_error(self, lp_and_trace):
        sched, trace = lp_and_trace
        edge_id = next(iter(trace.task_edges.values()))
        table = RoundingTable.build({edge_id: []}, trace.graph.n_edges)
        with pytest.raises(ValueError, match="empty frontier"):
            table.rows(np.array([edge_id]))
