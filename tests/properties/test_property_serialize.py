"""Property-based roundtrip tests for schedule serialization."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    round_schedule,
    schedule_from_dict,
    schedule_to_dict,
    solve_fixed_order_lp,
)
from repro.machine import SocketPowerModel
from repro.simulator import trace_application
from repro.workloads import random_application

apps = st.builds(
    random_application,
    n_ranks=st.integers(1, 4),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    p_p2p=st.floats(0.0, 1.0),
)


class TestScheduleRoundtrip:
    @given(app=apps, cap_per_rank=st.floats(30.0, 90.0),
           mode=st.sampled_from(["continuous", "nearest", "floor"]))
    @settings(max_examples=15, deadline=None)
    def test_any_schedule_roundtrips(self, app, cap_per_rank, mode):
        models = [
            SocketPowerModel(efficiency=1.0 + 0.02 * r)
            for r in range(app.n_ranks)
        ]
        trace = trace_application(app, models)
        res = solve_fixed_order_lp(trace, cap_per_rank * app.n_ranks)
        if not res.feasible:
            return
        sched = res.schedule
        if mode != "continuous":
            sched = round_schedule(trace, sched, mode=mode)
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.kind == sched.kind
        assert back.objective_s == pytest.approx(sched.objective_s)
        assert back.config_map() == sched.config_map()
        for ref, a in sched.assignments.items():
            b = back.assignments[ref]
            assert b.duration_s == pytest.approx(a.duration_s)
            assert b.power_w == pytest.approx(a.power_w)
            assert len(b.mixture) == len(a.mixture)
