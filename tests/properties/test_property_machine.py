"""Property-based tests (hypothesis) for the machine substrate."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.machine import (
    Configuration,
    ConfigPoint,
    RaplController,
    SocketPowerModel,
    TaskKernel,
    TaskTimeModel,
    XEON_E5_2670,
    convex_frontier,
    measure_task_space,
    pareto_frontier,
)

kernels = st.builds(
    TaskKernel,
    cpu_seconds=st.floats(0.01, 20.0),
    mem_seconds=st.floats(0.0, 10.0),
    parallel_fraction=st.floats(0.0, 1.0),
    mem_parallel_fraction=st.floats(0.0, 1.0),
    bw_saturation_threads=st.integers(1, 8),
    contention_threshold=st.integers(1, 8),
    contention_penalty=st.floats(0.0, 0.5),
    activity=st.floats(0.3, 2.0),
    mem_intensity=st.floats(0.0, 1.0),
)

efficiencies = st.floats(0.85, 1.2)

point_lists = st.lists(
    st.builds(
        ConfigPoint,
        config=st.just(Configuration(2.0, 4)),
        duration_s=st.floats(0.01, 100.0),
        power_w=st.floats(1.0, 100.0),
    ),
    min_size=1,
    max_size=40,
)


class TestFrontierProperties:
    @given(points=point_lists)
    def test_pareto_no_dominated_member(self, points):
        front = pareto_frontier(points)
        for a in front:
            assert not any(b.dominates(a) for b in points)

    @given(points=point_lists)
    def test_pareto_strictly_monotone(self, points):
        front = pareto_frontier(points)
        for a, b in zip(front, front[1:]):
            assert a.power_w < b.power_w
            assert a.duration_s > b.duration_s

    @given(points=point_lists)
    def test_convex_subset_and_convex(self, points):
        front = pareto_frontier(points)
        hull = convex_frontier(points)
        keys = {(p.power_w, p.duration_s) for p in front}
        assert all((p.power_w, p.duration_s) in keys for p in hull)
        slopes = [
            (b.duration_s - a.duration_s) / (b.power_w - a.power_w)
            for a, b in zip(hull, hull[1:])
        ]
        assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))

    @given(kernel=kernels, eff=efficiencies)
    @settings(max_examples=25, deadline=None)
    def test_kernel_space_frontier_invariants(self, kernel, eff):
        points = measure_task_space(kernel, SocketPowerModel(efficiency=eff))
        hull = convex_frontier(points)
        assert hull  # never empty
        # Hull endpoints bound the achievable range.
        best = min(p.duration_s for p in points)
        assert hull[-1].duration_s == pytest.approx(best)


class TestModelProperties:
    @given(kernel=kernels, threads=st.integers(1, 8),
           f=st.floats(1.2, 2.6), eff=efficiencies)
    @settings(max_examples=50, deadline=None)
    def test_power_and_time_positive(self, kernel, threads, f, eff):
        pm = SocketPowerModel(efficiency=eff)
        tm = TaskTimeModel()
        assert pm.power(f, threads, kernel.activity, kernel.mem_intensity) > 0
        assert tm.duration(kernel, f, threads) > 0

    @given(kernel=kernels, threads=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_duration_monotone_in_frequency(self, kernel, threads):
        tm = TaskTimeModel()
        durs = [
            tm.duration(kernel, f, threads) for f in XEON_E5_2670.pstates
        ]
        assert all(a <= b + 1e-12 for a, b in zip(durs, durs[1:]))

    @given(kernel=kernels, cap=st.floats(8.0, 90.0), eff=efficiencies)
    @settings(max_examples=50, deadline=None)
    def test_rapl_cap_or_bottom(self, kernel, cap, eff):
        ctrl = RaplController(SocketPowerModel(efficiency=eff))
        d = ctrl.decide(kernel, 8, cap)
        if d.cap_met:
            assert d.power_w <= cap + 1e-9
        else:
            assert d.config.duty == min(XEON_E5_2670.duty_cycles)

    @given(kernel=kernels, eff=efficiencies,
           caps=st.tuples(st.floats(8, 80), st.floats(8, 80)))
    @settings(max_examples=50, deadline=None)
    def test_rapl_monotone(self, kernel, eff, caps):
        lo, hi = sorted(caps)
        ctrl = RaplController(SocketPowerModel(efficiency=eff))
        f_lo = ctrl.decide(kernel, 8, lo).config.effective_freq_ghz
        f_hi = ctrl.decide(kernel, 8, hi).config.effective_freq_ghz
        assert f_hi >= f_lo - 1e-12
