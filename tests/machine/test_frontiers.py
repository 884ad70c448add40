"""Array-built frontier profiling against its scalar references.

A task's configuration scatter is measured over the whole grid in one
numpy pass (:func:`task_space`) and reduced with :func:`frontier_rows`.
Every float must equal the scalar path exactly:
per-point :func:`measure_task` for the scatter, and the scan-based
reductions kept below as the oracle for the frontiers.
"""

import hashlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.machine import (
    ConfigPoint,
    Configuration,
    CpuSpec,
    FrontierStore,
    PowerModelParams,
    SocketPowerModel,
    TaskKernel,
    TaskSpace,
    XEON_E5_2670,
    convex_frontier,
    enumerate_configurations,
    lower_hull,
    measure_task,
    measure_task_space,
    pareto_frontier,
    task_space,
)


# ----------------------------------------------------------------------
# The scan-based reductions: the oracle for the array-built ones.


def scan_pareto(points):
    ordered = sorted(points, key=lambda p: (p.power_w, p.duration_s, p.config))
    frontier, best = [], float("inf")
    for p in ordered:
        if p.duration_s < best:
            frontier.append(p)
            best = p.duration_s
    return frontier


def _turns_up(a, b, c):
    cross = (b.power_w - a.power_w) * (c.duration_s - a.duration_s) - (
        b.duration_s - a.duration_s
    ) * (c.power_w - a.power_w)
    return cross <= 0.0


def scan_convex(points):
    frontier = scan_pareto(points)
    if len(frontier) <= 2:
        return frontier
    hull = []
    for p in frontier:
        while len(hull) >= 2 and _turns_up(hull[-2], hull[-1], p):
            hull.pop()
        hull.append(p)
    return hull


# ----------------------------------------------------------------------

kernels = st.builds(
    TaskKernel,
    cpu_seconds=st.floats(0.001, 20.0),
    mem_seconds=st.floats(0.0, 10.0),
    parallel_fraction=st.floats(0.0, 1.0),
    mem_parallel_fraction=st.floats(0.0, 1.0),
    bw_saturation_threads=st.integers(1, 12),
    contention_threshold=st.integers(1, 12),
    contention_penalty=st.floats(0.0, 0.5),
    activity=st.floats(0.0, 2.0),
    mem_intensity=st.floats(0.0, 1.0),
)

specs = st.sampled_from(
    [
        XEON_E5_2670,
        CpuSpec(name="small", cores=4, fmin_ghz=0.8, fmax_ghz=2.0,
                fstep_ghz=0.1, modulation_levels=3),
        CpuSpec(name="odd", cores=12, fmin_ghz=1.05, fmax_ghz=3.3,
                fstep_ghz=0.15, modulation_levels=0),
    ]
)

params = st.sampled_from(
    [
        PowerModelParams(),
        PowerModelParams(
            p_uncore_idle=0.0, p_uncore_mem=3.3, p_core_leak=0.0, freq_exponent=2.9
        ),
    ]
)


def space_points(kernel, pm, include_modulation):
    """The scalar reference: one measure_task call per configuration."""
    return [
        measure_task(kernel, c, pm)
        for c in enumerate_configurations(pm.spec, include_modulation)
    ]


def outcome(fn, *args, **kwargs):
    """A call's result, or the message of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestTaskSpace:
    @settings(max_examples=150, deadline=None)
    @given(
        kernel=kernels,
        spec=specs,
        params=params,
        efficiency=st.floats(0.5, 2.0),
        include_modulation=st.booleans(),
    )
    def test_matches_scalar_measure_task_exactly(
        self, kernel, spec, params, efficiency, include_modulation
    ):
        pm = SocketPowerModel(spec=spec, params=params, efficiency=efficiency)
        # A zero-power point (no leakage, idle uncore or activity) must be
        # rejected the same way by both paths.
        got = outcome(
            measure_task_space, kernel, pm, include_modulation=include_modulation
        )
        want = outcome(space_points, kernel, pm, include_modulation)
        assert got == want  # dataclass ==: exact floats, same configs

    def test_spec_with_more_cores_than_the_socket_is_rejected(self, kernel):
        pm = SocketPowerModel(spec=CpuSpec(cores=4))
        with pytest.raises(ValueError, match="threads must be in"):
            measure_task_space(kernel, pm, spec=XEON_E5_2670)

    def test_invalid_measurement_names_the_value(self):
        cfg = Configuration(2.0, 4)
        space = TaskSpace((cfg,), np.array([0.0]), np.array([10.0]))
        with pytest.raises(ValueError, match="duration must be positive"):
            space.points()


class TestGridMemo:
    def test_mutating_a_returned_list_leaves_the_grid_intact(self, kernel):
        pm = SocketPowerModel()
        before = enumerate_configurations(XEON_E5_2670, True)
        mutated = enumerate_configurations(XEON_E5_2670, True)
        mutated.reverse()
        del mutated[3:]
        mutated.append(Configuration(9.9, 1))
        assert enumerate_configurations(XEON_E5_2670, True) == before
        assert len(before) == 15 * 8 + XEON_E5_2670.modulation_levels
        got = measure_task_space(kernel, pm, include_modulation=True)
        assert [p.config for p in got] == before

    def test_spaces_share_the_grid_but_not_their_measurements(self, kernel):
        pm = SocketPowerModel()
        space = task_space(kernel, pm)
        space.durations[:] = 1.0
        space.powers[:] = 1.0
        again = task_space(kernel, pm)
        assert again.configs is space.configs
        assert again.points() == space_points(kernel, pm, False)

    def test_pstates_are_cached_and_unchanged(self):
        spec = CpuSpec()
        assert spec.pstates is spec.pstates
        assert spec.pstates == tuple(round(2.6 - 0.1 * k, 6) for k in range(15))
        assert spec.duty_cycles is spec.duty_cycles
        assert spec.duty_cycles == tuple((7 - k) / 8 for k in range(7))
        assert spec == CpuSpec() and hash(spec) == hash(CpuSpec())


# ----------------------------------------------------------------------

_CONFIGS = [
    Configuration(f, n, duty)
    for duty in (1.0, 0.5, 0.25)
    for f in (1.0, 2.0)
    for n in (1, 4)
]

# Values from small sets so exact (power, duration) ties are common.
tied_point_lists = st.lists(
    st.builds(
        ConfigPoint,
        config=st.sampled_from(_CONFIGS),
        duration_s=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
        power_w=st.sampled_from([10.0, 12.5, 20.0, 30.0, 45.0]),
    ),
    max_size=30,
)

free_point_lists = st.lists(
    st.builds(
        ConfigPoint,
        config=st.sampled_from(_CONFIGS),
        duration_s=st.floats(0.01, 100.0),
        power_w=st.floats(1.0, 100.0),
    ),
    max_size=60,
)


class TestReductions:
    @settings(max_examples=200, deadline=None)
    @given(points=st.one_of(tied_point_lists, free_point_lists))
    def test_pareto_and_convex_match_the_scan(self, points):
        assert pareto_frontier(points) == scan_pareto(points)
        assert convex_frontier(points) == scan_convex(points)
        pareto, convex = FrontierStore.reduce(points)
        assert pareto == scan_pareto(points)
        assert convex == scan_convex(points)

    @settings(max_examples=100, deadline=None)
    @given(points=tied_point_lists, data=st.data())
    def test_tie_representative_ignores_input_order(self, points, data):
        shuffled = data.draw(st.permutations(points))
        assert pareto_frontier(shuffled) == pareto_frontier(points)

    def test_lower_hull_returns_a_fresh_list(self):
        a = ConfigPoint(Configuration(1.0, 1), 2.0, 10.0)
        b = ConfigPoint(Configuration(2.0, 1), 1.0, 20.0)
        frontier = [a, b]
        hull = lower_hull(frontier)
        assert hull == frontier and hull is not frontier


# ----------------------------------------------------------------------

KERNELS = [
    TaskKernel(cpu_seconds=0.8, mem_seconds=0.3, contention_penalty=0.04,
               contention_threshold=5, name="a"),
    TaskKernel(cpu_seconds=0.2, mem_seconds=0.05, activity=1.3,
               mem_intensity=0.6, name="b"),
]


def _fingerprint(profiles) -> str:
    h = hashlib.sha256()
    for prof in profiles:
        for part in (prof.points, prof.pareto, prof.convex):
            # The empty string stands where the pinned digests were taken
            # with each point's (always empty) device id.
            rows = [
                (p.config.freq_ghz, p.config.threads, p.config.duty,
                 "", p.duration_s.hex(), p.power_w.hex())
                for p in part
            ]
            h.update(repr(rows).encode())
    return h.hexdigest()


class TestStores:
    def test_noiseless_profile_matches_the_scalar_pipeline(self):
        pm = SocketPowerModel(efficiency=1.13)
        store = FrontierStore([pm])
        for kernel in KERNELS:
            prof = store.profile(0, kernel)
            want = space_points(kernel, pm, False)
            assert prof.points == want
            assert prof.pareto == scan_pareto(want)
            assert prof.convex == scan_convex(want)

    def test_equal_models_share_the_first_ranks_profile(self):
        a, b = SocketPowerModel(efficiency=1.0), SocketPowerModel(efficiency=1.1)
        twin = SocketPowerModel(efficiency=1.0)  # equal to a, not identical
        store = FrontierStore([a, b, twin, b, a])
        profs = [store.profile(r, KERNELS[0]) for r in range(5)]
        assert profs[2] is profs[0] and profs[4] is profs[0]
        assert profs[3] is profs[1] and profs[1] is not profs[0]
        assert len(store) == 2

    # Pinned from the per-point implementation (one lognormal draw for the
    # duration, then one for the power, point by point): any change to the
    # draw order or the perturbed arithmetic moves these digests.
    def test_noisy_socket_store_is_pinned(self):
        pms = [SocketPowerModel(efficiency=e) for e in (1.0, 1.07, 1.0)]
        store = FrontierStore(
            pms, measurement_noise=0.05, rng=np.random.default_rng(2015)
        )
        order = [(0, 0), (2, 0), (1, 1), (0, 0), (1, 0)]
        profiles = [store.profile(r, KERNELS[k]) for r, k in order]
        assert _fingerprint(profiles) == (
            "ee1ab58aabdb70b01f27dae605f86e2ff5e0c3b7ee926504f6ff57afdec231cf"
        )
        assert store.profile(1, KERNELS[0]).convex[0].duration_s == float.fromhex(
            "0x1.c8e10e6718594p+0"
        )
