"""The frontier table against the scalar per-kernel pipeline.

:meth:`FrontierStore.profile_table` measures every kernel of an
application over the grid in one broadcast pass and reduces all rows at
once.  Each profile must equal, float for float and index for index, the
one the scalar pipeline builds kernel by kernel: per-point models, the
scalar Pareto and hull loops of :mod:`.frontier_oracles`, and the same
noise draws in the same order.
"""

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.machine import (
    AcceleratorDevice,
    Configuration,
    CpuDevice,
    DeviceKind,
    FrontierStore,
    GpuDevice,
    KernelArrays,
    NodeFrontierStore,
    NodeSpec,
    SocketPowerModel,
    TaskKernel,
    TaskSpace,
    frontier_rows,
    get_node,
    rank_nodes,
    task_space,
    task_spaces,
)
from repro.machine.variability import make_power_models
from repro.simulator import trace_application
from repro.workloads import WorkloadSpec, make_comd

from .frontier_oracles import lower_hull_indices, pareto_indices, reduce_space
from .test_frontiers import kernels, params, space_points, specs


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_profile_is(prof, space, pareto, hull):
    """``prof`` equals the scalar pipeline's (space, pareto, hull) exactly."""
    assert prof.space.configs == space.configs
    assert bits(prof.space.durations) == bits(space.durations)
    assert bits(prof.space.powers) == bits(space.powers)
    assert prof.pareto_idx.tolist() == pareto.tolist()
    assert prof.hull_idx.tolist() == hull.tolist()
    convex = space.points(hull)
    assert prof.convex == convex
    assert prof.hull_powers == [p.power_w for p in convex]
    assert prof.hull_durations == [p.duration_s for p in convex]
    assert prof.hull_configs == [p.config for p in convex]


def assert_rows_are_scalar(powers, durations, configs):
    """Each row of ``frontier_rows`` is the scalar loops' reduction."""
    pareto, n_pareto, hull, n_hull = frontier_rows(powers, durations, configs)
    for row in range(len(powers)):
        want = pareto_indices(powers[row], durations[row], configs)
        assert pareto[row, : n_pareto[row]].tolist() == want
        p = powers[row][want].tolist()
        d = durations[row][want].tolist()
        want_hull = [want[i] for i in lower_hull_indices(p, d)]
        assert hull[row, : n_hull[row]].tolist() == want_hull


kernel_lists = st.lists(kernels, min_size=1, max_size=6)


class TestSocketTable:
    @settings(max_examples=60, deadline=None)
    @given(
        per_rank=st.lists(kernel_lists, min_size=1, max_size=3),
        efficiencies=st.lists(st.floats(0.8, 1.25), min_size=3, max_size=3),
        params=params,
    )
    def test_table_is_the_scalar_pipeline(self, per_rank, efficiencies, params):
        pms = [
            SocketPowerModel(params=params, efficiency=e)
            for e in efficiencies[: len(per_rank)]
        ]
        store = FrontierStore(pms)
        try:
            table = store.profile_table([KernelArrays.of(ks) for ks in per_rank])
        except ValueError as exc:
            # A zero-power point: the scalar pipeline rejects it too.
            assert "power must be positive" in str(exc)
            return
        for rank, ks in enumerate(per_rank):
            assert len(table[rank]) == len(ks)
            for kernel, prof in zip(ks, table[rank]):
                assert_profile_is(prof, *reduce_space(task_space(kernel, pms[rank])))
                assert store.profile(rank, kernel) is prof

    @settings(max_examples=60, deadline=None)
    @given(
        ks=kernel_lists,
        spec=specs,
        params=params,
        efficiency=st.lists(st.floats(0.5, 2.0), min_size=6, max_size=6),
        include_modulation=st.booleans(),
    )
    def test_broadcast_rows_are_the_per_point_models(
        self, ks, spec, params, efficiency, include_modulation
    ):
        pm = SocketPowerModel(spec=spec, params=params)
        eff = efficiency[: len(ks)]
        configs, durations, powers = task_spaces(
            KernelArrays.of(ks), pm, include_modulation=include_modulation,
            efficiency=eff,
        )
        for row, (kernel, e) in enumerate(zip(ks, eff)):
            want = space_points(
                kernel, SocketPowerModel(spec, params, e), include_modulation
            )
            assert list(configs) == [p.config for p in want]
            assert durations[row].tolist() == [p.duration_s for p in want]
            assert powers[row].tolist() == [p.power_w for p in want]
            if (powers[row] > 0).all():
                assert_rows_are_scalar(
                    powers[row : row + 1], durations[row : row + 1], configs
                )

    def test_repeated_kernels_share_one_profile(self):
        a = TaskKernel(cpu_seconds=0.5, mem_seconds=0.1, name="a")
        b = TaskKernel(cpu_seconds=0.3, name="b")
        pms = [SocketPowerModel(), SocketPowerModel(efficiency=1.1)]
        store = FrontierStore(pms)
        table = store.profile_table([KernelArrays.of([a, b, a]), KernelArrays.of([a])])
        assert table[0][0] is table[0][2]
        assert table[1][0] is not table[0][0]
        assert len(store) == 3
        assert store.profile_table([KernelArrays.of([b])])[0][0] is table[0][1]


# Values from small sets, so exact (power, duration) ties are common.
tied_rows = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.sampled_from([10.0, 12.5, 20.0, 30.0]), min_size=n, max_size=n),
            min_size=1, max_size=5,
        ),
        st.lists(
            st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n),
            min_size=1, max_size=5,
        ),
        st.lists(
            st.sampled_from([
                Configuration(f, t, device=dev)
                for dev in ("cpu0", "cpu1", "gpu0")
                for f in (1.0, 2.0)
                for t in (1, 4)
            ]),
            min_size=n, max_size=n,
        ),
    )
)


class TestReductionRows:
    @settings(max_examples=200, deadline=None)
    @given(rows=tied_rows)
    def test_every_row_is_the_scalar_reduction(self, rows):
        p_rows, d_rows, configs = rows
        k = min(len(p_rows), len(d_rows))
        assert_rows_are_scalar(np.array(p_rows[:k]), np.array(d_rows[:k]), configs)


def twin_cpu_node(name="twins"):
    """Two identical CPUs listed larger id first, a GPU, and an
    accelerator that only runs kernels named "fft": every CPU point ties
    exactly with its twin."""
    return NodeSpec(name, (
        CpuDevice(device_id="cpu1", kind=DeviceKind.CPU_BIG),
        CpuDevice(device_id="cpu0", kind=DeviceKind.CPU_BIG),
        GpuDevice(device_id="gpu0"),
        AcceleratorDevice(device_id="acc0", supported=("fft",)),
    ))


def node_oracle(kernel, node, sigma=0.0, rng=None):
    """The node scatter from each device's scalar models, in node order,
    reduced by the scalar loops."""
    configs = tuple(
        c for d in node.devices if d.supports(kernel) for c in d.operating_points()
    )
    devices = [node.device(c.device) for c in configs]
    space = TaskSpace(
        configs,
        np.array([d.duration(kernel, c) for d, c in zip(devices, configs)]),
        np.array([d.power(kernel, c) for d, c in zip(devices, configs)]),
    )
    return reduce_space(space, sigma, rng)


class TestNodeTable:
    @settings(max_examples=25, deadline=None)
    @given(
        per_rank=st.lists(kernel_lists, min_size=1, max_size=2),
        names=st.lists(st.sampled_from(["fft", "stencil"]), min_size=6, max_size=6),
        efficiency=st.floats(0.8, 1.25),
    )
    def test_twin_device_ties_keep_the_smallest_config(
        self, per_rank, names, efficiency
    ):
        per_rank = [
            [replace(k, name=n) for k, n in zip(ks, names)]
            for ks in per_rank
        ]
        node = twin_cpu_node()
        pms = [SocketPowerModel(efficiency=efficiency)] * len(per_rank)
        nodes = rank_nodes(node, pms)
        store = NodeFrontierStore(nodes)
        try:
            table = store.profile_table([KernelArrays.of(ks) for ks in per_rank])
        except ValueError as exc:
            assert "power must be positive" in str(exc)
            return
        for rank, ks in enumerate(per_rank):
            for kernel, prof in zip(ks, table[rank]):
                assert_profile_is(prof, *node_oracle(kernel, nodes[rank]))
                assert "cpu1" not in {c.device for c in prof.hull_configs}


class TestNoisyTable:
    def test_noisy_socket_table_draws_in_listed_order(self):
        pms = make_power_models(3, 11)
        ks = [
            [TaskKernel(cpu_seconds=0.2 + 0.1 * r + 0.05 * i, mem_seconds=0.1)
             for i in range(3)]
            for r in range(3)
        ]
        ks[2][1] = ks[0][0]  # a repeat on another rank: noisy stores key per rank
        store = FrontierStore(pms, measurement_noise=0.05,
                              rng=np.random.default_rng(2015))
        table = store.profile_table([KernelArrays.of(row) for row in ks])
        rng = np.random.default_rng(2015)
        for rank, row in enumerate(ks):
            for kernel, prof in zip(row, table[rank]):
                want = reduce_space(task_space(kernel, pms[rank]), 0.05, rng)
                assert_profile_is(prof, *want)

    def test_noisy_node_table_draws_in_listed_order(self):
        pms = [SocketPowerModel(efficiency=e) for e in (1.0, 1.07)]
        nodes = rank_nodes(get_node("cpu-gpu-acc"), pms)
        ks = [TaskKernel(cpu_seconds=0.3, name="fft"), TaskKernel(cpu_seconds=0.4)]
        store = NodeFrontierStore(nodes, measurement_noise=0.05,
                                  rng=np.random.default_rng(7))
        table = store.profile_table([KernelArrays.of(ks), KernelArrays.of(ks[::-1])])
        rng = np.random.default_rng(7)
        for rank, row in enumerate([ks, ks[::-1]]):
            for kernel, prof in zip(row, table[rank]):
                assert_profile_is(prof, *node_oracle(kernel, nodes[rank], 0.05, rng))

    @pytest.mark.parametrize("noise", [0.0, 0.03])
    def test_trace_is_the_per_edge_pipeline(self, noise):
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=3, seed=2015))
        pms = make_power_models(4, 11)
        trace = trace_application(app, pms, measurement_noise=noise, seed=5)
        rng = np.random.default_rng(5)
        cache = {}  # per (kernel, rank): the first touch draws the noise
        for ref, edge in trace.task_edges.items():
            key = (app.task_kernel(ref), ref.rank)
            if key not in cache:
                space = task_space(key[0], pms[ref.rank])
                cache[key] = reduce_space(space, noise, rng)
            space, _, hull = cache[key]
            assert trace.frontiers[edge] == space.points(hull)
            assert [bits(p.duration_s) for p in trace.frontiers[edge]] == [
                bits(p.duration_s) for p in space.points(hull)
            ]
