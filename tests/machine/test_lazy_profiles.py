"""Array-held frontier profiles: lazy scatters, unchanged outputs.

A :class:`FrontierProfile` keeps its task's scatter as arrays and builds
only the convex frontier eagerly.  The full scatter (``points``) and the
Pareto list (``pareto``) are built on first access.  These tests pin
that the headline pipeline never asks for them, that the lazy lists are
the scalar pipeline's lists, and that trace fingerprints — the solver
cache keys — are byte-identical to those of eagerly built profiles.
"""

import numpy as np
import pytest

from repro.core import build_problem_instance, solve_fixed_order_lp
from repro.exec.keys import trace_fingerprint
from repro.machine import (
    FrontierStore,
    PowerModelParams,
    SocketPowerModel,
    TaskKernel,
)
from repro.machine import frontiers as frontiers_module
from repro.machine.variability import make_power_models
from repro.runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from repro.simulator import Engine, trace_application
from repro.workloads import WorkloadSpec, make_comd

from ..core.lp_oracles import frontier_family
from .test_frontiers import KERNELS, scan_convex, scan_pareto, space_points

KERNEL = KERNELS[0]


def _built(prof) -> set[str]:
    """The lazy lists a profile has materialized so far."""
    return {"points", "pareto"} & set(vars(prof))


@pytest.fixture
def recorded(monkeypatch):
    """Every profile any store builds while the test runs."""
    made = []
    build = frontiers_module._reduce

    def record(*args):
        made.extend(build(*args))
        return made[-len(args[1]):]

    monkeypatch.setattr(frontiers_module, "_reduce", record)
    return made


class TestHeadlinePathStaysLazy:
    def test_trace_runtimes_and_lp_never_build_the_scatter(self, recorded):
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=6, seed=3))
        pms = make_power_models(4, 11)
        cap_w = 4 * 60.0
        store = FrontierStore(pms)
        trace = trace_application(app, pms, frontier_store=store)
        engine = Engine(pms)
        engine.run(app, StaticPolicy(pms, cap_w))
        engine.run(app, ConductorPolicy(pms, cap_w, app, frontier_store=store))
        engine.run(
            app,
            ConductorPolicy(pms, cap_w, app, config=ConductorConfig(seed=1)),
        )
        assert solve_fixed_order_lp(trace, cap_w).feasible
        build_problem_instance(trace)
        assert len(recorded) > len(store) > 0  # the second Conductor's own store
        assert [_built(p) for p in recorded] == [set()] * len(recorded)

    def test_the_discrete_milp_is_what_builds_pareto(self, recorded):
        app = make_comd(WorkloadSpec(n_ranks=2, iterations=2, seed=3))
        trace = trace_application(app, make_power_models(2, 11))
        instance = build_problem_instance(trace)
        assert all(not _built(p) for p in recorded)
        pareto = frontier_family(instance, discrete=True)
        assert all(_built(p) == {"pareto"} for p in recorded)
        for edge_id, tf in pareto.items():
            assert tf.points == tuple(trace.pareto[edge_id])
            assert tf.durations.tolist() == [p.duration_s for p in tf.points]
            assert tf.powers.tolist() == [p.power_w for p in tf.points]


class TestLazyListsMatchTheScalarPipeline:
    def test_lazy_points_and_pareto_after_convex(self):
        pm = SocketPowerModel(efficiency=0.97)
        prof = FrontierStore([pm]).profile(0, KERNEL)
        want = space_points(KERNEL, pm, False)
        assert prof.convex == scan_convex(want)
        assert not _built(prof)
        assert prof.pareto == scan_pareto(want)
        assert prof.points == want
        assert prof.points is prof.points and prof.pareto is prof.pareto
        space = prof.space
        assert [space.configs[k] for k in prof.pareto_idx] == [
            p.config for p in prof.pareto
        ]
        assert [space.configs[k] for k in prof.hull_idx] == [
            p.config for p in prof.convex
        ]
        assert np.all(np.diff(space.powers[prof.pareto_idx]) > 0)

    def test_zero_power_scatter_is_rejected_when_profiled(self):
        params = PowerModelParams(
            p_uncore_idle=0.0, p_uncore_mem=0.0, p_core_leak=0.0
        )
        zero = SocketPowerModel(params=params)
        idle = TaskKernel(cpu_seconds=1.0, mem_seconds=0.0, activity=0.0)
        with pytest.raises(ValueError, match="power must be positive"):
            FrontierStore([zero]).profile(0, idle)


# ----------------------------------------------------------------------
# Digests of seeded traces, pinned from eagerly built profiles: a cache
# filled before profiles went lazy must still hit.

_APP = dict(n_ranks=4, iterations=2, seed=2015)


class TestFingerprintsAreUnchanged:
    def test_noiseless_trace(self):
        app = make_comd(WorkloadSpec(**_APP))
        trace = trace_application(app, make_power_models(4, 11))
        assert trace_fingerprint(trace) == (
            "0566fbe8891f88d350c6606dc154f8e97c90a4910d3907e52dd2e97c60dbfb59"
        )

    def test_noisy_trace(self):
        app = make_comd(WorkloadSpec(**_APP))
        trace = trace_application(
            app, make_power_models(4, 11), measurement_noise=0.03, seed=5
        )
        assert trace_fingerprint(trace) == (
            "d5b6ed0599162d2a68d73ef75d745235a242835e01f7334c3cb5665615485a43"
        )
