"""Golden equivalence: the scenario layer reproduces the legacy three-way
comparison bit-for-bit.

``run_comparison``/``sweep_caps`` are thin wrappers over a
``{static, conductor, lp}`` scenario spec; this file re-implements the
pre-scenario evaluation loop inline (direct policy construction, direct
engine runs, the rebuild oracle's LP solve, the same measurement
windows) and asserts
exact float equality against the registry-driven path — cold cache, warm
cache, serial, and two workers.
"""

import dataclasses

from repro.core.rounding import round_schedule
from repro.exec.cache import SolverCache
from repro.experiments.runner import (
    ExperimentConfig,
    comparison_spec,
    run_comparison,
    sweep_caps,
)
from repro.machine.frontiers import FrontierStore
from repro.machine.variability import make_power_models
from repro.runtime.conductor import ConductorPolicy
from repro.runtime.static import StaticPolicy
from repro.simulator.engine import Engine
from repro.simulator.trace import trace_application
from repro.workloads import BENCHMARKS, WorkloadSpec

from ..core.lp_oracles import solve_fixed_order_lp_reference

CFG = ExperimentConfig(
    benchmark="comd", n_ranks=4, run_iterations=10, lp_iterations=2,
    discard_iterations=2, steady_window=5,
)
CAPS = (30.0, 50.0, 70.0)


def _steady(result, first_iteration, n_iterations):
    start = min(
        r.start_s for r in result.records if r.iteration >= first_iteration
    )
    return (result.makespan_s - start) / n_iterations


def legacy_comparison(cfg: ExperimentConfig, cap: float, include_discrete=False):
    """The pre-scenario evaluation loop, with the LP solved by the
    rebuild oracle."""
    gen = BENCHMARKS[cfg.benchmark]
    app_run = gen(WorkloadSpec(n_ranks=cfg.n_ranks,
                               iterations=cfg.run_iterations, seed=cfg.seed))
    app_lp = gen(WorkloadSpec(n_ranks=cfg.n_ranks,
                              iterations=cfg.lp_iterations, seed=cfg.seed))
    pm = make_power_models(cfg.n_ranks, cfg.efficiency_seed,
                           sigma=cfg.efficiency_sigma)
    store = FrontierStore(pm)
    trace = trace_application(app_lp, pm, frontier_store=store)
    engine = Engine(pm)
    job_cap = cap * cfg.n_ranks

    min_cap = app_run.metadata.get("min_cap_per_socket_w")
    if min_cap is not None and cap < min_cap:
        return {"schedulable": False}

    res_static = engine.run(app_run, StaticPolicy(pm, job_cap))
    t_static = _steady(res_static, cfg.discard_iterations,
                       cfg.run_iterations - cfg.discard_iterations)

    conductor = ConductorPolicy(pm, job_cap, app_run, config=cfg.conductor,
                                frontier_store=store)
    res_cond = engine.run(app_run, conductor)
    t_cond = _steady(res_cond, cfg.run_iterations - cfg.steady_window,
                     cfg.steady_window)

    lp = solve_fixed_order_lp_reference(trace, job_cap)
    t_lp = lp.makespan_s / cfg.lp_iterations if lp.feasible else None
    t_disc = None
    if include_discrete and lp.feasible:
        t_disc = round_schedule(trace, lp.schedule).objective_s / cfg.lp_iterations

    return {
        "schedulable": True,
        "static_s": t_static,
        "conductor_s": t_cond,
        "lp_s": t_lp,
        "lp_discrete_s": t_disc,
        "conductor_reallocs": conductor.realloc_count,
    }


def assert_matches(result, golden):
    __tracebackhide__ = True
    if not golden["schedulable"]:
        assert not result.schedulable
        assert result.static_s is None
        assert result.conductor_s is None
        assert result.lp_s is None
        return
    assert result.schedulable
    assert result.static_s == golden["static_s"]
    assert result.conductor_s == golden["conductor_s"]
    assert result.lp_s == golden["lp_s"]
    assert result.lp_discrete_s == golden["lp_discrete_s"]
    assert result.conductor_reallocs == golden["conductor_reallocs"]


class TestGoldenEquivalence:
    def test_run_comparison_matches_legacy(self):
        for cap in CAPS:
            assert_matches(run_comparison(CFG, cap), legacy_comparison(CFG, cap))

    def test_include_discrete_matches_legacy(self):
        assert_matches(
            run_comparison(CFG, 50.0, include_discrete=True),
            legacy_comparison(CFG, 50.0, include_discrete=True),
        )

    def test_sweep_serial_matches_legacy(self):
        golden = [legacy_comparison(CFG, cap) for cap in CAPS]
        for result, g in zip(sweep_caps(CFG, CAPS), golden):
            assert_matches(result, g)

    def test_sweep_two_workers_matches_legacy(self):
        golden = [legacy_comparison(CFG, cap) for cap in CAPS]
        for result, g in zip(sweep_caps(CFG, CAPS, workers=2), golden):
            assert_matches(result, g)

    def test_cold_and_warm_cache_match_legacy(self, tmp_path):
        cache = SolverCache(tmp_path)
        golden = legacy_comparison(CFG, 50.0)
        assert_matches(run_comparison(CFG, 50.0, cache=cache), golden)  # cold
        hits_before = cache.hits
        assert_matches(run_comparison(CFG, 50.0, cache=cache), golden)  # warm
        assert cache.hits > hits_before

    def test_unschedulable_cap_matches_legacy(self):
        cfg = dataclasses.replace(CFG, benchmark="sp")
        cap = 10.0  # below SP's minimum per-socket cap
        assert_matches(run_comparison(cfg, cap), legacy_comparison(cfg, cap))

    def test_wrapper_uses_the_documented_spec(self):
        spec = comparison_spec(CFG, CAPS)
        assert spec.policy_labels() == ["static", "conductor", "lp"]
        assert spec.benchmark == CFG.benchmark
        assert spec.caps_per_socket_w == CAPS
        conductor_cfg = spec.policies[1].config
        assert conductor_cfg == dataclasses.asdict(CFG.conductor)
