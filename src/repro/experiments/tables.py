"""Table 3 and the §6.2 overheads summary.

Table 3 characterizes one steady iteration of LULESH under an average of
50 W per socket: Static is pinned at 8 threads with a reduced median
frequency; Conductor and the LP drop to 4-5 threads at (near-)maximum
frequency and spread power nonuniformly (visible as the jump in the
standard deviation of task power).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.fixed_order_lp import solve_fixed_order_lp
from ..machine.cpu import XEON_E5_2670
from ..runtime.conductor import ConductorPolicy
from ..runtime.static import StaticPolicy
from ..simulator.engine import Engine, TaskRecord
from ..simulator.trace import trace_application
from ..workloads import WorkloadSpec, make_lulesh
from .report import render_kv, render_table
from ..scenarios.run import ScenarioResult, run_scenarios
from ..scenarios.spec import PolicySpec, ScenarioSpec
from .runner import ExperimentConfig, improvement_pct, make_power_models

__all__ = ["Table3Result", "table3_lulesh_task_characteristics", "OverheadsResult",
           "overheads_summary", "EnergyComparisonResult", "energy_comparison",
           "MinimumCapResult", "minimum_cap_table",
           "ScenarioSummaryResult", "scenario_summary",
           "FrontierResult", "frontier_table"]


@dataclass(frozen=True)
class MethodRow:
    method: str
    median_time_s: float
    power_stddev_rel: float
    threads: str
    median_freq_rel: float


@dataclass
class Table3Result:
    cap_per_socket_w: float
    rows: list[MethodRow]
    long_task_cutoff_s: float

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def render(self) -> str:
        return render_table(
            ["method", "median time (s)", "std.dev power (rel)", "threads",
             "median freq (rel fmax)"],
            [[r.method, r.median_time_s, r.power_stddev_rel, r.threads,
              r.median_freq_rel] for r in self.rows],
            title=(
                "Table 3: LULESH long-task characteristics at "
                f"{self.cap_per_socket_w:.0f} W/socket (one steady iteration)"
            ),
        )


def _method_row(
    method: str,
    durations: np.ndarray,
    powers: np.ndarray,
    threads: list[int],
    freqs: np.ndarray,
) -> MethodRow:
    fmax = XEON_E5_2670.fmax_ghz
    t_lo, t_hi = int(np.min(threads)), int(np.max(threads))
    return MethodRow(
        method=method,
        median_time_s=float(np.median(durations)),
        power_stddev_rel=float(np.std(powers) / np.mean(powers)),
        threads=str(t_lo) if t_lo == t_hi else f"{t_lo}-{t_hi}",
        median_freq_rel=float(np.median(freqs) / fmax),
    )


def _records_row(method: str, records: list[TaskRecord], cutoff: float) -> MethodRow:
    longs = [r for r in records if r.duration_s >= cutoff]
    if not longs:
        raise ValueError(f"{method}: no long-running tasks above {cutoff}s")
    return _method_row(
        method,
        np.array([r.duration_s for r in longs]),
        np.array([r.power_w for r in longs]),
        [r.config.threads for r in longs],
        np.array([r.config.effective_freq_ghz for r in longs]),
    )


def table3_lulesh_task_characteristics(
    cap_per_socket_w: float = 50.0,
    n_ranks: int = 32,
    iteration: int = 18,
    long_task_cutoff_s: float = 1.0,
    seed: int = 2015,
    efficiency_seed: int = 42,
) -> Table3Result:
    """Reproduce Table 3 on one steady iteration of LULESH."""
    cfg = ExperimentConfig(
        benchmark="lulesh", n_ranks=n_ranks, lp_iterations=3, seed=seed,
        efficiency_seed=efficiency_seed,
    )
    app = make_lulesh(
        WorkloadSpec(n_ranks=n_ranks, iterations=cfg.run_iterations, seed=seed)
    )
    pm = make_power_models(n_ranks, efficiency_seed)
    job_cap = cap_per_socket_w * n_ranks
    engine = Engine(pm)

    res_static = engine.run(app, StaticPolicy(pm, job_cap))
    static_row = _records_row(
        "Static", res_static.records_for_iteration(iteration), long_task_cutoff_s
    )

    conductor = ConductorPolicy(pm, job_cap, app, config=cfg.conductor)
    res_cond = engine.run(app, conductor)
    cond_row = _records_row(
        "Conductor", res_cond.records_for_iteration(iteration), long_task_cutoff_s
    )

    app_lp = make_lulesh(
        WorkloadSpec(n_ranks=n_ranks, iterations=cfg.lp_iterations, seed=seed)
    )
    trace = trace_application(app_lp, pm)
    lp = solve_fixed_order_lp(trace, job_cap)
    if not lp.feasible:
        raise RuntimeError(f"LP infeasible at {cap_per_socket_w} W/socket")
    longs = [
        a for a in lp.schedule.assignments.values()
        if a.duration_s >= long_task_cutoff_s
    ]
    freqs = []
    threads = []
    for a in longs:
        freqs.append(
            sum(p.config.effective_freq_ghz * f for p, f in a.mixture)
        )
        threads.append(a.dominant.config.threads)
    lp_row = _method_row(
        "LP",
        np.array([a.duration_s for a in longs]),
        np.array([a.power_w for a in longs]),
        threads,
        np.array(freqs),
    )
    return Table3Result(
        cap_per_socket_w=cap_per_socket_w,
        rows=[static_row, cond_row, lp_row],
        long_task_cutoff_s=long_task_cutoff_s,
    )


# ----------------------------------------------------------------------
@dataclass
class OverheadsResult:
    """§6.2: instrumentation and control overheads, constants vs measured."""

    tracing_per_call_s: float
    dvfs_switch_s: float
    realloc_per_invocation_s: float
    measured_tracing_fraction: float
    measured_switches: int
    measured_reallocs: int

    def render(self) -> str:
        return render_kv(
            {
                "profiler overhead per MPI call (paper: 34 us)":
                    f"{self.tracing_per_call_s * 1e6:.0f} us",
                "DVFS transition per task (paper: 145 us)":
                    f"{self.dvfs_switch_s * 1e6:.0f} us",
                "power reallocation per invocation (paper: 566 us)":
                    f"{self.realloc_per_invocation_s * 1e6:.0f} us",
                "measured tracing time fraction (paper: <0.05%)":
                    f"{self.measured_tracing_fraction * 100:.4f}%",
                "DVFS switches observed": self.measured_switches,
                "reallocation invocations observed": self.measured_reallocs,
            },
            title="Section 6.2: overheads",
        )


def overheads_summary(
    n_ranks: int = 16,
    iterations: int = 12,
    cap_per_socket_w: float = 50.0,
    seed: int = 2015,
) -> OverheadsResult:
    """Measure the modeled overheads on a CoMD run."""
    from ..workloads import make_comd

    tracing_s = 34e-6
    app = make_comd(WorkloadSpec(n_ranks=n_ranks, iterations=iterations, seed=seed))
    pm = make_power_models(n_ranks)
    job_cap = cap_per_socket_w * n_ranks

    plain = Engine(pm).run(app, StaticPolicy(pm, job_cap))
    traced_engine = Engine(pm, tracing_overhead_s=tracing_s)
    traced = traced_engine.run(app, StaticPolicy(pm, job_cap))
    frac = (traced.makespan_s - plain.makespan_s) / plain.makespan_s

    from ..runtime.conductor import ConductorConfig

    ccfg = ConductorConfig(realloc_period=4, step_w=2.5, measurement_noise=0.01)
    conductor = ConductorPolicy(pm, job_cap, app, config=ccfg)
    res = Engine(pm).run(app, conductor)
    return OverheadsResult(
        tracing_per_call_s=tracing_s,
        dvfs_switch_s=ccfg.switch_overhead_s,
        realloc_per_invocation_s=ccfg.realloc_overhead_s,
        measured_tracing_fraction=frac,
        measured_switches=res.dvfs_switch_count,
        measured_reallocs=conductor.realloc_count,
    )


# ----------------------------------------------------------------------
@dataclass
class EnergyComparisonResult:
    """Related-work contrast (§7): energy-saving runtimes vs the bounds.

    Rows: run-to-completion time and task energy for MaxPerformance (no
    power management), standalone Adagio (slack reclamation, uncapped),
    the energy-LP bound at zero slowdown, and the paper's power-capped LP
    at a mid sweep cap — showing that bounding energy and bounding power
    are different problems.
    """

    rows: list[tuple[str, float, float]]  # (label, time s, energy J)
    cap_per_socket_w: float

    def row(self, label: str) -> tuple[str, float, float]:
        for r in self.rows:
            if r[0] == label:
                return r
        raise KeyError(label)

    def render(self) -> str:
        return render_table(
            ["strategy", "time (s)", "task energy (J)"],
            [list(r) for r in self.rows],
            title=(
                "Energy vs power objectives (CoMD; power-capped LP at "
                f"{self.cap_per_socket_w:.0f} W/socket)"
            ),
        )


# ----------------------------------------------------------------------
@dataclass
class MinimumCapResult:
    """Smallest feasible job cap per benchmark (facility `min_w` requests).

    Each row bisects :func:`repro.core.sweep.minimum_feasible_cap` over one
    parametric solver: the LP is assembled once per benchmark and re-solved
    per probe, with the ambient solver cache serving repeated probes.
    """

    rows: list[tuple[str, float, float, int]]
    # (benchmark, min cap W/socket, unconstrained makespan s, probe solves)
    tol_w: float
    n_ranks: int

    def row(self, benchmark: str) -> tuple[str, float, float, int]:
        for r in self.rows:
            if r[0] == benchmark:
                return r
        raise KeyError(benchmark)

    def render(self) -> str:
        return render_table(
            ["benchmark", "min cap (W/socket)", "unconstrained time (s)",
             "LP solves"],
            [list(r) for r in self.rows],
            title=(
                f"Minimum feasible power caps ({self.n_ranks} ranks, "
                f"bisection tol {self.tol_w:g} W)"
            ),
        )


def minimum_cap_table(
    n_ranks: int = 8,
    iterations: int = 3,
    tol_w: float = 0.5,
    seed: int = 2015,
) -> MinimumCapResult:
    """Bisect the minimum feasible cap for each of the paper's benchmarks."""
    from ..core.model import build_problem_instance
    from ..core.sweep import ParametricCapSolver, minimum_feasible_cap
    from ..exec.options import get_execution_options
    from ..workloads import BENCHMARKS

    cache = get_execution_options().make_cache()
    rows: list[tuple[str, float, float, int]] = []
    for name, make in BENCHMARKS.items():
        app = make(WorkloadSpec(n_ranks=n_ranks, iterations=iterations,
                                seed=seed))
        pm = make_power_models(n_ranks)
        trace = trace_application(app, pm)
        instance = build_problem_instance(trace)
        # At most n_ranks tasks run concurrently, so this cap is feasible.
        pmax = max(f.powers.max() for f in instance.convex.values())
        hi_w = float(pmax) * n_ranks
        solver = ParametricCapSolver(trace, instance=instance)
        min_w = minimum_feasible_cap(
            trace, lo_w=1.0, hi_w=hi_w, tol_w=tol_w * n_ranks,
            cache=cache, instance=instance, solver=solver,
        )
        if min_w is None:
            raise RuntimeError(f"{name}: no feasible cap below {hi_w} W")
        rows.append((
            name,
            min_w / n_ranks,
            instance.unconstrained_makespan_s(),
            solver.n_solves,
        ))
    return MinimumCapResult(rows=rows, tol_w=tol_w, n_ranks=n_ranks)


def energy_comparison(
    n_ranks: int = 8,
    iterations: int = 8,
    cap_per_socket_w: float = 35.0,
    seed: int = 2015,
) -> EnergyComparisonResult:
    """Compare MaxPerformance, Adagio, the energy LP, and the power LP."""
    from ..core.energy_lp import solve_energy_lp
    from ..simulator.engine import MaxPerformancePolicy
    from ..workloads import make_comd

    app = make_comd(WorkloadSpec(n_ranks=n_ranks, iterations=iterations,
                                 seed=seed))
    pm = make_power_models(n_ranks)
    engine = Engine(pm)

    res_max = engine.run(app, MaxPerformancePolicy())
    res_adagio = engine.run(app, ConductorPolicy.adagio(pm, app))

    trace = trace_application(app, pm)
    energy_lp = solve_energy_lp(trace, slowdown=0.0)
    power_lp_res = solve_fixed_order_lp(trace, cap_per_socket_w * n_ranks)

    rows = [
        ("MaxPerformance", res_max.makespan_s, res_max.total_energy_j()),
        ("Adagio", res_adagio.makespan_s, res_adagio.total_energy_j()),
        ("Energy LP (0% slowdown)", energy_lp.makespan_s,
         energy_lp.energy_j),
    ]
    if power_lp_res.feasible:
        power_energy = sum(
            a.duration_s * a.power_w
            for a in power_lp_res.schedule.assignments.values()
        )
        rows.append(
            (f"Power LP ({cap_per_socket_w:.0f} W/socket)",
             power_lp_res.makespan_s, power_energy)
        )
    return EnergyComparisonResult(rows=rows, cap_per_socket_w=cap_per_socket_w)


@dataclass
class ScenarioSummaryResult:
    """Per-policy summary of one N-way scenario sweep.

    One row per policy instance: kind, best per-iteration time with the
    cap it occurred at, how many caps the policy won outright, and the
    mean improvement over the baseline across caps where both are
    defined.
    """

    result: ScenarioResult
    baseline: str

    def rows(self) -> list[list]:
        """The summary rows, one per policy instance in spec order."""
        res = self.result
        base = res.series(self.baseline)
        names = res.policy_names()
        # A policy "wins" a cap when it has the strictly fastest defined
        # time among all policies at that cap.
        wins = {n: 0 for n in names}
        for cell in res.cells:
            timed = {
                n: o.time_s for n, o in cell.outcomes.items()
                if o.time_s is not None
            }
            if timed:
                best = min(timed.values())
                for n, t in timed.items():
                    if t == best:
                        wins[n] += 1
        rows = []
        for name in names:
            outcome = res.cells[0].outcomes[name]
            series = res.series(name)
            defined = [
                (t, cap) for t, cap in zip(series, res.spec.caps_per_socket_w)
                if t is not None
            ]
            best_t, best_cap = min(defined, default=(None, None))
            imps = [
                improvement_pct(b, t)
                for b, t in zip(base, series)
                if b is not None and t is not None
            ]
            mean_imp = (
                None if name == self.baseline or not imps
                else sum(imps) / len(imps)
            )
            rows.append([
                name, outcome.kind, best_t, best_cap, wins[name],
                None if mean_imp is None else round(mean_imp, 1),
            ])
        return rows

    def render(self) -> str:
        spec = self.result.spec
        return render_table(
            ["policy", "kind", "best (s/iter)", "at cap (W)", "caps won",
             f"mean vs {self.baseline} (%)"],
            self.rows(),
            title=(
                f"Scenario summary: {spec.benchmark}, {spec.n_ranks} ranks, "
                f"caps {', '.join(f'{c:g}' for c in spec.caps_per_socket_w)} "
                "W/socket"
            ),
            digits=4,
        )


# ----------------------------------------------------------------------
@dataclass
class FrontierResult:
    """Energy-vs-runtime Pareto frontier of an N-way sweep.

    One row per (cap, policy instance): per-iteration time, per-iteration
    task energy, the mean task power they imply, and performance per watt
    (iterations per kilojoule — throughput divided by mean power).  A row
    is marked Pareto-optimal (``*``) when no other policy at the *same*
    cap is at least as fast and at least as frugal with one strict;
    undefined outcomes (infeasible bounds, unschedulable caps) never
    dominate anything and render as gaps.

    The capped min-energy LP bound (``energy-lp``) anchors its deadline
    to the capped fixed-order optimum, so its row should carry the ``*``
    at every feasible cap — no runtime policy can dominate it.
    """

    result: ScenarioResult

    def energy_series(self, name: str) -> list[float | None]:
        """One policy's per-iteration energies across the cap grid."""
        return [cell.outcomes[name].energy_j for cell in self.result.cells]

    def pareto_optimal(self, cap_per_socket_w: float) -> list[str]:
        """Labels of the non-dominated policies at one cap, in spec order."""
        cell = self.result.cell_at(cap_per_socket_w)
        points = {
            n: (o.time_s, o.energy_j)
            for n, o in cell.outcomes.items()
            if o.time_s is not None and o.energy_j is not None
        }
        return [
            name
            for name in self.result.policy_names()
            if name in points and not self._dominated(name, points)
        ]

    #: Relative tolerance for domination: differences below solver float
    #: noise (a binding cap can leave two formulations one ulp apart)
    #: count as ties, never as a strict improvement.
    _REL_TOL = 1e-9

    @staticmethod
    def _dominated(name: str, points: dict[str, tuple[float, float]]) -> bool:
        """True when another point is no worse on both axes (within float
        noise) and materially better on at least one."""
        rel = FrontierResult._REL_TOL
        t, e = points[name]
        return any(
            t2 <= t * (1 + rel) and e2 <= e * (1 + rel)
            and (t2 < t * (1 - rel) or e2 < e * (1 - rel))
            for n2, (t2, e2) in points.items()
            if n2 != name
        )

    def rows(self) -> list[list]:
        """The frontier rows: cap-major, spec policy order within a cap."""
        rows = []
        for cell in self.result.cells:
            points = {
                n: (o.time_s, o.energy_j)
                for n, o in cell.outcomes.items()
                if o.time_s is not None and o.energy_j is not None
            }
            for name in self.result.policy_names():
                outcome = cell.outcomes[name]
                t, e = outcome.time_s, outcome.energy_j
                if t is None or e is None:
                    rows.append([
                        cell.cap_per_socket_w, name, outcome.kind,
                        None, None, None, None, "",
                    ])
                    continue
                rows.append([
                    cell.cap_per_socket_w, name, outcome.kind, t, e,
                    e / t, 1000.0 / e,
                    "" if self._dominated(name, points) else "*",
                ])
        return rows

    def render(self) -> str:
        """The frontier as a titled text table, one row per (cap, policy)."""
        spec = self.result.spec
        return render_table(
            ["cap (W/skt)", "policy", "kind", "time (s/iter)",
             "energy (J/iter)", "mean power (W)", "perf/W (iter/kJ)",
             "pareto"],
            self.rows(),
            title=(
                f"Energy-runtime frontier: {spec.benchmark}, "
                f"{spec.n_ranks} ranks, caps "
                f"{', '.join(f'{c:g}' for c in spec.caps_per_socket_w)} "
                "W/socket"
            ),
            digits=4,
        )


def frontier_table(
    n_ranks: int = 8,
    caps: tuple[float, ...] = (35.0, 50.0, 65.0),
    policies: tuple[str, ...] = (
        "static", "dvfs-energy", "config-search", "lp", "energy-lp",
    ),
    benchmark: str = "comd",
    quick: bool = False,
    seed: int = 2015,
) -> FrontierResult:
    """Sweep energy-aware policies against the bounds; build the frontier.

    The default scenario pits the paper's capped LP bound and the Static
    baseline against the energy-objective runtimes (``dvfs-energy``,
    ``config-search``) and the capped min-energy LP bound across a small
    cap grid.  ``quick`` shrinks the measurement protocol to the CI smoke
    windows (12 run iterations, steady window 6, 2 LP iterations).
    """
    protocol = (
        {"run_iterations": 12, "lp_iterations": 2, "steady_window": 6}
        if quick else {}
    )
    spec = ScenarioSpec(
        benchmark=benchmark,
        caps_per_socket_w=tuple(caps),
        policies=tuple(PolicySpec(p) for p in policies),
        n_ranks=n_ranks,
        seed=seed,
        **protocol,
    )
    return FrontierResult(result=run_scenarios(spec))


def scenario_summary(
    result: ScenarioResult, baseline: str | None = None
) -> ScenarioSummaryResult:
    """Summarize an N-way scenario result (baseline: first policy)."""
    names = result.policy_names()
    if baseline is None:
        baseline = names[0]
    if baseline not in names:
        raise ValueError(
            f"baseline {baseline!r} is not in the scenario; policies: {names}"
        )
    return ScenarioSummaryResult(result=result, baseline=baseline)
