"""One function per paper figure: regenerate the exact exhibit.

Each function returns a small result object carrying the raw series plus a
``render()`` method that prints the figure's content as a text table.  The
benchmark harness under ``benchmarks/`` invokes these and asserts the
paper's qualitative claims (who wins, by roughly what factor, where the
crossovers sit).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core.fixed_order_lp import solve_fixed_order_lp
from ..core.flow_ilp import solve_flow_ilp
from ..core.model import build_problem_instance
from ..exec.cache import SolverCache
from ..exec.keys import solver_key
from ..exec.options import get_execution_options
from ..exec.parallel import ParallelRunner, pool_width
from ..machine.configuration import ConfigPoint, measure_task_space
from ..machine.pareto import convex_frontier, pareto_frontier
from ..machine.power import SocketPowerModel
from ..runtime.static import StaticPolicy
from ..simulator.engine import Engine
from ..simulator.trace import trace_application
from ..workloads import WorkloadSpec, make_comd, two_rank_exchange
from ..workloads.comd import FORCE_KERNEL
from ..scenarios.run import ScenarioResult
from .report import render_kv, render_series, render_table
from .runner import (
    DEFAULT_CAPS_W,
    ComparisonResult,
    ExperimentConfig,
    improvement_pct,
    make_power_models,
    sweep_caps,
)

__all__ = [
    "figure1_pareto_frontier",
    "figure8_flow_vs_fixed",
    "figure9_lp_vs_static",
    "figure10_lp_vs_conductor",
    "figure11_comd",
    "figure12_comd_task_scatter",
    "figure13_bt",
    "figure14_sp",
    "figure15_lulesh",
    "headline_summary",
    "benchmark_config",
    "scenario_sweep_figure",
    "ScenarioSweepFigure",
    "BENCH_CAPS",
]

#: Per-benchmark cap ranges as shown in the paper's figures.
BENCH_CAPS: dict[str, tuple[float, ...]] = {
    "comd": DEFAULT_CAPS_W,
    "bt": (30.0, 40.0, 50.0, 60.0, 70.0),
    "sp": (40.0, 50.0, 60.0, 70.0, 80.0),
    "lulesh": (40.0, 50.0, 60.0, 70.0, 80.0),
}


def benchmark_config(benchmark: str, n_ranks: int = 32) -> ExperimentConfig:
    """Standard experiment configuration for one benchmark."""
    lp_iters = 3 if benchmark == "lulesh" else 4
    return ExperimentConfig(
        benchmark=benchmark, n_ranks=n_ranks, lp_iterations=lp_iters
    )


# ----------------------------------------------------------------------
@dataclass
class Figure1Result:
    """Time-vs-power scatter for one CoMD task + its frontiers (Fig. 1)."""

    points: list[ConfigPoint]
    pareto: list[ConfigPoint]
    convex: list[ConfigPoint]

    def table1_rows(self, head: int = 2, tail: int = 5) -> list[list]:
        """The paper's Table 1: a sample of Pareto configurations."""
        rows = []
        n = len(self.pareto)
        # Table 1 lists fastest-first (highest power first).
        ordered = list(reversed(self.pareto))
        for i, p in enumerate(ordered):
            if i < head or i >= n - tail:
                rows.append(
                    [f"C_i,{i + 1}", p.config.freq_ghz, p.config.threads,
                     round(p.power_w, 1), round(p.duration_s, 4)]
                )
            elif i == head:
                rows.append(["C_i,...", "...", "...", "...", "..."])
        return rows

    def render(self) -> str:
        parts = [
            render_kv(
                {
                    "configurations": len(self.points),
                    "pareto-efficient": len(self.pareto),
                    "convex frontier": len(self.convex),
                    "power range (W)": f"{min(p.power_w for p in self.points):.1f}"
                    f" - {max(p.power_w for p in self.points):.1f}",
                },
                title="Figure 1: time vs. power for a CoMD task",
            ),
            render_table(
                ["config", "freq (GHz)", "threads", "power (W)", "time (s)"],
                self.table1_rows(),
                title="Table 1: sample of Pareto-efficient configurations",
            ),
        ]
        return "\n\n".join(parts)


def figure1_pareto_frontier(
    efficiency: float = 1.0,
) -> Figure1Result:
    """Reproduce Figure 1 / Table 1 on the CoMD force task."""
    pm = SocketPowerModel(efficiency=efficiency)
    points = measure_task_space(FORCE_KERNEL, pm)
    return Figure1Result(
        points=points,
        pareto=pareto_frontier(points),
        convex=convex_frontier(points),
    )


# ----------------------------------------------------------------------
@dataclass
class Figure8Result:
    """Fixed-order LP vs flow ILP over a total-power sweep (Fig. 8)."""

    caps_w: list[float]
    fixed_s: list[float | None]
    flow_s: list[float | None]
    tolerance_pct: float = 1.9

    def comparable(self) -> list[tuple[float, float, float]]:
        return [
            (c, f, g)
            for c, f, g in zip(self.caps_w, self.fixed_s, self.flow_s)
            if f is not None and g is not None
        ]

    def agreement_fraction(self) -> float:
        """Fraction of caps where the two agree within the tolerance."""
        comp = self.comparable()
        if not comp:
            return 0.0
        ok = sum(
            1 for _, f, g in comp if abs(f - g) / max(g, 1e-12) * 100 <= self.tolerance_pct
        )
        return ok / len(comp)

    def max_gap_pct(self) -> float:
        comp = self.comparable()
        return max(
            (abs(f - g) / max(g, 1e-12) * 100 for _, f, g in comp), default=0.0
        )

    def render(self) -> str:
        rows = [
            [c, f, g,
             None if (f is None or g is None) else (f - g) / g * 100]
            for c, f, g in zip(self.caps_w, self.fixed_s, self.flow_s)
        ]
        head = render_kv(
            {
                "caps tested": len(self.caps_w),
                "solved by both": len(self.comparable()),
                "agreement (<=1.9%)": f"{self.agreement_fraction() * 100:.1f}%",
                "max gap": f"{self.max_gap_pct():.2f}%",
            },
            title="Figure 8: flow ILP vs fixed-vertex-order LP "
                  "(two-rank async exchange)",
        )
        # The full 100+ row table is long; show every 8th row.
        sample = rows[:: max(1, len(rows) // 14)]
        return head + "\n\n" + render_table(
            ["total power (W)", "fixed LP (s)", "flow ILP (s)", "gap (%)"],
            sample, digits=4,
        )


@functools.lru_cache(maxsize=4)
def _fig8_trace(phases: int):
    """Figure 8's traced two-rank exchange (memoized per process)."""
    app = two_rank_exchange(phases=phases)
    pm = make_power_models(2, efficiency_seed=7, sigma=0.02)
    return trace_application(app, pm)


@functools.lru_cache(maxsize=4)
def _fig8_instance(phases: int):
    """The trace's shared problem IR — both formulations compile from it."""
    return build_problem_instance(_fig8_trace(phases))


def _fig8_key(cap: float, phases: int, time_limit_s: float) -> str:
    """The cache key of one Figure 8 cell."""
    return solver_key(
        _fig8_trace(phases), cap, formulation="fig8_cell",
        params={"time_limit_s": time_limit_s},
    )


def _fig8_cell(
    cell: tuple[float, int, float, str | None],
) -> tuple[float | None, float | None]:
    """(fixed LP, flow ILP) makespans at one cap — one fan-out unit."""
    cap, phases, time_limit_s, cache_root = cell
    trace = _fig8_trace(phases)
    instance = _fig8_instance(phases)
    cache = SolverCache(cache_root) if cache_root is not None else None
    if cache is not None:
        key = _fig8_key(cap, phases, time_limit_s)
        payload = cache.get(key)
        if payload is not None:
            return payload["fixed"], payload["flow"]
    lp = solve_fixed_order_lp(trace, cap, instance=instance)
    fixed = lp.makespan_s if lp.feasible else None
    ilp = solve_flow_ilp(trace, cap, time_limit_s=time_limit_s, instance=instance)
    flow = ilp.makespan_s if ilp.feasible else None
    if cache is not None:
        cache.put(key, {"fixed": fixed, "flow": flow})
    return fixed, flow


def figure8_flow_vs_fixed(
    cap_min_w: float = 35.0,
    cap_max_w: float = 61.25,
    n_caps: int = 106,
    phases: int = 2,
    time_limit_s: float = 60.0,
) -> Figure8Result:
    """Reproduce Figure 8 on the two-rank asynchronous exchange.

    The per-cap cells (an LP plus an ILP each) fan out over the ambient
    :class:`~repro.exec.options.ExecutionOptions` workers and are
    memoized in the ambient cache; the default options run the paper's
    serial, uncached loop.  As in
    :func:`~repro.scenarios.run.run_scenarios`, the pool is sized by the
    cells that miss the cache (:func:`~repro.exec.parallel.pool_width`).
    """
    caps = [float(c) for c in np.linspace(cap_min_w, cap_max_w, n_caps)]
    opts = get_execution_options()
    cache = opts.make_cache()
    cache_root = str(cache.root) if cache is not None else None
    unserved = [
        cap for cap in caps
        if cache is None or _fig8_key(cap, phases, time_limit_s) not in cache
    ]
    runner = ParallelRunner(
        max_workers=pool_width(opts.workers, len(caps), len(unserved)),
        timeout_s=opts.task_timeout_s,
        retries=opts.task_retries,
    )
    cells = [(cap, phases, time_limit_s, cache_root) for cap in caps]
    pairs = runner.map(_fig8_cell, cells)
    return Figure8Result(
        caps_w=caps,
        fixed_s=[fixed for fixed, _ in pairs],
        flow_s=[flow for _, flow in pairs],
    )


# ----------------------------------------------------------------------
@dataclass
class SweepFigure:
    """A potential-improvement-vs-cap figure (Figs. 9-11, 13-15)."""

    title: str
    series: dict[str, list[ComparisonResult]]
    metric: str  # 'lp_vs_static' | 'lp_vs_conductor' | 'both_vs_static'

    def rows(self) -> tuple[list[str], list[list]]:
        if self.metric == "both_vs_static":
            headers = ["cap (W/socket)", "LP vs Static (%)",
                       "Conductor vs Static (%)"]
            (name, results), = self.series.items()
            rows = [
                [r.cap_per_socket_w, r.lp_vs_static_pct, r.conductor_vs_static_pct]
                for r in results
            ]
            return headers, rows
        headers = ["cap (W/socket)"] + [f"{n} (%)" for n in self.series]
        caps = sorted(
            {r.cap_per_socket_w for rs in self.series.values() for r in rs}
        )
        attr = f"{self.metric}_pct"
        rows = []
        for cap in caps:
            row: list = [cap]
            for results in self.series.values():
                match = [r for r in results if r.cap_per_socket_w == cap]
                row.append(getattr(match[0], attr) if match else None)
            rows.append(row)
        return headers, rows

    def max_improvement(self, name: str | None = None) -> float:
        attr = (
            "lp_vs_static_pct" if self.metric in ("lp_vs_static", "both_vs_static")
            else f"{self.metric}_pct"
        )
        vals = [
            getattr(r, attr)
            for key, rs in self.series.items()
            if name is None or key == name
            for r in rs
            if getattr(r, attr) is not None
        ]
        return max(vals, default=float("nan"))

    def render(self) -> str:
        headers, rows = self.rows()
        return render_table(headers, rows, title=self.title, digits=1)


@dataclass
class ScenarioSweepFigure:
    """An N-way time-vs-cap figure for one scenario result.

    One ``s/iter`` column per policy instance, plus — when a ``baseline``
    is named — one improvement column per non-baseline policy, computed
    the way the paper reports improvements (``t_base / t_policy - 1``).
    """

    title: str
    result: ScenarioResult
    baseline: str | None = None

    def __post_init__(self) -> None:
        names = self.result.policy_names()
        if self.baseline is not None and self.baseline not in names:
            raise ValueError(
                f"baseline {self.baseline!r} is not in the scenario; "
                f"policies: {names}"
            )

    def series(self) -> dict[str, list[float | None]]:
        """Per-policy s/iter across the cap grid, in spec order."""
        return {n: self.result.series(n) for n in self.result.policy_names()}

    def improvement_series(self) -> dict[str, list[float | None]]:
        """Per-policy improvement (%) over the baseline across the grid."""
        if self.baseline is None:
            return {}
        base = self.result.series(self.baseline)
        return {
            name: [
                improvement_pct(b, t)
                for b, t in zip(base, self.result.series(name))
            ]
            for name in self.result.policy_names()
            if name != self.baseline
        }

    def render(self) -> str:
        """The N-way table: caps x (times + improvement columns).

        Cells that failed outright (a ``--keep-going`` sweep) render as
        gaps in the table and are itemized in a footer, so a partial
        sweep is never mistaken for a complete one.
        """
        caps = list(self.result.spec.caps_per_socket_w)
        columns: dict[str, list] = {
            f"{n} (s/iter)": vs for n, vs in self.series().items()
        }
        for name, vals in self.improvement_series().items():
            columns[f"{name} vs {self.baseline} (%)"] = [
                None if v is None else round(v, 1) for v in vals
            ]
        text = render_series(
            "cap (W/socket)", caps, columns, title=self.title, digits=4
        )
        failed = self.result.failed_cells()
        if failed:
            lines = [text, "", f"failed cells ({len(failed)}):"]
            lines += [
                f"  cap={cell.cap_per_socket_w:g} W/socket: "
                f"{cell.failure.error_type} after {cell.failure.attempts} "
                f"attempt(s): {cell.failure.error_message}"
                for cell in failed
            ]
            text = "\n".join(lines)
        return text


def scenario_sweep_figure(
    result: ScenarioResult,
    baseline: str | None = None,
    title: str | None = None,
) -> ScenarioSweepFigure:
    """The standard exhibit for an N-way scenario sweep."""
    spec = result.spec
    if title is None:
        title = (
            f"Scenario: {spec.benchmark}, {spec.n_ranks} ranks, "
            f"{len(spec.policies)}-way {{{', '.join(spec.policy_labels())}}}"
        )
    return ScenarioSweepFigure(title=title, result=result, baseline=baseline)


def _sweep(benchmark: str, n_ranks: int = 32) -> list[ComparisonResult]:
    return sweep_caps(benchmark_config(benchmark, n_ranks), BENCH_CAPS[benchmark])


def figure9_lp_vs_static(n_ranks: int = 32) -> SweepFigure:
    """Fig. 9: LP potential improvement over Static, all four benchmarks."""
    series = {b: _sweep(b, n_ranks) for b in ("bt", "comd", "lulesh", "sp")}
    return SweepFigure(
        title="Figure 9: potential speedup of LP-derived schedules vs Static",
        series=series,
        metric="lp_vs_static",
    )


def figure10_lp_vs_conductor(n_ranks: int = 32) -> SweepFigure:
    """Fig. 10: LP potential improvement over Conductor."""
    series = {b: _sweep(b, n_ranks) for b in ("bt", "comd", "lulesh", "sp")}
    return SweepFigure(
        title="Figure 10: potential speedup of LP-derived schedules vs Conductor",
        series=series,
        metric="lp_vs_conductor",
    )


def _single_benchmark_figure(benchmark: str, title: str, n_ranks: int) -> SweepFigure:
    return SweepFigure(
        title=title, series={benchmark: _sweep(benchmark, n_ranks)},
        metric="both_vs_static",
    )


def figure11_comd(n_ranks: int = 32) -> SweepFigure:
    """Fig. 11: CoMD — LP and Conductor improvement vs Static."""
    return _single_benchmark_figure(
        "comd", "Figure 11: CoMD improvement vs Static", n_ranks
    )


def figure13_bt(n_ranks: int = 32) -> SweepFigure:
    """Fig. 13: BT — LP and Conductor improvement vs Static."""
    return _single_benchmark_figure(
        "bt", "Figure 13: BT improvement vs Static", n_ranks
    )


def figure14_sp(n_ranks: int = 32) -> SweepFigure:
    """Fig. 14: SP — LP and Conductor improvement vs Static."""
    return _single_benchmark_figure(
        "sp", "Figure 14: SP improvement vs Static", n_ranks
    )


def figure15_lulesh(n_ranks: int = 32) -> SweepFigure:
    """Fig. 15: LULESH — LP and Conductor improvement vs Static."""
    return _single_benchmark_figure(
        "lulesh", "Figure 15: LULESH improvement vs Static", n_ranks
    )


# ----------------------------------------------------------------------
@dataclass
class Figure12Result:
    """CoMD long-task duration-vs-power scatter at 30 W/socket (Fig. 12)."""

    cap_per_socket_w: float
    lp_points: list[tuple[float, float]]      # (power W, duration s)
    static_points: list[tuple[float, float]]
    long_task_cutoff_s: float = 0.5

    def stats(self, points: list[tuple[float, float]]) -> dict:
        if not points:
            return {}
        p = np.array([x for x, _ in points])
        d = np.array([y for _, y in points])
        return {
            "tasks": len(points),
            "power min/max (W)": f"{p.min():.1f} / {p.max():.1f}",
            "duration min/max (s)": f"{d.min():.3f} / {d.max():.3f}",
            "duration median (s)": float(np.median(d)),
        }

    def render(self) -> str:
        return "\n\n".join(
            [
                render_kv(
                    self.stats(self.lp_points),
                    title="Figure 12 (LP schedule, cap "
                          f"{self.cap_per_socket_w:.0f} W/socket)",
                ),
                render_kv(self.stats(self.static_points), title="(Static)"),
            ]
        )


def figure12_comd_task_scatter(
    cap_per_socket_w: float = 30.0,
    n_ranks: int = 32,
    iterations: int = 8,
    seed: int = 2015,
    efficiency_seed: int = 42,
    long_task_cutoff_s: float = 0.5,
) -> Figure12Result:
    """Reproduce Figure 12: long-task characteristics, LP vs Static.

    The paper plots 100 iterations; ``iterations`` trades statistics for
    LP size (32 ranks x 8 iterations already gives 256 long tasks).
    """
    app = make_comd(WorkloadSpec(n_ranks=n_ranks, iterations=iterations, seed=seed))
    pm = make_power_models(n_ranks, efficiency_seed)
    job_cap = cap_per_socket_w * n_ranks

    trace = trace_application(app, pm)
    lp = solve_fixed_order_lp(trace, job_cap)
    if not lp.feasible:
        raise RuntimeError(f"LP infeasible at {cap_per_socket_w} W/socket")
    lp_points = [
        (a.power_w, a.duration_s)
        for a in lp.schedule.assignments.values()
        if a.duration_s > long_task_cutoff_s
    ]

    engine = Engine(pm)
    res = engine.run(app, StaticPolicy(pm, job_cap))
    static_points = [
        (r.power_w, r.duration_s)
        for r in res.records
        if r.duration_s > long_task_cutoff_s
    ]
    return Figure12Result(
        cap_per_socket_w=cap_per_socket_w,
        lp_points=lp_points,
        static_points=static_points,
        long_task_cutoff_s=long_task_cutoff_s,
    )


# ----------------------------------------------------------------------
@dataclass
class HeadlineSummary:
    """The abstract's headline numbers, recomputed."""

    max_lp_vs_static_pct: float
    max_lp_vs_conductor_pct: float
    avg_lp_vs_static_pct: float
    avg_conductor_vs_static_pct: float

    def render(self) -> str:
        return render_kv(
            {
                "max LP vs Static (paper: 74.9%)":
                    f"{self.max_lp_vs_static_pct:.1f}%",
                "max LP vs Conductor (paper: 41.1%)":
                    f"{self.max_lp_vs_conductor_pct:.1f}%",
                "avg LP vs Static (paper: 10.8%)":
                    f"{self.avg_lp_vs_static_pct:.1f}%",
                "avg Conductor vs Static (paper: 6.7%)":
                    f"{self.avg_conductor_vs_static_pct:.1f}%",
            },
            title="Headline summary (all benchmarks, all caps)",
        )


def headline_summary(n_ranks: int = 32) -> HeadlineSummary:
    """Aggregate the abstract's headline claims over the full sweep."""
    all_results = [
        r
        for b in ("comd", "bt", "sp", "lulesh")
        for r in _sweep(b, n_ranks)
        if r.schedulable and r.feasible
    ]
    lp_static = [r.lp_vs_static_pct for r in all_results]
    lp_cond = [r.lp_vs_conductor_pct for r in all_results]
    cond_static = [r.conductor_vs_static_pct for r in all_results]
    return HeadlineSummary(
        max_lp_vs_static_pct=max(lp_static),
        max_lp_vs_conductor_pct=max(lp_cond),
        avg_lp_vs_static_pct=float(np.mean(lp_static)),
        avg_conductor_vs_static_pct=float(np.mean(cond_static)),
    )
