"""The policy registry: name -> factory + typed per-policy configuration.

Every power-allocation policy the repo implements — the runtimes under
:mod:`repro.runtime` and the LP/ILP schedulability bounds under
:mod:`repro.core` — is registered here under a stable name, with a
default configuration document and a factory/solver callable.  Scenario
specs (:mod:`repro.scenarios.spec`) reference policies purely by name +
config overrides, which is what makes experiments *data*: adding a policy
to the registry makes it reachable from the CLI, sweeps, caching and
traces with no further plumbing.

Two kinds of entry:

* ``runtime`` — builds a simulator policy object (``build(ctx, cfg)``);
  the executor runs it through the :class:`~repro.simulator.engine.Engine`
  and measures the per-iteration time over the entry's window
  (``measure``: ``"discard"`` drops the first ``discard_iterations``,
  ``"steady"`` keeps the trailing ``steady_window`` — the protocol the
  paper uses for non-adaptive vs adaptive systems).
* ``bound`` — solves an offline formulation (``solve(ctx, cfg, scope)``)
  and reports the scheduled per-iteration bound; ``scope`` is the trace
  scope factory so only the solve proper lands inside the policy's span.

A layering guard (``tests/test_layering.py``) asserts every ``*Policy``
exported from ``repro.runtime.__all__`` is registered, so new runtimes
cannot silently stay unreachable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from ..core.fixed_order_lp import FixedOrderLpResult
from ..core.flow_ilp import solve_flow_ilp
from ..core.model import ProblemInstance
from ..core.rounding import round_schedule
from ..core.sweep import ParametricCapSolver
from ..exec.cache import SolverCache, cached_solve_energy_lp
from ..machine.frontiers import FrontierStore
from ..machine.power import SocketPowerModel
from ..runtime.conductor import ConductorConfig, ConductorPlanner, ConductorPolicy
from ..runtime.config_search import ConfigSearchPolicy
from ..runtime.dvfs_energy import DvfsEnergyPolicy
from ..runtime.static import StaticPolicy
from ..simulator.engine import Engine, SweepRunOutcome
from ..simulator.program import Application
from ..simulator.trace import Trace

__all__ = [
    "PolicyContext",
    "BoundResult",
    "PolicyEntry",
    "PolicyRegistry",
    "default_registry",
]


@dataclass
class PolicyContext:
    """Everything a policy factory or bound solver may consume for one cell.

    Built once per (benchmark, cap) cell by the executor, from the
    benchmark's shared state, so every field is set; the fields a
    given entry actually reads depend on its kind (runtime policies use
    the application/machine state, bounds use the trace/IR/cache).
    """

    power_models: list[SocketPowerModel]
    job_cap_w: float
    app: Application
    frontier_store: FrontierStore
    trace: Trace
    instance: ProblemInstance
    cache: SolverCache | None
    lp_iterations: int
    #: Shared ``power_tiebreak -> ParametricCapSolver`` pool, scoped to the
    #: benchmark (the trace).  The scenario executor passes the same dict
    #: into every cell's context, so the frozen LP model is assembled
    #: once per (trace, tiebreak) and re-solved across the whole cap grid
    #: on the thread's persistent HiGHS handle with only RHS updates.
    cap_solvers: dict[float, ParametricCapSolver]


@dataclass(frozen=True)
class BoundResult:
    """What a bound entry reports: per-iteration time (None = infeasible)
    plus formulation-specific extras (e.g. the rounded discrete time).

    ``energy_j`` is the schedule's per-iteration task energy where the
    formulation yields one (the energy axis of frontier exhibits); bounds
    without a schedule leave it None."""

    time_s: float | None
    extra: dict = field(default_factory=dict)
    energy_j: float | None = None


@dataclass(frozen=True)
class PolicyEntry:
    """One registered policy: identity, defaults, and evaluation hooks."""

    name: str
    kind: str  # "runtime" | "bound"
    summary: str
    default_config: dict
    measure: str = "discard"  # runtime entries: "discard" | "steady"
    policy_class: type | None = None
    build: Callable[[PolicyContext, dict], Any] | None = None
    solve: Callable[[PolicyContext, dict, Callable[[], Any]], BoundResult] | None = None
    #: Bound entries: the ``(power_tiebreak, time_limit_s)`` of each
    #: fixed-order LP that ``solve`` asks ``ctx.cap_solvers`` for at a
    #: schedulable cell's cap, so a serial sweep can solve them ahead.
    cap_lps: Callable[[dict], list[tuple[float, float | None]]] | None = None
    #: Runtime entries whose policy decides from the cap and from what it
    #: measures at Pcontrol barriers alone, so every cap's run walks the
    #: DAG in one order (static, and the Conductor planner's conductor,
    #: selection-only and adagio): ``sweep(ctx, cfg, engine, job_caps_w)``
    #: runs it at every job cap in one :meth:`Engine.run_sweep` walk and
    #: returns the outcome with each point's extras, point ``c`` being the
    #: run of ``build`` at ``job_caps_w[c]`` and the extras those the cell
    #: reports for it, so a serial sweep can run its cells' caps ahead.
    sweep: Callable[
        [PolicyContext, dict, Engine, list[float]],
        tuple[SweepRunOutcome, list[dict]],
    ] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("runtime", "bound"):
            raise ValueError(f"kind must be 'runtime' or 'bound', got {self.kind!r}")
        if self.measure not in ("discard", "steady"):
            raise ValueError(
                f"measure must be 'discard' or 'steady', got {self.measure!r}"
            )
        if self.kind == "runtime" and self.build is None:
            raise ValueError(f"runtime entry {self.name!r} needs a build callable")
        if self.kind == "bound" and self.solve is None:
            raise ValueError(f"bound entry {self.name!r} needs a solve callable")

    def resolve_config(self, overrides: dict | None) -> dict:
        """Defaults merged with ``overrides``; unknown keys are an error."""
        overrides = dict(overrides or {})
        unknown = sorted(set(overrides) - set(self.default_config))
        if unknown:
            raise ValueError(
                f"policy {self.name!r}: unknown config keys {unknown}; "
                f"valid keys: {sorted(self.default_config)}"
            )
        merged = dict(self.default_config)
        merged.update(overrides)
        return merged


class PolicyRegistry:
    """Name-unique collection of :class:`PolicyEntry` objects."""

    def __init__(self) -> None:
        self._entries: dict[str, PolicyEntry] = {}

    def register(self, entry: PolicyEntry) -> PolicyEntry:
        """Add an entry; a duplicate name is a hard error."""
        if entry.name in self._entries:
            raise ValueError(f"policy {entry.name!r} is already registered")
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> PolicyEntry:
        """Look up an entry, with a helpful error naming the registry."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown policy {name!r}; registered: {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        """Registered policy names, sorted."""
        return sorted(self._entries)

    def entries(self) -> list[PolicyEntry]:
        """All entries, in registration order."""
        return list(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Built-in entries.

def _build_static(ctx: PolicyContext, cfg: dict) -> StaticPolicy:
    return StaticPolicy(ctx.power_models, ctx.job_cap_w, threads=cfg["threads"])


def _sweep_static(
    ctx: PolicyContext, cfg: dict, engine: Engine, job_caps_w: list[float]
) -> tuple[SweepRunOutcome, list[dict]]:
    policy = _build_static(ctx, cfg)
    plan = policy.plan_sweep(ctx.app, engine, job_caps_w)
    return engine.run_sweep(ctx.app, policy, plan), [{}] * len(job_caps_w)


def _build_conductor(ctx: PolicyContext, cfg: dict) -> ConductorPolicy:
    return ConductorPolicy(
        ctx.power_models,
        ctx.job_cap_w,
        ctx.app,
        config=ConductorConfig(**cfg),
        frontier_store=ctx.frontier_store,
    )


def _build_selection_only(ctx: PolicyContext, cfg: dict) -> ConductorPolicy:
    return ConductorPolicy.selection_only(
        ctx.power_models, ctx.job_cap_w, ctx.app,
        frontier_store=ctx.frontier_store, **cfg,
    )


def _build_adagio(ctx: PolicyContext, cfg: dict) -> ConductorPolicy:
    return ConductorPolicy.adagio(
        ctx.power_models, ctx.app, frontier_store=ctx.frontier_store, **cfg
    )


def _sweep_planner(
    ctx: PolicyContext,
    config: ConductorConfig,
    engine: Engine,
    job_caps_w: list[float],
) -> tuple[SweepRunOutcome, list[dict]]:
    """The Conductor planner under ``config`` at every job cap, in one walk."""
    planner = ConductorPlanner(
        ctx.power_models,
        job_caps_w,
        ctx.app,
        config=config,
        frontier_store=ctx.frontier_store,
    )
    outcome = engine.run_sweep(ctx.app, planner, planner.sweep_plan(engine))
    # Reallocations happen at the same barriers at every cap.
    reallocs = planner.realloc_count
    extra = {} if reallocs is None else {"reallocs": reallocs}
    return outcome, [extra] * len(job_caps_w)


def _sweep_conductor(
    ctx: PolicyContext, cfg: dict, engine: Engine, job_caps_w: list[float]
) -> tuple[SweepRunOutcome, list[dict]]:
    return _sweep_planner(ctx, ConductorConfig(**cfg), engine, job_caps_w)


def _sweep_selection_only(
    ctx: PolicyContext, cfg: dict, engine: Engine, job_caps_w: list[float]
) -> tuple[SweepRunOutcome, list[dict]]:
    config = ConductorConfig.selection_only(**cfg)
    return _sweep_planner(ctx, config, engine, job_caps_w)


def _sweep_adagio(
    ctx: PolicyContext, cfg: dict, engine: Engine, job_caps_w: list[float]
) -> tuple[SweepRunOutcome, list[dict]]:
    config = ConductorConfig.selection_only(
        cfg["safety"], cfg["switch_overhead_s"], cfg["min_switch_duration_s"]
    )
    # Uncapped: every point is the same run.
    return _sweep_planner(ctx, config, engine, [math.inf] * len(job_caps_w))


def _build_dvfs_energy(ctx: PolicyContext, cfg: dict) -> DvfsEnergyPolicy:
    return DvfsEnergyPolicy(
        ctx.power_models,
        ctx.app,
        safety=cfg["safety"],
        switch_overhead_s=cfg["switch_overhead_s"],
        min_switch_duration_s=cfg["min_switch_duration_s"],
    )


def _build_config_search(ctx: PolicyContext, cfg: dict) -> ConfigSearchPolicy:
    return ConfigSearchPolicy(
        ctx.power_models,
        ctx.job_cap_w if cfg["capped"] else None,
        max_slowdown=cfg["max_slowdown"],
    )


#: The power tie-break of ``energy-lp``'s capped-deadline anchor.
_ANCHOR_TIEBREAK = 1e-9


# The fixed-order LPs each bound entry solves at a cell's cap, as
# ``(power_tiebreak, time_limit_s)``: its ``solve`` reads them from here,
# and so does a serial sweep that solves them ahead (``cap_lps``).
def _lp_cap_lps(cfg: dict) -> list[tuple[float, float | None]]:
    return [(cfg["power_tiebreak"], cfg["time_limit_s"])]


def _energy_lp_cap_lps(cfg: dict) -> list[tuple[float, float | None]]:
    """The capped-deadline anchor, when ``energy-lp`` is capped."""
    return [(_ANCHOR_TIEBREAK, cfg["time_limit_s"])] if cfg["capped"] else []


def cap_solver(
    cap_solvers: dict[float, ParametricCapSolver],
    trace: Trace,
    instance: ProblemInstance,
    power_tiebreak: float,
) -> ParametricCapSolver:
    """The pool's fixed-order LP solver at ``power_tiebreak``, built and
    pooled on first use."""
    tiebreak = float(power_tiebreak)
    solver = cap_solvers.get(tiebreak)
    if solver is None:
        solver = ParametricCapSolver(
            trace, power_tiebreak=tiebreak, instance=instance
        )
        cap_solvers[tiebreak] = solver
    return solver


def _fixed_order_at_cap(
    ctx: PolicyContext, power_tiebreak: float, time_limit_s: float | None
) -> FixedOrderLpResult:
    """The fixed-order LP at this cell's cap, through the shared pool.

    Cross-cell reuse: one frozen model per (trace, tiebreak), re-solved
    at this cell's cap via an RHS update.  Shared by the ``lp`` bound and
    by ``energy-lp``'s capped-deadline anchor.
    """
    solver = cap_solver(ctx.cap_solvers, ctx.trace, ctx.instance, power_tiebreak)
    return solver.solve(ctx.job_cap_w, cache=ctx.cache, time_limit_s=time_limit_s)


def _solve_lp(ctx: PolicyContext, cfg: dict, scope: Callable[[], Any]) -> BoundResult:
    with scope():
        lp = _fixed_order_at_cap(ctx, *_lp_cap_lps(cfg)[0])
    if not lp.feasible:
        return BoundResult(time_s=None, extra={"feasible": False})
    extra: dict = {"feasible": True}
    if cfg["include_discrete"]:
        # Rounding replays outside the solver's trace scope, exactly as
        # the legacy comparison did.
        disc = round_schedule(ctx.trace, lp.schedule)
        extra["discrete_s"] = disc.objective_s / ctx.lp_iterations
    return BoundResult(
        time_s=lp.makespan_s / ctx.lp_iterations,
        extra=extra,
        energy_j=lp.schedule.total_energy_j() / ctx.lp_iterations,
    )


def _solve_energy_lp(
    ctx: PolicyContext, cfg: dict, scope: Callable[[], Any]
) -> BoundResult:
    with scope():
        deadline_s = None
        for anchor_lp in _energy_lp_cap_lps(cfg):
            # Under a cap no schedule can reach the unconstrained
            # makespan, so the deadline anchors to the *capped*
            # fixed-order optimum: min-energy among schedules matching
            # the cap's own best achievable time (plus the slowdown
            # allowance).  Warm when the cell also evaluates ``lp``.
            anchor = _fixed_order_at_cap(ctx, *anchor_lp)
            if not anchor.feasible:
                return BoundResult(time_s=None, extra={"feasible": False})
            deadline_s = anchor.makespan_s
        result = cached_solve_energy_lp(
            ctx.trace,
            slowdown=cfg["slowdown"],
            cache=ctx.cache,
            time_limit_s=cfg["time_limit_s"],
            instance=ctx.instance,
            cap_w=ctx.job_cap_w if cfg["capped"] else None,
            deadline_s=deadline_s,
        )
    if not result.feasible:
        return BoundResult(time_s=None, extra={"feasible": False})
    return BoundResult(
        time_s=result.makespan_s / ctx.lp_iterations,
        extra={
            "feasible": True,
            "time_budget_s": result.time_budget_s / ctx.lp_iterations,
        },
        energy_j=result.energy_j / ctx.lp_iterations,
    )


def _solve_flow_ilp(
    ctx: PolicyContext, cfg: dict, scope: Callable[[], Any]
) -> BoundResult:
    with scope():
        ilp = solve_flow_ilp(
            ctx.trace,
            ctx.job_cap_w,
            time_limit_s=cfg["time_limit_s"],
            instance=ctx.instance,
        )
    if not ilp.feasible:
        return BoundResult(time_s=None, extra={"feasible": False})
    return BoundResult(
        time_s=ilp.makespan_s / ctx.lp_iterations, extra={"feasible": True}
    )


def _build_default_registry() -> PolicyRegistry:
    reg = PolicyRegistry()
    reg.register(PolicyEntry(
        name="static",
        kind="runtime",
        summary="uniform per-socket RAPL caps, full-width threads (paper §4.1)",
        default_config={"threads": None},
        measure="discard",
        policy_class=StaticPolicy,
        build=_build_static,
        sweep=_sweep_static,
    ))
    reg.register(PolicyEntry(
        name="conductor",
        kind="runtime",
        summary="adaptive selection + power reallocation (paper §4.2)",
        default_config=asdict(ConductorConfig()),
        measure="steady",
        policy_class=ConductorPolicy,
        build=_build_conductor,
        sweep=_sweep_conductor,
    ))
    reg.register(PolicyEntry(
        name="adagio",
        kind="runtime",
        summary="uncapped slack reclamation (Rountree et al., ICS'09; §7)",
        default_config={
            "safety": 0.9,
            "switch_overhead_s": 145e-6,
            "min_switch_duration_s": 1e-3,
        },
        measure="steady",
        policy_class=ConductorPolicy,
        build=_build_adagio,
        sweep=_sweep_adagio,
    ))
    reg.register(PolicyEntry(
        name="selection-only",
        kind="runtime",
        summary="Pareto selection under immovable uniform budgets (§6 ablation)",
        default_config={
            "adagio_safety": 0.9,
            "switch_overhead_s": 145e-6,
            "min_switch_duration_s": 1e-3,
        },
        measure="steady",
        policy_class=ConductorPolicy,
        build=_build_selection_only,
        sweep=_sweep_selection_only,
    ))
    reg.register(PolicyEntry(
        name="dvfs-energy",
        kind="runtime",
        summary="slack-driven min-energy DVFS for MPI (Guermouche et al.)",
        default_config={
            "safety": 0.9,
            "switch_overhead_s": 145e-6,
            "min_switch_duration_s": 1e-3,
        },
        measure="steady",
        policy_class=DvfsEnergyPolicy,
        build=_build_dvfs_energy,
    ))
    reg.register(PolicyEntry(
        name="config-search",
        kind="runtime",
        summary="energy-optimal (freq, threads) search (Silva et al.)",
        default_config={"capped": True, "max_slowdown": 0.1},
        measure="discard",
        policy_class=ConfigSearchPolicy,
        build=_build_config_search,
    ))
    reg.register(PolicyEntry(
        name="lp",
        kind="bound",
        summary="fixed-vertex-order LP performance bound (paper §3)",
        default_config={
            "include_discrete": False,
            "power_tiebreak": 1e-9,
            "time_limit_s": None,
        },
        solve=_solve_lp,
        cap_lps=_lp_cap_lps,
    ))
    reg.register(PolicyEntry(
        name="energy-lp",
        kind="bound",
        summary="min-energy LP subject to deadline and cap (§7 comparator)",
        default_config={
            "slowdown": 0.0,
            "capped": True,
            "time_limit_s": None,
        },
        solve=_solve_energy_lp,
        cap_lps=_energy_lp_cap_lps,
    ))
    reg.register(PolicyEntry(
        name="flow-ilp",
        kind="bound",
        summary="flow ILP bound (paper §3.3; practical below ~30 task edges)",
        default_config={"time_limit_s": 60.0},
        solve=_solve_flow_ilp,
    ))
    return reg


_default: PolicyRegistry | None = None


def default_registry() -> PolicyRegistry:
    """The process-wide registry of built-in policies (built once)."""
    global _default
    if _default is None:
        _default = _build_default_registry()
    return _default
