"""The N-way scenario executor: one spec in, one result table out.

:func:`run_scenarios` evaluates every policy of a
:class:`~repro.scenarios.spec.ScenarioSpec` at every cap of its grid.
Each (spec, cap) cell is an independent, fully seeded computation:

* shared per-benchmark state (applications, power models, the traced DAG
  and its compiled :class:`~repro.core.model.ProblemInstance`) is built
  once per process and reused across the cap grid;
* with ``workers > 1`` the cells fan out over a process pool in cap
  order — bit-identical to the serial sweep, worker observability folded
  back in submission order (see :mod:`repro.exec.parallel`);
* each cell is memoized in the ambient
  :class:`~repro.exec.cache.SolverCache` under a key derived from the
  spec's :meth:`~repro.scenarios.spec.ScenarioSpec.cell_hash` and the
  ``SCENARIO_LAYER_VERSION`` — never from a hardwired field list — and a
  payload whose policy-name set does not exactly match the spec is
  recomputed, not mis-mapped;
* every policy run lands in its own trace scope
  (``"<name> <benchmark> cap=<cap>W"``), so Perfetto shows one process
  group per policy instance.

The legacy three-way ``run_comparison``/``sweep_caps`` entry points are
thin wrappers over a ``{static, conductor, lp}`` spec (see
:mod:`repro.experiments.runner`) and reproduce their historical numbers
exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..exec.checkpoint import SweepJournal
from ..core.model import ProblemInstance, build_problem_instance
from ..core.sweep import ParametricCapSolver, solving_caps_ahead
from ..exec.cache import SolverCache
from ..exec.faults import FaultInjector
from ..exec.keys import fixed_order_lp_key, scenario_cell_key
from ..exec.options import get_execution_options
from ..exec.parallel import (
    CellOutcome,
    ParallelExecutionError,
    ParallelRunner,
    pool_width,
    resolve_workers,
)
from ..machine.frontiers import FrontierStore
from ..machine.power import SocketPowerModel
from ..machine.variability import make_power_models
from ..obs.events import CellFailureEvent, CounterEvent
from ..obs.metrics import COUNT_BUCKETS, current_metrics
from ..obs.metrics import inc as metric_inc
from ..obs.profiling import profile_block
from ..obs.progress import ProgressReporter
from ..obs.recorder import TraceRecorder, current_recorder, emit
from ..simulator.engine import Engine, SimulationResult
from ..simulator.telemetry import job_power_timeline
from ..simulator.trace import Trace, trace_application
from ..workloads import WorkloadSpec
from .registry import PolicyContext, PolicyRegistry, cap_solver, default_registry
from .spec import SCENARIO_BENCHMARKS, SCENARIO_LAYER_VERSION, ScenarioSpec

__all__ = [
    "CellFailure",
    "PolicyOutcome",
    "ScenarioCell",
    "ScenarioResult",
    "cell_payload",
    "reset_cap_solvers",
    "run_scenario_cell",
    "run_scenarios",
]


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's measured (or bounded) per-iteration time at one cap.

    ``energy_j`` is the per-iteration task energy over the same
    measurement window as ``time_s`` (runtimes) or of the formulation's
    schedule (bounds); None when the policy yields no energy figure
    (infeasible bounds, unschedulable caps, schedule-free bounds)."""

    name: str  # instance label from the spec
    policy: str  # registry name
    kind: str  # "runtime" | "bound"
    time_s: float | None  # None: unschedulable cap or infeasible bound
    extra: dict = field(default_factory=dict)
    energy_j: float | None = None

    def to_payload(self) -> dict:
        """JSON-safe cache payload for this outcome."""
        return {
            "policy": self.policy,
            "kind": self.kind,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_payload(cls, name: str, doc: dict) -> "PolicyOutcome":
        """Rehydrate an outcome from :meth:`to_payload` output."""
        return cls(
            name=name,
            policy=str(doc["policy"]),
            kind=str(doc["kind"]),
            time_s=doc["time_s"],
            extra=dict(doc.get("extra") or {}),
            energy_j=doc.get("energy_j"),
        )


@dataclass(frozen=True)
class CellFailure:
    """How one sweep cell failed, as stable data.

    Everything here is deterministic for deterministic failures —
    exception type, message, and attempt count, never wall-clock — so
    failures may be journaled, stamped into manifests, and compared
    byte-for-byte across an interrupted run and its resumed twin.
    """

    error_type: str
    error_message: str
    attempts: int

    def to_doc(self) -> dict:
        return {
            "error_type": self.error_type,
            "error_message": self.error_message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CellFailure":
        return cls(
            error_type=str(doc["error_type"]),
            error_message=str(doc["error_message"]),
            attempts=int(doc["attempts"]),
        )

    @classmethod
    def from_outcome(cls, outcome: CellOutcome) -> "CellFailure":
        return cls.from_doc(outcome.failure_doc())


@dataclass
class ScenarioCell:
    """All policy outcomes of one scenario at one per-socket cap.

    A cell that could not be computed at all (its task exhausted every
    attempt under ``keep_going``) carries a :class:`CellFailure` and
    ``None`` times for every policy — exhibits render it as a gap, never
    as a number.
    """

    benchmark: str
    cap_per_socket_w: float
    n_ranks: int
    schedulable: bool
    outcomes: dict[str, PolicyOutcome]  # insertion order = spec order
    failure: CellFailure | None = None

    @property
    def job_cap_w(self) -> float:
        """Total job power: per-socket cap times rank count."""
        return self.cap_per_socket_w * self.n_ranks

    @property
    def failed(self) -> bool:
        """Whether this cell's computation failed outright."""
        return self.failure is not None

    def time_s(self, name: str) -> float | None:
        """Per-iteration time of one policy instance (by label)."""
        return self.outcomes[name].time_s


@dataclass
class ScenarioResult:
    """The N-way table: one :class:`ScenarioCell` per cap, in cap order."""

    spec: ScenarioSpec
    cells: list[ScenarioCell]

    def policy_names(self) -> list[str]:
        """Instance labels in spec (evaluation) order."""
        return self.spec.policy_labels()

    def series(self, name: str) -> list[float | None]:
        """One policy's per-iteration times across the cap grid."""
        return [cell.time_s(name) for cell in self.cells]

    def cell_at(self, cap_per_socket_w: float) -> ScenarioCell:
        """The cell for one cap of the grid."""
        for cell in self.cells:
            if cell.cap_per_socket_w == cap_per_socket_w:
                return cell
        raise KeyError(f"no cell at {cap_per_socket_w} W/socket")

    def failed_cells(self) -> list[ScenarioCell]:
        """Cells whose computation failed, in cap order."""
        return [cell for cell in self.cells if cell.failed]

    def failure_docs(self) -> list[dict]:
        """Deterministic per-failure documents (manifest ``failures``)."""
        return [
            {"cap_per_socket_w": cell.cap_per_socket_w, **cell.failure.to_doc()}
            for cell in self.cells
            if cell.failure is not None
        ]


# ----------------------------------------------------------------------
@dataclass
class _Shared:
    """Per-benchmark reusables across a cap grid."""

    app_run: object
    app_lp: object
    power_models: list[SocketPowerModel]
    engine: Engine
    trace: Trace
    frontiers: FrontierStore
    instance: ProblemInstance
    # power_tiebreak -> ParametricCapSolver: the fixed-order LP frozen
    # once per benchmark and re-solved across the whole cap grid (and
    # every cell of it) on the thread's persistent HiGHS handle.  Lazily
    # populated by the lp bound entry (registry._solve_lp).
    cap_solvers: dict = field(default_factory=dict)
    # (policy label, per-socket cap) -> the run_scenarios sweep's point for
    # it and the point's extras, which the cell takes in place of its
    # engine run (see _running_ahead); empty outside a run_scenarios call.
    swept: dict = field(default_factory=dict)


_shared_cache: dict[tuple, _Shared] = {}


def _shared_key(spec: ScenarioSpec) -> tuple:
    return (
        spec.benchmark, spec.n_ranks, spec.run_iterations, spec.lp_iterations,
        spec.seed, spec.efficiency_seed, spec.efficiency_sigma,
    )


def reset_cap_solvers(spec: ScenarioSpec) -> None:
    """Drop any warm parametric solvers for this spec's benchmark.

    The solver pool is shared across the *cells of one sweep*, not
    across top-level invocations: a fresh ``run_scenarios`` (or a
    single-cell ``run_comparison``) must behave identically whether or
    not an earlier run in this process warmed the pool (otherwise solve
    audits — cold vs re-solve — would depend on test or call order).
    """
    shared = _shared_cache.get(_shared_key(spec))
    if shared is not None:
        shared.cap_solvers.clear()


def _shared_for(spec: ScenarioSpec) -> _Shared:
    key = _shared_key(spec)
    if key not in _shared_cache:
        gen = SCENARIO_BENCHMARKS[spec.benchmark]
        app_run = gen(WorkloadSpec(n_ranks=spec.n_ranks,
                                   iterations=spec.run_iterations, seed=spec.seed))
        app_lp = gen(WorkloadSpec(n_ranks=spec.n_ranks,
                                  iterations=spec.lp_iterations, seed=spec.seed))
        pm = make_power_models(
            spec.n_ranks, spec.efficiency_seed, sigma=spec.efficiency_sigma
        )
        # One frontier store per machine: the tracer fills it, every
        # runtime policy in the scenario reads it back.
        store = FrontierStore(pm)
        trace = trace_application(app_lp, pm, frontier_store=store)
        _shared_cache[key] = _Shared(
            app_run=app_run,
            app_lp=app_lp,
            power_models=pm,
            engine=Engine(pm),
            trace=trace,
            frontiers=store,
            instance=build_problem_instance(trace),
        )
    return _shared_cache[key]


def _measured(
    result: SimulationResult, spec: ScenarioSpec, measure: str
) -> tuple[float, float]:
    """Per-iteration time and task energy over the entry's measurement
    window, as plain floats, as a cell read back from the cache or the
    journal carries (the engine's times may be NumPy scalars)."""
    if measure == "steady":
        first = spec.run_iterations - spec.steady_window
        n = spec.steady_window
    else:
        first = spec.discard_iterations
        n = spec.run_iterations - spec.discard_iterations
    start, energy = result.window(first)
    return float((result.makespan_s - start) / n), float(energy / n)


def _scope(rec: TraceRecorder | None, label: str):
    """The recorder's run scope, or a no-op when tracing is disabled."""
    return rec.run_scope(label) if rec is not None else nullcontext()


def _emit_power_counters(
    rec: TraceRecorder,
    result: SimulationResult,
    power_models: list[SocketPowerModel],
    job_cap_w: float,
) -> None:
    """Counter samples for the job power timeline and the cap it ran under.

    Every breakpoint of the piecewise-constant timeline becomes a sample,
    so the Perfetto counter track reproduces the timeline exactly; the cap
    is sampled at both ends to draw as a flat line over the same span.
    """
    timeline = job_power_timeline(result, power_models)
    for t, p in zip(timeline.times[:-1], timeline.power):
        rec.emit(
            CounterEvent(
                name="job_power_w", ts_s=float(t), values={"watts": float(p)}
            )
        )
    end_s = float(timeline.times[-1])
    final_w = float(timeline.power[-1]) if len(timeline.power) else 0.0
    rec.emit(CounterEvent(name="job_power_w", ts_s=end_s, values={"watts": final_w}))
    for t in (0.0, end_s):
        rec.emit(CounterEvent(name="cap_w", ts_s=t, values={"watts": job_cap_w}))


# ----------------------------------------------------------------------
def cell_payload(spec: ScenarioSpec, cell: ScenarioCell) -> dict:
    """The cache/journal payload of one cell: schema-guarded, spec-derived.

    Public so that callers outside :func:`run_scenarios` (the benchmark
    harness) can serialize a cell exactly as the cache and journal do.
    """
    return {
        "scenario_layer": SCENARIO_LAYER_VERSION,
        "cell_hash": spec.cell_hash(),
        "schedulable": cell.schedulable,
        "outcomes": {
            name: outcome.to_payload() for name, outcome in cell.outcomes.items()
        },
    }


def _cell_from_payload(
    spec: ScenarioSpec, cap_per_socket_w: float, payload: dict
) -> ScenarioCell | None:
    """Rehydrate a cached cell; None when the payload is stale or foreign.

    The guard is structural, not positional: the payload must carry the
    current ``SCENARIO_LAYER_VERSION``, the spec's own cell hash, and an
    outcome per policy instance name of the spec — a payload written by a
    different spec (or by the pre-scenario three-way field list) misses
    instead of silently mis-mapping fields.
    """
    if not isinstance(payload, dict):
        return None
    if payload.get("scenario_layer") != SCENARIO_LAYER_VERSION:
        return None
    if payload.get("cell_hash") != spec.cell_hash():
        return None
    outcomes_doc = payload.get("outcomes")
    if not isinstance(outcomes_doc, dict):
        return None
    labels = spec.policy_labels()
    if sorted(outcomes_doc) != sorted(labels):
        return None
    try:
        outcomes = {
            name: PolicyOutcome.from_payload(name, outcomes_doc[name])
            for name in labels
        }
    except (KeyError, TypeError, ValueError):
        return None
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=bool(payload.get("schedulable", True)),
        outcomes=outcomes,
    )


def run_scenario_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    cache: SolverCache | None = None,
    registry: PolicyRegistry | None = None,
) -> ScenarioCell:
    """Evaluate every policy of ``spec`` at one per-socket cap.

    ``cache`` memoizes the whole cell (all simulator replays and solver
    calls) by content address; None falls back to the ambient
    :class:`~repro.exec.options.ExecutionOptions` (default: no caching).
    A warm cell skips tracing, every engine run, and every solve.
    """
    registry = registry if registry is not None else default_registry()
    if cache is None:
        cache = get_execution_options().make_cache()
    key = None
    if cache is not None:
        key = scenario_cell_key(
            spec.cell_hash(), cap_per_socket_w, SCENARIO_LAYER_VERSION
        )
        payload = cache.get(key)
        if payload is not None:
            cell = _cell_from_payload(spec, cap_per_socket_w, payload)
            if cell is not None:
                metric_inc("cells.cached")
                return cell
            # Stale or foreign payload under our key: recompute (and
            # overwrite) rather than mis-map fields.
    metrics = current_metrics()
    t0 = time.perf_counter() if metrics is not None else 0.0
    c0 = time.process_time() if metrics is not None else 0.0
    with profile_block():
        cell = _run_scenario_cell(spec, cap_per_socket_w, cache, registry)
    if metrics is not None:
        metrics.inc("cells.computed")
        for outcome in cell.outcomes.values():
            if outcome.energy_j is not None:
                # Rounded to whole joules so the histogram stays in the
                # deterministic (integer-exact, merge-stable) family.
                metrics.observe(
                    "cell.energy_j",
                    int(round(outcome.energy_j)),
                    buckets=COUNT_BUCKETS,
                )
        metrics.observe(
            "cell.wall_s", time.perf_counter() - t0, operational=True
        )
        metrics.observe(
            "cell.cpu_s", time.process_time() - c0, operational=True
        )
    if cache is not None:
        cache.put(key, cell_payload(spec, cell))
    return cell


def _schedulable(shared: _Shared, caps: list[float]) -> list[float]:
    """The per-socket ``caps`` at or above the application's minimum
    schedulable cap (a cell below it runs and solves nothing)."""
    min_cap = shared.app_run.metadata.get("min_cap_per_socket_w")
    return [cap for cap in caps if min_cap is None or cap >= min_cap]


def _policy_context(
    spec: ScenarioSpec, shared: _Shared, job_cap_w: float, cache: SolverCache | None
) -> PolicyContext:
    return PolicyContext(
        power_models=shared.power_models,
        job_cap_w=job_cap_w,
        app=shared.app_run,
        frontier_store=shared.frontiers,
        trace=shared.trace,
        instance=shared.instance,
        cache=cache,
        lp_iterations=spec.lp_iterations,
        cap_solvers=shared.cap_solvers,
    )


def _run_scenario_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    cache: SolverCache | None,
    registry: PolicyRegistry,
) -> ScenarioCell:
    shared = _shared_for(spec)
    job_cap = cap_per_socket_w * spec.n_ranks
    rec = current_recorder()
    tag = f"{spec.benchmark} cap={cap_per_socket_w:g}W"

    if not _schedulable(shared, [cap_per_socket_w]):
        outcomes = {
            p.label: PolicyOutcome(
                name=p.label, policy=p.policy,
                kind=registry.get(p.policy).kind, time_s=None,
            )
            for p in spec.policies
        }
        return ScenarioCell(
            benchmark=spec.benchmark,
            cap_per_socket_w=cap_per_socket_w,
            n_ranks=spec.n_ranks,
            schedulable=False,
            outcomes=outcomes,
        )

    ctx = _policy_context(spec, shared, job_cap, cache)
    outcomes: dict[str, PolicyOutcome] = {}
    for pspec in spec.policies:
        entry = registry.get(pspec.policy)
        cfg = entry.resolve_config(pspec.config)
        label = pspec.label
        scope = partial(_scope, rec, f"{label} {tag}")
        if entry.kind == "runtime":
            point = shared.swept.get((label, cap_per_socket_w))
            if point is not None:
                take, extra = point
                result = take()
            else:
                policy = entry.build(ctx, cfg)
                with scope():
                    result = shared.engine.run(shared.app_run, policy)
                    if rec is not None:
                        _emit_power_counters(
                            rec, result, shared.power_models, job_cap
                        )
                extra = {}
                # None from a runtime that never reallocates.
                reallocs = getattr(policy, "realloc_count", None)
                if reallocs is not None:
                    extra["reallocs"] = reallocs
            time_s, energy_j = _measured(result, spec, entry.measure)
            outcomes[label] = PolicyOutcome(
                name=label, policy=pspec.policy, kind="runtime",
                time_s=time_s, extra=dict(extra), energy_j=energy_j,
            )
        else:
            bound = entry.solve(ctx, cfg, scope)
            outcomes[label] = PolicyOutcome(
                name=label, policy=pspec.policy, kind="bound",
                time_s=bound.time_s, extra=dict(bound.extra),
                energy_j=bound.energy_j,
            )
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=True,
        outcomes=outcomes,
    )


# ----------------------------------------------------------------------
def _scenario_cell_task(cell: tuple[str, float, str | None]) -> ScenarioCell:
    """One (spec, cap) cell — module-level so workers can unpickle it."""
    spec_json, cap, cache_root = cell
    spec = ScenarioSpec.from_json(spec_json)
    cache = SolverCache(cache_root) if cache_root is not None else None
    return run_scenario_cell(spec, cap, cache=cache)


def _cell_fault_key(item) -> str:
    """The stable fault-selection identity of one sweep item.

    Works for both task shapes — the pool's ``(spec_json, cap, root)``
    tuples and the serial path's bare caps — and deliberately excludes
    run-scoped paths (cache/temp directories), so two runs of the same
    scenario fault exactly the same cells regardless of where their
    caches live.  Module-level so it pickles to workers.
    """
    cap = item[1] if isinstance(item, tuple) else item
    return f"cap={float(cap):g}"


def _failed_cell(
    spec: ScenarioSpec,
    cap_per_socket_w: float,
    registry: PolicyRegistry,
    failure: CellFailure,
) -> ScenarioCell:
    """The gap cell standing in for a computation that failed outright."""
    outcomes = {
        p.label: PolicyOutcome(
            name=p.label, policy=p.policy,
            kind=registry.get(p.policy).kind, time_s=None,
        )
        for p in spec.policies
    }
    return ScenarioCell(
        benchmark=spec.benchmark,
        cap_per_socket_w=cap_per_socket_w,
        n_ranks=spec.n_ranks,
        schedulable=True,
        outcomes=outcomes,
        failure=failure,
    )


def _lps_ahead(
    spec: ScenarioSpec,
    caps: list[float],
    registry: PolicyRegistry,
    cache: SolverCache | None,
) -> list[tuple[ParametricCapSolver, float, float | None]]:
    """The fixed-order LP solves the cells at ``caps`` will make, in the
    order they make them, for :func:`~repro.core.sweep.solving_caps_ahead`.

    Builds the spec's shared state and each solver the bound entries ask
    for (see :attr:`~repro.scenarios.registry.PolicyEntry.cap_lps`) before
    the first cell.  A cap below the application's minimum schedulable
    cap solves nothing, and a solve ``cache`` already holds is served
    from it, so both are left out.  Nothing is solved ahead when
    building fails: the first cell then meets the same error, where
    retries and ``keep_going`` handle it as they always have.
    """
    try:
        lps: dict[tuple[float, float | None], None] = {}
        for pspec in spec.policies:
            entry = registry.get(pspec.policy)
            if entry.cap_lps is not None:
                cfg = entry.resolve_config(pspec.config)
                lps.update(dict.fromkeys(entry.cap_lps(cfg)))
        if not lps or not caps:
            return []
        shared = _shared_for(spec)
        caps = _schedulable(shared, caps)
        if not caps:
            return []
        solvers = {
            tiebreak: cap_solver(
                shared.cap_solvers, shared.trace, shared.instance, tiebreak
            )
            for tiebreak, _ in lps
        }
    except Exception:
        return []
    requests = [
        (solvers[tiebreak], cap * spec.n_ranks, time_limit_s)
        for cap in caps
        for tiebreak, time_limit_s in lps
    ]
    if cache is None:
        return requests
    return [
        (solver, job_cap, time_limit_s)
        for solver, job_cap, time_limit_s in requests
        if fixed_order_lp_key(
            solver.instance.trace,
            job_cap,
            power_tiebreak=solver.power_tiebreak,
            time_limit_s=time_limit_s,
        ) not in cache
    ]


@contextmanager
def _running_ahead(
    spec: ScenarioSpec, caps: list[float], registry: PolicyRegistry
):
    """Run the swept runtimes of the cells at ``caps`` before the first
    cell, each entry's caps in one DAG walk.

    Every runtime entry of the spec that the registry can sweep (see
    :attr:`~repro.scenarios.registry.PolicyEntry.sweep`: Static, and the
    Conductor planner's conductor, selection-only and adagio) runs once
    over the caps at or above the application's minimum schedulable cap,
    and each cell takes its point, and the point's extras (Conductor's
    ``reallocs``), where it ran its engine and read its policy before.
    Nothing runs ahead under an active trace recorder (per-event
    emission needs the scalar loop), and nothing is kept when building
    or sweeping fails: each cell then meets the error itself, as with
    :func:`_lps_ahead`.  The points are dropped on exit.
    """
    points: dict = {}
    shared = None
    try:
        sweeps = []
        for pspec in spec.policies:
            entry = registry.get(pspec.policy)
            if entry.sweep is not None:
                cfg = entry.resolve_config(pspec.config)
                sweeps.append((pspec.label, entry.sweep, cfg))
        if sweeps and caps and current_recorder() is None:
            shared = _shared_for(spec)
            caps = _schedulable(shared, caps)
        if shared is not None and caps:
            job_caps = [cap * spec.n_ranks for cap in caps]
            ctx = _policy_context(spec, shared, job_caps[0], cache=None)
            for label, sweep, cfg in sweeps:
                outcome, extras = sweep(ctx, cfg, shared.engine, job_caps)
                for c, cap in enumerate(caps):
                    points[(label, cap)] = (partial(outcome.result, c), extras[c])
    except Exception:
        points = {}
    if shared is not None:
        shared.swept.update(points)
    try:
        yield
    finally:
        if shared is not None:
            shared.swept.clear()


def run_scenarios(
    spec: ScenarioSpec,
    workers: int | None = None,
    cache: SolverCache | None = None,
    registry: PolicyRegistry | None = None,
    *,
    keep_going: bool = False,
    journal: SweepJournal | str | Path | None = None,
    faults: FaultInjector | None = None,
    progress: ProgressReporter | None = None,
) -> ScenarioResult:
    """Run the full scenario: every policy at every cap of the grid.

    Every cap is an independent, fully seeded cell; with ``workers > 1``
    the cells fan out over a process pool with results in cap order —
    bit-identical to the serial sweep.  The pool is sized by the cells
    that need computing, the pending cells that neither the journal nor
    the cache serves (:func:`~repro.exec.parallel.pool_width`): with
    none, a warm sweep settles in this process, reading its cached cells
    as a worker would.  ``workers``/``cache`` default to the ambient
    :class:`~repro.exec.options.ExecutionOptions` (serial, uncached).
    A non-default ``registry`` runs serially: worker processes rebuild
    policies from the default registry only.

    Cells run in this process solve their fixed-order LP bounds ahead:
    when another CPU is free, one helper thread solves the LP of each
    cell the cache and the journal do not serve, in cap order, while the
    cells before it run their runtimes; each cell takes its solve where
    it solved before, so the results, audit records and trace events are
    those of a sweep without it (see
    :func:`~repro.core.sweep.solving_caps_ahead`).  The helper is joined
    before this returns or raises.  The same cells' sweepable runtimes
    (Static, and the Conductor planner's conductor, selection-only and
    adagio, planned one Pcontrol interval at a time) run ahead too, each
    over every cap in one DAG walk on this thread, and each cell takes
    its cap's run and extras (see :func:`_running_ahead`).

    Every cell settles through one
    :meth:`~repro.exec.parallel.ParallelRunner.map_outcomes`, at every
    width: a cell is retried per the ambient ``task_retries``, and one
    that fails every attempt is a ``cell_failure`` trace event and a
    ``cell.failed`` count.  A spec naming an unknown policy or config key
    raises its ``KeyError``/``ValueError`` before any cell runs.

    Resilience (see ``docs/execution.md``):

    * ``keep_going`` — a cell that exhausts its attempts becomes a
      failed :class:`ScenarioCell` (a rendered gap, a journal record, a
      manifest entry).  Without it, the sweep settles every cell and
      then raises :class:`~repro.exec.parallel.ParallelExecutionError`
      (``cell cap=<cap> <Type> on all <n> attempt(s): <message>``) for
      the first failed cap, chained from the cell's exception;
    * ``journal`` — a :class:`~repro.exec.checkpoint.SweepJournal`
      (or its path) checkpointing every settled cell as it completes;
      on entry, journaled-ok cells are rehydrated without recomputation,
      so an interrupted sweep resumes where it stopped and produces
      byte-identical output.  Failed cells are retried on resume;
    * ``faults`` — a :class:`~repro.exec.faults.FaultInjector` wrapped
      around the cell task (chaos testing; cells are selected by their
      stable ``cap=<cap>`` identity, never by run-scoped paths).

    ``progress`` — an optional
    :class:`~repro.obs.progress.ProgressReporter` receiving one
    ``update(ok)`` per settled cell, in cap order (journal-resumed cells
    settle immediately).  The heartbeat stream is out-of-band: it never
    alters results, journals, or any byte-deterministic artifact.
    """
    opts = get_execution_options()
    if workers is None:
        workers = opts.workers
    workers = resolve_workers(workers)  # 0 -> all cores, negative -> error
    if cache is None:
        cache = opts.make_cache()
    if isinstance(journal, (str, Path)):
        journal = SweepJournal(journal)
    reg = registry if registry is not None else default_registry()
    # A spec naming an unknown policy or config key fails here, raw and
    # unretried, before any cell runs.
    for pspec in spec.policies:
        reg.get(pspec.policy).resolve_config(pspec.config)
    reset_cap_solvers(spec)
    caps = [float(cap) for cap in spec.caps_per_socket_w]
    keys = {
        cap: scenario_cell_key(spec.cell_hash(), cap, SCENARIO_LAYER_VERSION)
        for cap in caps
    }

    cells: dict[float, ScenarioCell] = {}
    if journal is not None:
        records = journal.load()
        for cap in caps:
            doc = records.get(keys[cap])
            if doc is not None and doc.get("status") == "ok":
                cell = _cell_from_payload(spec, cap, doc.get("payload"))
                if cell is not None:
                    # Same structural guard as the cache path: a stale
                    # or foreign payload is recomputed, not mis-mapped.
                    cells[cap] = cell
                    # Resumption depends on what a prior (possibly
                    # interrupted) run got through: operational.
                    metric_inc("journal.resumed", operational=True)
                    if progress is not None:
                        progress.update(ok=True, resumed=True)
    pending = [cap for cap in caps if cap not in cells]
    # Within-run dedup: a grid listing the same cap twice computes that
    # cell once; `cells` is keyed by cap, so result assembly fans the
    # single outcome out to every occurrence.  The multiplicity map
    # keeps progress honest — `done` must still reach len(caps).
    multiplicity = {cap: pending.count(cap) for cap in dict.fromkeys(pending)}
    deduped = len(pending) - len(multiplicity)
    if deduped:
        # Derived from the spec's cap grid alone, so deterministic.
        metric_inc("cells.deduped", deduped)
    pending = list(multiplicity)

    # The cells that need computing size the pool.  With none, every
    # cell is read in this process exactly as a worker would read it.
    unserved = [
        cap for cap in pending if cache is None or keys[cap] not in cache
    ]
    width = pool_width(workers, len(pending), len(unserved))
    use_pool = width > 1 and registry is None
    if use_pool:
        cache_root = str(cache.root) if cache is not None else None
        spec_json = spec.to_json()
        items: list = [(spec_json, cap, cache_root) for cap in pending]
        fn = _scenario_cell_task
        ahead = runs = nullcontext()  # pool workers run their own cells
    else:
        items = list(pending)
        fn = partial(run_scenario_cell, spec, cache=cache, registry=registry)
        ahead = solving_caps_ahead(
            partial(_lps_ahead, spec, unserved, reg, cache)
        )
        runs = _running_ahead(spec, unserved, reg)
    if faults is not None:
        # Re-anchor the injector on the stable cell identity and the
        # actual cache root, whatever shape the items take.
        faults = FaultInjector(
            faults.spec,
            key_fn=faults.key_fn if faults.key_fn is not None else _cell_fault_key,
            cache_root=(
                faults.cache_root if faults.cache_root is not None
                else (str(cache.root) if cache is not None else None)
            ),
        )
        fn = faults.wrap(fn)

    def on_outcome(outcome: CellOutcome) -> None:
        # Fires in submission (cap) order as each cell settles, so an
        # interrupted sweep has journaled its whole settled prefix.
        # Worker cache hit/miss accounting arrives via the sink snapshots
        # ParallelRunner merges.
        cap = pending[outcome.index]
        if progress is not None:
            for _ in range(multiplicity[cap]):
                progress.update(ok=outcome.ok)
        if outcome.ok:
            if journal is not None:
                # wall_s is a diagnostic extra (slowest-cell tables in
                # `repro-exp report`); journal *payloads* stay
                # byte-deterministic and resume ignores it.
                journal.record_ok(
                    keys[cap], cap, cell_payload(spec, outcome.value),
                    spec_hash=spec.spec_hash(),
                    wall_s=round(outcome.elapsed_s, 6),
                )
            return
        metric_inc("cell.failed")
        emit(CellFailureEvent(
            benchmark=spec.benchmark,
            cap_per_socket_w=cap,
            error_type=outcome.error_type,
            error_message=outcome.error_message,
            attempts=outcome.attempts,
        ))
        if journal is not None:
            journal.record_failed(
                keys[cap], cap, outcome.failure_doc(),
                spec_hash=spec.spec_hash(),
            )

    runner = ParallelRunner(
        max_workers=width if use_pool else 1,
        timeout_s=opts.task_timeout_s,
        retries=opts.task_retries,
        backoff_s=opts.task_backoff_s,
        backoff_seed=spec.seed,
    )
    with ahead, runs:
        outcomes = runner.map_outcomes(fn, items, on_outcome=on_outcome)
    first_failed: CellOutcome | None = None
    for cap, outcome in zip(pending, outcomes):
        if outcome.ok:
            cells[cap] = outcome.value
        else:
            cells[cap] = _failed_cell(
                spec, cap, reg, CellFailure.from_outcome(outcome)
            )
            if first_failed is None:
                first_failed = outcome
    if first_failed is not None and not keep_going:
        raise ParallelExecutionError(
            f"cell cap={pending[first_failed.index]:g} "
            f"{first_failed.error_type} on all {first_failed.attempts} "
            f"attempt(s): {first_failed.error_message}"
        ) from first_failed.error

    metrics = current_metrics()
    if metrics is not None:
        metrics.set_gauge("sweep.cells_total", len(caps))
    return ScenarioResult(spec=spec, cells=[cells[cap] for cap in caps])
