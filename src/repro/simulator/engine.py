"""Discrete-event execution engine for multi-rank MPI programs.

The engine advances one logical clock per rank through its op list,
matching messages (FIFO per (src, dst, tag) channel, eager protocol) and
synchronizing collectives (a collective completes at the latest entrant's
clock plus the network model's collective cost).  Computation durations and
powers come from the machine models, with the configuration of every task
chosen by a pluggable :class:`ConfigPolicy` — this is where Static,
Conductor, and LP-schedule replay differ.

Timing fidelity knobs mirror the paper's §6.2 overhead measurements:
per-MPI-call profiling overhead (34 µs when tracing), per-task DVFS switch
overhead (145 µs, charged when a policy changes a rank's configuration),
and the policy's own synchronous work at MPI_Pcontrol boundaries (566 µs
per Conductor reallocation), charged to every rank at the barrier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Protocol

import numpy as np

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.device import NodeSpec
from ..machine.performance import (
    KernelArrays,
    TaskKernel,
    TaskTimeModel,
    rank_kernel_arrays,
)
from ..machine.power import SocketPowerModel
from ..obs.events import CollectiveEvent, MpiWaitEvent, TaskEvent
from ..obs.metrics import inc as metric_inc
from ..obs.metrics import timed
from ..obs.recorder import current_recorder
from .network import IB_QDR, NetworkModel
from .program import (
    Application,
    CollectiveOp,
    ComputeOp,
    IrecvOp,
    IsendOp,
    PcontrolOp,
    RecvOp,
    SendOp,
    TaskRef,
    WaitOp,
)

__all__ = [
    "ConfigPolicy",
    "TaskRecord",
    "SimulationResult",
    "Engine",
    "MaxPerformancePolicy",
    "RankPlan",
    "RunPlan",
    "SweepRankPlan",
    "SweepRunPlan",
    "batch_task_durations",
    "batch_task_powers",
    "sweep_rank_plan",
]


@dataclass(frozen=True)
class TaskRecord:
    """Everything the runtimes and figures need to know about one task run."""

    ref: TaskRef
    iteration: int
    label: str
    config: Configuration
    start_s: float
    duration_s: float
    power_w: float
    kernel: TaskKernel

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def energy_j(self) -> float:
        return self.duration_s * self.power_w


class ConfigPolicy(Protocol):
    """Chooses a configuration for every task; may react at Pcontrol."""

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Configuration for the upcoming task.

        ``current`` is the rank's present configuration (None before the
        first task); returning a different one incurs the engine's DVFS
        switch overhead, so policies implement the paper's 1 ms-threshold
        rule by returning ``current`` for short tasks.
        """
        ...

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        """Hook at each Pcontrol barrier; returns overhead seconds (>= 0)."""
        ...

    def switch_cost_s(self) -> float:
        """Per-configuration-change overhead this policy pays (0 for RAPL)."""
        ...


@dataclass(frozen=True)
class RankPlan:
    """One rank's precomputed task decisions, in task-sequence order.

    ``configs[i]``/``durations[i]``/``powers[i]`` are exactly what
    ``policy.configure`` + the machine models would give for the rank's
    i-th compute task; :meth:`Engine.run` consumes them in place of those
    calls.
    """

    configs: list
    durations: list
    powers: list


@dataclass(frozen=True)
class RunPlan:
    """A whole-run decision table: one :class:`RankPlan` per rank."""

    ranks: list


@dataclass(frozen=True)
class SweepRankPlan:
    """One rank's decisions for every sweep point, in task-sequence order.

    Column ``c`` of each array is exactly the :class:`RankPlan` the c-th
    sweep point would produce: ``configs[i][c]`` / ``durations[i, c]`` /
    ``powers[i, c]`` are the i-th compute task's outcome at that point,
    and ``switch_add[i, c]`` is the DVFS switch cost the event loop would
    charge before the task (0.0 when the configuration carries over —
    adding 0.0 leaves the clock bits untouched, so one fused add per task
    replays :meth:`Engine.run`'s conditional add exactly).
    """

    configs: list  # [n_tasks][n_points] Configuration
    durations: np.ndarray  # [n_tasks, n_points]
    powers: np.ndarray  # [n_tasks, n_points]
    switch_add: np.ndarray  # [n_tasks, n_points]
    n_switches: np.ndarray  # [n_points] int


@dataclass(frozen=True)
class SweepRunPlan:
    """A whole sweep's decision table: one :class:`SweepRankPlan` per rank.

    Consumed by :meth:`Engine.run_sweep`, which replays the application's
    event DAG *once* with vector clocks over the sweep axis instead of
    once per sweep point.
    """

    ranks: list
    n_points: int

    def column(self, c: int) -> RunPlan:
        """The c-th sweep point as the :class:`RunPlan` a scalar
        :meth:`Engine.run` replays (same configurations, same floats)."""
        return RunPlan(ranks=[
            RankPlan(
                configs=[row[c] for row in rp.configs],
                durations=rp.durations[:, c].tolist(),
                powers=rp.powers[:, c].tolist(),
            )
            for rp in self.ranks
        ])


def batch_task_durations(
    time_model: TaskTimeModel,
    ka: KernelArrays,
    freq_ghz: np.ndarray,
    threads: np.ndarray,
    duty: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`TaskTimeModel.duration` over one rank's tasks.

    Replicates the scalar model's expression order term for term, so the
    results are bit-identical to per-task calls (asserted by tests).
    Skips the scalar path's argument validation: plan inputs come from
    frontier configurations, which are valid by construction.
    """
    g = (1.0 - ka.pf) + ka.pf / threads
    cpu = ka.cpu * g * (time_model.spec.fmax_ghz / freq_ghz)
    base = (1.0 - ka.pm) + ka.pm / np.minimum(threads, ka.sat)
    over = np.maximum(0, threads - ka.ct)
    mem = ka.mem * (base * (1.0 + ka.cp * over))
    return (cpu + mem) / duty


def batch_task_powers(
    power_model: SocketPowerModel,
    ka: KernelArrays,
    freq_ghz: np.ndarray,
    threads: np.ndarray,
    duty: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`SocketPowerModel.power` over one rank's tasks
    (bit-identical to per-task calls; see :func:`batch_task_durations`)."""
    p = power_model.params
    rel = freq_ghz / power_model.spec.fmax_ghz
    dyn = ka.activity * p.p_core_dyn_max * rel**p.freq_exponent
    uncore = p.p_uncore_idle + p.p_uncore_mem * ka.mem_int * duty
    per_core = p.p_core_leak + dyn * duty
    return power_model.efficiency * (uncore + threads * per_core)


def _config_arrays(
    configs: list,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(freq, threads, duty) arrays for a list of configurations."""
    return (
        np.array([c.freq_ghz for c in configs]),
        np.array([c.threads for c in configs], dtype=np.int64),
        np.array([c.duty for c in configs]),
    )


def plan_from_configs(app: Application, engine: "Engine", per_rank_configs: list) -> RunPlan:
    """Assemble a :class:`RunPlan` from per-rank configuration lists,
    batch-evaluating durations and powers with the engine's machine
    models (the shared tail of every planning policy)."""
    arrays = rank_kernel_arrays(app)
    plans = []
    for rank, configs in enumerate(per_rank_configs):
        ka = arrays[rank]
        if configs and engine.nodes is not None and any(c.device for c in configs):
            # Device-qualified configurations: the batch evaluators only
            # know CPU math, so evaluate per task through the node's
            # devices (untagged entries keep the legacy socket models).
            node = engine.nodes[rank]
            durations = []
            powers = []
            for cfg, kernel in zip(configs, ka.kernels):
                if cfg.device:
                    dev = node.device(cfg.device)
                    durations.append(dev.duration(kernel, cfg))
                    powers.append(dev.power(kernel, cfg))
                else:
                    durations.append(
                        engine.time_models[rank].duration(
                            kernel, cfg.freq_ghz, cfg.threads, cfg.duty
                        )
                    )
                    powers.append(
                        engine.power_models[rank].power(
                            cfg.freq_ghz,
                            cfg.threads,
                            activity=kernel.activity,
                            mem_intensity=kernel.mem_intensity,
                            duty=cfg.duty,
                        )
                    )
        elif configs:
            f, n, d = _config_arrays(configs)
            durations = batch_task_durations(
                engine.time_models[rank], ka, f, n, d
            ).tolist()
            powers = batch_task_powers(
                engine.power_models[rank], ka, f, n, d
            ).tolist()
        else:
            durations = []
            powers = []
        plans.append(
            RankPlan(configs=configs, durations=durations, powers=powers)
        )
    return RunPlan(ranks=plans)


def sweep_rank_plan(
    engine: "Engine",
    rank: int,
    ka_cols: KernelArrays,
    configs: list,
    freq_ghz: np.ndarray,
    threads: np.ndarray,
    duty: np.ndarray,
    switches: np.ndarray,
    switch_cost_s: float,
) -> SweepRankPlan:
    """One rank's :class:`SweepRankPlan` from its chosen configurations.

    ``configs`` is the ``[n_tasks][n_points]`` table and ``freq_ghz``,
    ``threads`` and ``duty`` are the same table as arrays;
    ``switches[i, c]`` is True where the i-th task changes the rank's
    configuration at point c.  Durations and powers are batch evaluated
    with the engine's machine models for every point at once (the shared
    tail of every sweep-planning policy; ``ka_cols`` comes from
    :meth:`KernelArrays.columns`).
    """
    return SweepRankPlan(
        configs=configs,
        durations=batch_task_durations(
            engine.time_models[rank], ka_cols, freq_ghz, threads, duty
        ),
        powers=batch_task_powers(
            engine.power_models[rank], ka_cols, freq_ghz, threads, duty
        ),
        switch_add=np.where(switches, switch_cost_s, 0.0),
        n_switches=np.count_nonzero(switches, axis=0),
    )


class MaxPerformancePolicy:
    """Power-oblivious baseline: fastest configuration for every task."""

    def __init__(self, spec: CpuSpec = XEON_E5_2670) -> None:
        self._tm = TaskTimeModel(spec)
        self._spec = spec

    def configure(self, ref, kernel, iteration, current):
        return Configuration(self._spec.fmax_ghz, self._tm.best_threads(kernel))

    def plan_run(self, app: Application, engine: "Engine") -> RunPlan:
        """Whole-run plan: best threads per distinct kernel, memoized."""
        best: dict[TaskKernel, Configuration] = {}
        per_rank = []
        for ka in rank_kernel_arrays(app):
            configs = []
            for kernel in ka.kernels:
                cfg = best.get(kernel)
                if cfg is None:
                    cfg = Configuration(
                        self._spec.fmax_ghz, self._tm.best_threads(kernel)
                    )
                    best[kernel] = cfg
                configs.append(cfg)
            per_rank.append(configs)
        return plan_from_configs(app, engine, per_rank)

    def on_pcontrol(self, iteration, records):
        return 0.0

    def switch_cost_s(self) -> float:
        return 0.0


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    app_name: str
    makespan_s: float
    records: list[TaskRecord]
    n_ranks: int
    mpi_call_count: int
    collective_count: int
    pcontrol_overhead_s: float = 0.0
    dvfs_switch_count: int = 0

    def records_by_rank(self) -> list[list[TaskRecord]]:
        """Task records grouped by rank, in execution order."""
        by_rank: list[list[TaskRecord]] = [[] for _ in range(self.n_ranks)]
        for r in self.records:
            by_rank[r.ref.rank].append(r)
        return by_rank

    def records_for_iteration(self, iteration: int) -> list[TaskRecord]:
        return [r for r in self.records if r.iteration == iteration]

    def iterations(self) -> list[int]:
        return sorted({r.iteration for r in self.records})

    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.records)

    def makespan_after_warmup(self, discard_iterations: int) -> float:
        """Span of tasks after discarding warmup iterations (paper §5.3).

        The paper drops the first three iterations (Conductor's exploration
        phase); comparisons measure the steady-state region only.
        """
        kept = [r for r in self.records if r.iteration >= discard_iterations]
        if not kept:
            raise ValueError(
                f"no records beyond iteration {discard_iterations - 1}"
            )
        start = min(r.start_s for r in kept)
        return self.makespan_s - start

    def window(self, first_iteration: int) -> tuple[float, float]:
        """(earliest start, summed task energy) of the records from
        ``first_iteration`` on, the energy summed in record order: the
        two figures a measurement window reads from a run."""
        kept = [r for r in self.records if r.iteration >= first_iteration]
        return min(r.start_s for r in kept), sum(r.energy_j for r in kept)


class _SweepPointResult(SimulationResult):
    """A :class:`SimulationResult` whose record list materializes lazily.

    A sweep holds every record field as one array column; building
    ``n_tasks`` :class:`TaskRecord` objects per point dominates the
    vectorized sweep's cost when most consumers only read the makespan
    and the (array-computed) timelines.  The ``records`` property builds
    the list on first access — bit-identical to the eager list, in
    :meth:`Engine.run`'s emission order.
    """

    def __init__(self, loader, **kwargs) -> None:
        self._loader = loader
        super().__init__(records=None, **kwargs)

    @property
    def records(self) -> list[TaskRecord]:
        if self._records is None:
            self._records = self._loader()
        return self._records

    @records.setter
    def records(self, value) -> None:
        self._records = value


@dataclass
class SweepRunOutcome:
    """Everything :meth:`Engine.run_sweep` learned, column per sweep point.

    ``makespans[c]`` and ``starts[rank][seq, c]`` hold the c-th point's
    scalar outcomes; MPI call/wait/collective counts are shared (the walk
    order is identical at every point).  :meth:`results` views the sweep
    as per-point :class:`SimulationResult` objects with lazily
    materialized records.  A point counts toward the ``sim.*`` metrics
    each time :meth:`result` hands it out, as one :meth:`Engine.run`
    would, so a sweep whose points are taken one by one counts exactly
    what the runs it replaces would have counted.
    """

    app_name: str
    n_ranks: int
    n_points: int
    makespans: np.ndarray
    starts: list  # per rank: [n_tasks, n_points]
    plan: SweepRunPlan
    emissions: list  # (rank, seq, op) in scheduler emission order
    mpi_call_count: int
    mpi_wait_count: int
    collective_count: int
    pcontrol_overhead_s: float

    def _materialize_records(self, c: int) -> list[TaskRecord]:
        plan = self.plan
        starts = self.starts
        return [
            TaskRecord(
                ref=TaskRef(rank, seq),
                iteration=op.iteration,
                label=op.label,
                config=plan.ranks[rank].configs[seq][c],
                start_s=float(starts[rank][seq, c]),
                duration_s=float(plan.ranks[rank].durations[seq, c]),
                power_w=float(plan.ranks[rank].powers[seq, c]),
                kernel=op.kernel,
            )
            for rank, seq, op in self.emissions
        ]

    def result(self, c: int) -> SimulationResult:
        """The c-th sweep point as a :class:`SimulationResult`."""
        if not (0 <= c < self.n_points):
            raise IndexError(f"sweep point {c} out of range [0, {self.n_points})")
        metric_inc("sim.tasks", len(self.emissions))
        metric_inc("sim.mpi_waits", self.mpi_wait_count)
        metric_inc("sim.collectives", self.collective_count)
        return _SweepPointResult(
            loader=lambda: self._materialize_records(c),
            app_name=self.app_name,
            makespan_s=float(self.makespans[c]),
            n_ranks=self.n_ranks,
            mpi_call_count=self.mpi_call_count,
            collective_count=self.collective_count,
            pcontrol_overhead_s=self.pcontrol_overhead_s,
            dvfs_switch_count=int(
                sum(rp.n_switches[c] for rp in self.plan.ranks)
            ),
        )

    def results(self) -> list[SimulationResult]:
        """All sweep points (records stay lazy until accessed)."""
        return [self.result(c) for c in range(self.n_points)]


def _check_sweep_plan(app: Application, plan: SweepRunPlan) -> None:
    """Reject a sweep plan the vector clocks would silently broadcast."""
    if plan.n_points < 1:
        raise ValueError(f"a sweep plan needs n_points >= 1, got {plan.n_points}")
    if len(plan.ranks) != app.n_ranks:
        raise ValueError(
            f"sweep plan has {len(plan.ranks)} ranks but the application "
            f"has {app.n_ranks}"
        )
    for rank, (rp, ka) in enumerate(zip(plan.ranks, rank_kernel_arrays(app))):
        shape = (len(ka.kernels), plan.n_points)
        for name in ("durations", "powers", "switch_add"):
            got = np.shape(getattr(rp, name))
            if got != shape:
                raise ValueError(
                    f"rank {rank}: sweep plan {name} has shape {got}, "
                    f"expected (n_tasks, n_points) = {shape}"
                )


class Engine:
    """Executes an :class:`Application` under a :class:`ConfigPolicy`.

    Parameters
    ----------
    power_models:
        One per rank (socket) — their efficiency spread is the variability
        the runtimes react to.
    network:
        Interconnect cost model.
    mpi_call_overhead_s:
        CPU cost charged per MPI call (library overhead); the tracer adds
        its measurement cost on top via ``tracing_overhead_s``.
    tracing_overhead_s:
        Extra per-call cost when the profiler is attached (34 µs median in
        the paper).
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        network: NetworkModel = IB_QDR,
        spec: CpuSpec = XEON_E5_2670,
        mpi_call_overhead_s: float = 2e-6,
        tracing_overhead_s: float = 0.0,
        nodes: list[NodeSpec] | None = None,
    ) -> None:
        if not power_models:
            raise ValueError("need at least one power model")
        if nodes is not None and len(nodes) != len(power_models):
            raise ValueError(
                f"got {len(nodes)} nodes for {len(power_models)} power models"
            )
        self.power_models = power_models
        self.network = network
        self.spec = spec
        # Heterogeneous machines: each rank's timing follows its own
        # socket's CpuSpec (identical to `spec` on homogeneous clusters).
        self.time_models = [TaskTimeModel(pm.spec) for pm in power_models]
        self.time_model = TaskTimeModel(spec)  # engine-level fallback
        # Typed-device nodes: configurations carrying a device id are
        # dispatched to that device's models; untagged configurations keep
        # the per-rank socket path above, so legacy runs are bit-identical
        # whether or not nodes are attached.
        self.nodes = list(nodes) if nodes is not None else None
        self.call_cost = mpi_call_overhead_s + tracing_overhead_s

    def _check_app(self, app: Application) -> None:
        if app.n_ranks != len(self.power_models):
            raise ValueError(
                f"application has {app.n_ranks} ranks but engine has "
                f"{len(self.power_models)} power models"
            )
        app.validate()

    # ------------------------------------------------------------------
    def run(self, app: Application, policy: ConfigPolicy) -> SimulationResult:
        """Execute the application to completion under the policy.

        A policy exposing ``plan_run`` has its per-task decisions
        batch-evaluated up front (numpy over each rank's task list) and
        the walk replays the plan; any other policy (the reactive
        runtimes) is asked ``configure`` task by task.
        """
        with timed("phase.replay"):
            self._check_app(app)
            plan_fn = getattr(policy, "plan_run", None)
            plan = plan_fn(app, self) if plan_fn is not None else None
            rec = current_recorder()
            switch_cost = policy.switch_cost_s()
            current: list[Configuration | None] = [None] * app.n_ranks
            records: list[TaskRecord] = []
            iteration_records: list[TaskRecord] = []
            dvfs_switches = 0

            def compute(rank: int, seq: int, op: ComputeOp, clock: float) -> float:
                nonlocal dvfs_switches
                ref = TaskRef(rank, seq)
                if plan is not None:
                    rank_plan = plan.ranks[rank]
                    cfg = rank_plan.configs[seq]
                    duration = rank_plan.durations[seq]
                    power = rank_plan.powers[seq]
                else:
                    cfg = policy.configure(
                        ref, op.kernel, op.iteration, current[rank]
                    )
                    if cfg.device and self.nodes is not None:
                        dev = self.nodes[rank].device(cfg.device)
                        duration = dev.duration(op.kernel, cfg)
                        power = dev.power(op.kernel, cfg)
                    else:
                        duration = self.time_models[rank].duration(
                            op.kernel, cfg.freq_ghz, cfg.threads, cfg.duty
                        )
                        power = self.power_models[rank].power(
                            cfg.freq_ghz,
                            cfg.threads,
                            activity=op.kernel.activity,
                            mem_intensity=op.kernel.mem_intensity,
                            duty=cfg.duty,
                        )
                prev = current[rank]
                if prev is not None and cfg != prev:
                    clock += switch_cost
                    dvfs_switches += 1
                current[rank] = cfg
                task = TaskRecord(
                    ref=ref, iteration=op.iteration, label=op.label, config=cfg,
                    start_s=clock, duration_s=duration, power_w=power,
                    kernel=op.kernel,
                )
                records.append(task)
                iteration_records.append(task)
                if rec is not None:
                    rec.emit(TaskEvent(
                        label=op.label, rank=rank, iteration=op.iteration,
                        ts_s=clock, dur_s=duration,
                        freq_ghz=cfg.freq_ghz, threads=cfg.threads,
                        duty=cfg.duty, power_w=power,
                    ))
                return clock + duration

            makespan, mpi_calls, mpi_waits, collectives, overhead = self._walk(
                app, policy, None, compute, iteration_records, rec
            )
            metric_inc("sim.tasks", len(records))
            metric_inc("sim.mpi_waits", mpi_waits)
            metric_inc("sim.collectives", collectives)
            return SimulationResult(
                app_name=app.name,
                makespan_s=makespan,
                records=records,
                n_ranks=app.n_ranks,
                mpi_call_count=mpi_calls,
                collective_count=collectives,
                pcontrol_overhead_s=overhead,
                dvfs_switch_count=dvfs_switches,
            )

    # ------------------------------------------------------------------
    def run_sweep(
        self,
        app: Application,
        policy: ConfigPolicy,
        plan: SweepRunPlan,
    ) -> SweepRunOutcome:
        """Execute the application once per sweep point, in one DAG walk.

        Each rank's clock is held as a vector over the sweep axis (see
        :meth:`_walk`), making each point's materialized
        :class:`SimulationResult` bit-identical — records, order, and
        makespan — to a :meth:`run` at that point's plan (the tests
        assert this).

        Requires no active trace recorder (per-event emission needs
        scalar timestamps); callers with a recorder attached should fall
        back to per-point :meth:`run` calls.  ``policy.on_pcontrol`` is
        consulted with an empty record list, so only record-oblivious
        policies (replay and other plan-based policies) are supported.
        A plan with no points, with a rank count other than the
        application's, or with a rank whose arrays are not shaped
        ``(n_tasks, n_points)`` raises ``ValueError``.
        """
        if current_recorder() is not None:
            raise RuntimeError(
                "run_sweep cannot emit per-event traces; run each sweep "
                "point through Engine.run when a recorder is active"
            )
        self._check_app(app)
        _check_sweep_plan(app, plan)
        starts = [
            np.zeros((len(rp.durations), plan.n_points)) for rp in plan.ranks
        ]
        #: compute emissions in scheduler order: (rank, seq, op)
        emissions: list[tuple[int, int, ComputeOp]] = []

        def compute(
            rank: int, seq: int, op: ComputeOp, clock: np.ndarray
        ) -> np.ndarray:
            rank_plan = plan.ranks[rank]
            clock = clock + rank_plan.switch_add[seq]
            starts[rank][seq] = clock
            emissions.append((rank, seq, op))
            return clock + rank_plan.durations[seq]

        with timed("phase.replay.sweep"):
            makespans, mpi_calls, mpi_waits, collectives, overhead = self._walk(
                app, policy, plan.n_points, compute, [], None
            )
        return SweepRunOutcome(
            app_name=app.name,
            n_ranks=app.n_ranks,
            n_points=plan.n_points,
            makespans=makespans,
            starts=starts,
            plan=plan,
            emissions=emissions,
            mpi_call_count=mpi_calls,
            mpi_wait_count=mpi_waits,
            collective_count=collectives,
            pcontrol_overhead_s=overhead,
        )

    # ------------------------------------------------------------------
    def _walk(
        self,
        app: Application,
        policy: ConfigPolicy,
        width: int | None,
        compute,
        pcontrol_records: list,
        rec,
    ) -> tuple:
        """Walk the application's event DAG to completion: the scheduler.

        Each rank advances one logical clock through its op list: a Python
        float when ``width`` is None, a vector over ``width`` sweep points
        otherwise.  The control flow never inspects a clock value:
        blocking (an empty channel, a collective barrier) depends only on
        which ops have executed, and message matching is FIFO per channel
        in program order.  The walk order is therefore the same at every
        width, and each elementwise ``+``/``max`` on a vector clock
        reproduces the scalar arithmetic of every point bit for bit.

        ``compute(rank, seq, op, clock)`` runs the rank's ``seq``-th task
        from ``clock`` and returns the clock after it.  At each Pcontrol
        barrier ``policy.on_pcontrol`` receives a copy of
        ``pcontrol_records`` (which ``compute`` may fill), and the list is
        emptied.  ``rec``, when not None, receives the wait and collective
        trace events (scalar clocks only).

        Returns ``(makespan, mpi calls, mpi waits, collectives, Pcontrol
        overhead seconds)``.
        """
        n = app.n_ranks
        programs = app.programs
        call_cost = self.call_cost
        message_time = self.network.message_time
        mx = max if width is None else np.maximum
        # No clock is ever updated in place, so the ranks may share one.
        clocks = [0.0 if width is None else np.zeros(width)] * n
        ptrs = [0] * n
        seqs = [0] * n
        enter = [None] * n  # a rank's clock on entering the pending barrier
        requests: list[dict] = [{} for _ in range(n)]  # request -> channel
        channels: dict[tuple[int, int, int], deque] = {}
        n_waiting = mpi_calls = mpi_waits = collectives = 0
        pcontrol_overhead = 0.0

        def try_advance(rank: int) -> bool:
            nonlocal n_waiting, mpi_calls, mpi_waits
            ptr = ptrs[rank]
            program = programs[rank]
            if enter[rank] is not None or ptr >= len(program):
                return False
            op = program[ptr]
            clock = clocks[rank]

            if isinstance(op, ComputeOp):
                seq = seqs[rank]
                clocks[rank] = compute(rank, seq, op, clock)
                seqs[rank] = seq + 1
                ptrs[rank] = ptr + 1
                return True

            if isinstance(op, (RecvOp, WaitOp)):
                if isinstance(op, RecvOp):
                    channel = (op.src, rank, op.tag)
                else:
                    channel = requests[rank][op.request]
                if channel is None:
                    clock = clock + call_cost  # eager send: wait is immediate
                else:
                    q = channels.get(channel)
                    if not q:
                        return False  # blocked: matching send not yet executed
                    t_arrive = q.popleft()
                    if rec is not None and t_arrive > clock:
                        rec.emit(MpiWaitEvent(
                            name="recv" if isinstance(op, RecvOp) else "wait",
                            rank=rank, ts_s=clock, dur_s=t_arrive - clock,
                        ))
                    clock = mx(clock, t_arrive) + call_cost
                if isinstance(op, WaitOp):
                    del requests[rank][op.request]
                mpi_waits += 1
            elif isinstance(op, (SendOp, IsendOp)):
                clock = clock + call_cost
                channels.setdefault((rank, op.dst, op.tag), deque()).append(
                    clock + message_time(op.size_bytes)
                )
                if isinstance(op, IsendOp):
                    requests[rank][op.request] = None
            elif isinstance(op, IrecvOp):
                clock = clock + call_cost
                requests[rank][op.request] = (op.src, rank, op.tag)
            elif isinstance(op, (CollectiveOp, PcontrolOp)):
                if isinstance(op, CollectiveOp) and op.participants is not None:
                    if tuple(sorted(op.participants)) != tuple(range(n)):
                        raise NotImplementedError(
                            "engine supports all-rank collectives only"
                        )
                clocks[rank] = enter[rank] = clock + call_cost
                n_waiting += 1
                mpi_calls += 1
                return False  # resolved collectively below
            else:
                raise TypeError(f"unknown op {op!r}")
            clocks[rank] = clock
            mpi_calls += 1
            ptrs[rank] = ptr + 1
            return True

        def resolve_collective() -> bool:
            nonlocal n_waiting, collectives, pcontrol_overhead
            if n_waiting < n:
                return False
            ops = [programs[r][ptrs[r]] for r in range(n)]
            first = ops[0]
            if not all(type(op) is type(first) for op in ops):
                raise RuntimeError(
                    f"collective mismatch across ranks: "
                    f"{[type(o).__name__ for o in ops]}"
                )
            done = reduce(mx, enter)
            if isinstance(first, PcontrolOp):
                name = "pcontrol"
                cost = policy.on_pcontrol(first.iteration, list(pcontrol_records))
                if cost < 0:
                    raise ValueError("pcontrol overhead must be >= 0")
                pcontrol_records.clear()
                pcontrol_overhead += cost
            else:
                name = first.kind
                size = max(op.size_bytes for op in ops)
                cost = self.network.collective_time(name, n, size)
            done = done + cost
            collectives += 1
            if rec is not None:
                for r in range(n):
                    rec.emit(CollectiveEvent(
                        name=name, rank=r, ts_s=enter[r], dur_s=done - enter[r],
                    ))
            for r in range(n):
                clocks[r] = done
                enter[r] = None
                ptrs[r] += 1
            n_waiting = 0
            return True

        # Keep scanning until no rank can progress.
        progress = True
        while progress:
            progress = False
            for rank in range(n):
                while try_advance(rank):
                    progress = True
            if resolve_collective():
                progress = True

        unfinished = [r for r in range(n) if ptrs[r] < len(programs[r])]
        if unfinished:
            details = {r: repr(programs[r][ptrs[r]]) for r in unfinished}
            raise RuntimeError(f"deadlock: ranks blocked at {details}")
        return (
            reduce(mx, clocks), mpi_calls, mpi_waits, collectives,
            pcontrol_overhead,
        )
