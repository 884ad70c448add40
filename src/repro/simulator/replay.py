"""Schedule replay: execute an application under an LP/ILP-derived schedule.

The paper validates its offline schedules by replaying them on the real
benchmarks — "as the application encounters each MPI call, our replay
mechanism changes the configuration appropriately for the next computation
task" (§6.1), skipping the change when the upcoming task is too short to
amortize the ~145 µs DVFS transition (threshold 1 ms).

:class:`ReplayPolicy` implements exactly that against the simulator, and
:func:`replay_schedule` wraps the engine run plus an instantaneous-power
verification, returning the replayed makespan and the observed power peak.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.performance import TaskKernel, TaskTimeModel, rank_kernel_arrays
from ..machine.power import SocketPowerModel
from .engine import (
    ConfigPalette,
    Engine,
    RunPlan,
    SimulationResult,
    SweepRunPlan,
    TaskRecord,
    batch_task_durations,
    sweep_rank_plan,
    switch_rule,
)
from .network import IB_QDR, NetworkModel
from .program import Application, TaskRef
from .telemetry import job_power_timelines_sweep, verify_power_cap

__all__ = [
    "ReplayPolicy",
    "ReplayOutcome",
    "replay_schedule",
    "build_replay_sweep_plan",
    "replay_schedule_sweep",
]


class ReplayPolicy:
    """Replays a per-task configuration assignment.

    Parameters
    ----------
    assignment:
        Configuration per :class:`TaskRef`; tasks absent from the map run
        at the rank's current configuration (first task of a rank must be
        present).
    min_switch_duration_s:
        Do not switch configurations for tasks shorter than this (the
        paper's 1 ms threshold): the rank's current configuration is kept.
    """

    def __init__(
        self,
        assignment: dict[TaskRef, Configuration],
        spec: CpuSpec = XEON_E5_2670,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
    ) -> None:
        self.assignment = dict(assignment)
        self.time_model = TaskTimeModel(spec)
        self.switch_overhead_s = switch_overhead_s
        self.min_switch_duration_s = min_switch_duration_s

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """The scheduled configuration, subject to the 1 ms switch rule."""
        target = self.assignment.get(ref, current)
        if target is None:
            raise KeyError(
                f"replay schedule has no configuration for first task {ref}"
            )
        if current is not None and target != current:
            planned = self.time_model.duration(
                kernel, target.freq_ghz, target.threads, target.duty
            )
            if planned < self.min_switch_duration_s:
                return current  # too short to amortize the transition
        return target

    def plan_run(self, app: Application, engine: Engine) -> RunPlan:
        """Whole-run plan: :func:`build_replay_sweep_plan` for this one
        assignment.  Bit-identical to the scalar path."""
        return build_replay_sweep_plan(
            app,
            engine,
            [self.assignment],
            spec=self.time_model.spec,
            switch_overhead_s=self.switch_overhead_s,
            min_switch_duration_s=self.min_switch_duration_s,
        ).column(0)

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        return 0.0

    def switch_cost_s(self) -> float:
        return self.switch_overhead_s


@dataclass(frozen=True)
class ReplayOutcome:
    """Replayed schedule execution plus its power verification."""

    result: SimulationResult
    cap_w: float
    peak_power_w: float
    cap_respected: bool

    @property
    def makespan_s(self) -> float:
        return self.result.makespan_s


def replay_schedule(
    app: Application,
    assignment: dict[TaskRef, Configuration],
    power_models: list[SocketPowerModel],
    cap_w: float,
    network: NetworkModel = IB_QDR,
    spec: CpuSpec = XEON_E5_2670,
    slack_mode: str = "task",
    cap_rel_tol: float = 5e-3,
    switch_overhead_s: float = 145e-6,
    min_switch_duration_s: float = 1e-3,
    label: str | None = None,
) -> ReplayOutcome:
    """Run ``app`` under a schedule and verify the job power constraint.

    ``cap_rel_tol`` allows the small overshoot inherent to discrete
    rounding (the paper's replayed schedules are "within their power
    constraints" after the same rounding).  ``label``, when given, wraps
    the replay in a trace-recorder run scope (the scenario layer passes
    its policy-instance labels here), so replays land in their own
    Perfetto process group; None leaves the ambient scope untouched.
    """
    from ..obs.recorder import current_recorder

    engine = Engine(power_models, network=network)
    policy = ReplayPolicy(
        assignment,
        spec=spec,
        switch_overhead_s=switch_overhead_s,
        min_switch_duration_s=min_switch_duration_s,
    )
    rec = current_recorder() if label is not None else None
    with rec.run_scope(label) if rec is not None else nullcontext():
        result = engine.run(app, policy)
    ok, peak = verify_power_cap(
        result, power_models, cap_w, slack_mode=slack_mode, rel_tol=cap_rel_tol
    )
    return ReplayOutcome(
        result=result, cap_w=cap_w, peak_power_w=peak, cap_respected=ok
    )


def build_replay_sweep_plan(
    app: Application,
    engine: Engine,
    assignments: list[dict[TaskRef, Configuration]],
    spec: CpuSpec = XEON_E5_2670,
    switch_overhead_s: float = 145e-6,
    min_switch_duration_s: float = 1e-3,
) -> SweepRunPlan:
    """Plan every sweep point's schedule replay in one batch.

    Column ``c`` is the plan :meth:`ReplayPolicy.configure` makes task by
    task for ``assignments[c]`` (:meth:`ReplayPolicy.plan_run` is column
    0 of a one-point sweep): the 1 ms-rule durations of the assigned
    targets are evaluated for all points with one broadcast per rank,
    :func:`~repro.simulator.engine.switch_rule` applies the
    carry-current semantics to every point at once, and the chosen
    configurations' durations and powers are batch evaluated
    ``[n_tasks, n_points]`` at once.  Bit-identical per point (the tests
    assert this).
    """
    time_model = TaskTimeModel(spec)
    arrays = rank_kernel_arrays(app)
    n_points = len(assignments)
    counts = np.array([len(ka.kernels) for ka in arrays], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    # Every point's targets as ids of one palette, -1 where it has none.
    palette = ConfigPalette()
    targets = np.full((offsets[-1], n_points), -1, dtype=np.int64)
    for c, assignment in enumerate(assignments):
        refs = list(assignment)
        ranks = np.array([ref.rank for ref in refs], dtype=np.int64)
        seqs = np.array([ref.seq for ref in refs], dtype=np.int64)
        ids = np.array(
            [-1 if cfg is None else palette.index(cfg) for cfg in assignment.values()],
            dtype=np.int64,
        )
        ours = (ranks >= 0) & (ranks < app.n_ranks)
        ours[ours] &= (seqs[ours] >= 0) & (seqs[ours] < counts[ranks[ours]])
        targets[offsets[ranks[ours]] + seqs[ours], c] = ids[ours]
    objects, freq, threads, duty = palette.arrays()
    rank_plans = []
    for rank in range(app.n_ranks):
        ka_cols = arrays[rank].columns()
        tid = targets[offsets[rank]:offsets[rank + 1]]
        missing = tid < 0
        if len(tid) and missing[0].any():
            raise KeyError(
                "replay schedule has no configuration for first task "
                f"{TaskRef(rank, 0)}"
            )
        known = np.where(missing, 0, tid)
        planned = batch_task_durations(
            time_model, ka_cols, freq[known], threads[known], duty[known]
        )
        # A task without a target, or too short to amortize the
        # transition, keeps the rank's current configuration.
        hold = missing | (planned < min_switch_duration_s)
        hold[:1] = False
        chosen, switches = switch_rule(
            known, hold, np.zeros(len(tid), dtype=np.int64)
        )
        rank_plans.append(sweep_rank_plan(
            engine, rank, ka_cols, objects[chosen],
            freq[chosen], threads[chosen], duty[chosen],
            switches, switch_overhead_s,
        ))
    return SweepRunPlan(ranks=rank_plans, n_points=n_points)


def replay_schedule_sweep(
    app: Application,
    assignments: list[dict[TaskRef, Configuration]],
    power_models: list[SocketPowerModel],
    caps_w: list[float],
    network: NetworkModel = IB_QDR,
    spec: CpuSpec = XEON_E5_2670,
    slack_mode: str = "task",
    cap_rel_tol: float = 5e-3,
    switch_overhead_s: float = 145e-6,
    min_switch_duration_s: float = 1e-3,
) -> list[ReplayOutcome]:
    """Replay one schedule per cap in a single vectorized DAG walk.

    The sweep analogue of :func:`replay_schedule`: ``assignments[c]`` is
    verified against ``caps_w[c]``, and every outcome is bit-identical to
    the corresponding per-cap :func:`replay_schedule` call (one
    application walk with vector clocks instead of ``len(caps_w)``
    walks; the tests assert identity).  Falls back to per-cap scalar
    runs when a trace recorder is active, since per-event emission needs
    scalar timestamps.
    """
    from ..obs.recorder import current_recorder

    if len(assignments) != len(caps_w):
        raise ValueError(
            f"{len(assignments)} assignments but {len(caps_w)} caps"
        )
    if current_recorder() is not None:
        return [
            replay_schedule(
                app, assignment, power_models, cap_w,
                network=network, spec=spec, slack_mode=slack_mode,
                cap_rel_tol=cap_rel_tol,
                switch_overhead_s=switch_overhead_s,
                min_switch_duration_s=min_switch_duration_s,
            )
            for assignment, cap_w in zip(assignments, caps_w)
        ]
    engine = Engine(power_models, network=network)
    policy = ReplayPolicy(
        {},
        spec=spec,
        switch_overhead_s=switch_overhead_s,
        min_switch_duration_s=min_switch_duration_s,
    )
    plan = build_replay_sweep_plan(
        app, engine, assignments,
        spec=spec,
        switch_overhead_s=switch_overhead_s,
        min_switch_duration_s=min_switch_duration_s,
    )
    sweep = engine.run_sweep(app, policy, plan)
    # Cap verification straight from the sweep arrays: same timelines as
    # verify_power_cap would compute per materialized result.
    timelines = job_power_timelines_sweep(
        sweep.starts,
        [rp.durations for rp in plan.ranks],
        [rp.powers for rp in plan.ranks],
        sweep.makespans,
        power_models,
        slack_mode=slack_mode,
    )
    outcomes = []
    for c, cap_w in enumerate(caps_w):
        peak = timelines[c].max_power()
        outcomes.append(ReplayOutcome(
            result=sweep.result(c),
            cap_w=cap_w,
            peak_power_w=peak,
            cap_respected=peak <= cap_w * (1.0 + cap_rel_tol),
        ))
    return outcomes
