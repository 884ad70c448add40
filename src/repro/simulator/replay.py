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
    Engine,
    RunPlan,
    SimulationResult,
    SweepRunPlan,
    TaskRecord,
    batch_task_durations,
    plan_from_configs,
    sweep_rank_plan,
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
        """Whole-run plan: vectorized evaluation of the schedule replay.

        Per rank, the assigned targets' 1 ms-rule durations are batch
        evaluated up front (the rule depends only on the static
        assignment), then a cheap sequential pass applies the
        carry-current semantics of :meth:`configure`; the chosen
        configurations' durations and powers are batch evaluated with
        the engine's machine models.  Bit-identical to the scalar path.
        """
        arrays = rank_kernel_arrays(app)
        per_rank = []
        for rank in range(app.n_ranks):
            ka = arrays[rank]
            n_tasks = len(ka.kernels)
            targets: list[Configuration | None] = [None] * n_tasks
            freq = np.ones(n_tasks)
            thr = np.ones(n_tasks, dtype=np.int64)
            duty = np.ones(n_tasks)
            for i in range(n_tasks):
                target = self.assignment.get(TaskRef(rank, i))
                if target is not None:
                    targets[i] = target
                    freq[i] = target.freq_ghz
                    thr[i] = target.threads
                    duty[i] = target.duty
            planned = batch_task_durations(
                self.time_model, ka, freq, thr, duty
            ).tolist()
            configs: list[Configuration] = []
            current: Configuration | None = None
            for i in range(n_tasks):
                target = targets[i]
                if target is None:
                    if current is None:
                        raise KeyError(
                            "replay schedule has no configuration for "
                            f"first task {TaskRef(rank, i)}"
                        )
                    target = current
                elif (
                    current is not None
                    and target != current
                    and planned[i] < self.min_switch_duration_s
                ):
                    target = current  # too short to amortize the transition
                configs.append(target)
                current = target
            per_rank.append(configs)
        return plan_from_configs(app, engine, per_rank)

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

    engine = Engine(power_models, network=network, spec=spec)
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

    Column ``c`` replicates exactly what
    :meth:`ReplayPolicy.plan_run` would produce for ``assignments[c]``:
    the 1 ms-rule durations of the assigned targets are evaluated for all
    points with one broadcast per rank, a sequential pass applies the
    carry-current semantics per point, and the chosen configurations'
    durations and powers are batch evaluated ``[n_tasks, n_points]`` at
    once.  Bit-identical per point (the tests assert this).
    """
    time_model = TaskTimeModel(spec)
    arrays = rank_kernel_arrays(app)
    n_points = len(assignments)
    rank_plans = []
    for rank in range(app.n_ranks):
        ka = arrays[rank]
        ka_cols = ka.columns()
        n_tasks = len(ka.kernels)
        targets = [[None] * n_points for _ in range(n_tasks)]
        freq = np.ones((n_tasks, n_points))
        thr = np.ones((n_tasks, n_points), dtype=np.int64)
        duty = np.ones((n_tasks, n_points))
        for i in range(n_tasks):
            ref = TaskRef(rank, i)
            row_t = targets[i]
            for c, assignment in enumerate(assignments):
                target = assignment.get(ref)
                if target is not None:
                    row_t[c] = target
                    freq[i, c] = target.freq_ghz
                    thr[i, c] = target.threads
                    duty[i, c] = target.duty
        planned = batch_task_durations(time_model, ka_cols, freq, thr, duty)
        # Carry-current pass, per point (cheap python over a small table;
        # the float work above and below is batched).
        configs: list[list[Configuration]] = []
        current: list[Configuration | None] = [None] * n_points
        switches = np.zeros((n_tasks, n_points), dtype=bool)
        for i in range(n_tasks):
            row_t = targets[i]
            row: list[Configuration] = []
            for c in range(n_points):
                target = row_t[c]
                cur = current[c]
                if target is None:
                    if cur is None:
                        raise KeyError(
                            "replay schedule has no configuration for "
                            f"first task {TaskRef(rank, i)}"
                        )
                    target = cur
                elif (
                    cur is not None
                    and target != cur
                    and planned[i, c] < min_switch_duration_s
                ):
                    target = cur  # too short to amortize the transition
                if cur is not None and target != cur:
                    switches[i, c] = True
                row.append(target)
                current[c] = target
            configs.append(row)
        for i in range(n_tasks):
            row = configs[i]
            for c in range(n_points):
                cfg = row[c]
                freq[i, c] = cfg.freq_ghz
                thr[i, c] = cfg.threads
                duty[i, c] = cfg.duty
        rank_plans.append(sweep_rank_plan(
            engine, rank, ka_cols, configs, freq, thr, duty,
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
    engine = Engine(power_models, network=network, spec=spec)
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
