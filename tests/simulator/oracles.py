"""Scalar reference oracles for the engine and the power timelines.

The product keeps one engine event loop and one array-built timeline
accumulation.  These are the per-event scalar implementations they
replaced, kept verbatim so the identity suites can hold the product to
*bit* equality with them:

* :func:`run_scalar` — the scalar discrete-event scheduler, one
  ``policy.configure`` call per task (or the rows of a whole-run plan
  when one is given), Python float clocks throughout;
* :func:`job_power_timeline_reference` — the per-event Python
  accumulation of a job power timeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.machine.configuration import Configuration
from repro.obs.events import CollectiveEvent, MpiWaitEvent, TaskEvent
from repro.obs.metrics import inc as metric_inc
from repro.obs.recorder import current_recorder
from repro.simulator.engine import (
    ConfigPolicy,
    Engine,
    RunPlan,
    SimulationResult,
    TaskRecord,
)
from repro.simulator.program import (
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
from repro.simulator.telemetry import PowerTimeline, _merge_step_events

__all__ = ["run_scalar", "job_power_timeline_reference"]


@dataclass
class _RankState:
    clock: float = 0.0
    ptr: int = 0
    config: Configuration | None = None
    collective_idx: int = 0
    waiting_collective: bool = False
    collective_enter_s: float = 0.0
    requests: dict[int, tuple] = field(default_factory=dict)


def run_scalar(
    self: Engine,
    app: Application,
    policy: ConfigPolicy,
    plan: RunPlan | None = None,
) -> SimulationResult:
    """One scalar run of ``app`` on ``self`` (an :class:`Engine`).

    With ``plan=None`` every task's configuration comes from
    ``policy.configure``; the engine's answer for a plan-based policy must
    match this bit for bit.
    """
    if app.n_ranks != len(self.power_models):
        raise ValueError(
            f"application has {app.n_ranks} ranks but engine has "
            f"{len(self.power_models)} power models"
        )
    app.validate()
    n = app.n_ranks
    states = [_RankState() for _ in range(n)]
    channels: dict[tuple[int, int, int], deque[float]] = {}
    records: list[TaskRecord] = []
    task_seq = [0] * n
    iteration_records: list[TaskRecord] = []
    mpi_calls = 0
    mpi_waits = 0
    collectives = 0
    pcontrol_overhead = 0.0
    dvfs_switches = 0
    # Tracing: one contextvar read per run; with tracing off the only
    # per-event cost is a local `is not None` branch.
    rec = current_recorder()

    def arrival(src: int, dst: int, tag: int, send_time: float, size: int) -> None:
        channels.setdefault((src, dst, tag), deque()).append(
            send_time + self.network.message_time(size)
        )

    def try_advance(rank: int) -> bool:
        nonlocal mpi_calls, mpi_waits, dvfs_switches
        st = states[rank]
        if st.waiting_collective or st.ptr >= len(app.programs[rank]):
            return False
        op = app.programs[rank][st.ptr]

        if isinstance(op, ComputeOp):
            seq = task_seq[rank]
            ref = TaskRef(rank, seq)
            if plan is not None:
                # Vectorized path: the policy's whole-run plan holds
                # the exact configure/duration/power outcomes.
                rank_plan = plan.ranks[rank]
                cfg = rank_plan.configs[seq]
                duration = rank_plan.durations[seq]
                power = rank_plan.powers[seq]
            else:
                cfg = policy.configure(
                    ref, op.kernel, op.iteration, st.config
                )
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
            if st.config is not None and cfg != st.config:
                st.clock += policy.switch_cost_s()
                dvfs_switches += 1
            st.config = cfg
            rec_task = TaskRecord(
                ref=ref, iteration=op.iteration, label=op.label, config=cfg,
                start_s=st.clock, duration_s=duration, power_w=power,
                kernel=op.kernel,
            )
            records.append(rec_task)
            iteration_records.append(rec_task)
            if rec is not None:
                rec.emit(TaskEvent(
                    label=op.label, rank=rank, iteration=op.iteration,
                    ts_s=st.clock, dur_s=duration,
                    freq_ghz=cfg.freq_ghz, threads=cfg.threads,
                    duty=cfg.duty, power_w=power,
                ))
            st.clock += duration
            task_seq[rank] += 1
            st.ptr += 1
            return True

        if isinstance(op, SendOp):
            st.clock += self.call_cost
            mpi_calls += 1
            arrival(rank, op.dst, op.tag, st.clock, op.size_bytes)
            st.ptr += 1
            return True

        if isinstance(op, IsendOp):
            st.clock += self.call_cost
            mpi_calls += 1
            arrival(rank, op.dst, op.tag, st.clock, op.size_bytes)
            st.requests[op.request] = ("send",)
            st.ptr += 1
            return True

        if isinstance(op, IrecvOp):
            st.clock += self.call_cost
            mpi_calls += 1
            st.requests[op.request] = ("recv", op.src, op.tag)
            st.ptr += 1
            return True

        if isinstance(op, RecvOp):
            q = channels.get((op.src, rank, op.tag))
            if not q:
                return False  # blocked: matching send not yet executed
            t_arrive = q.popleft()
            if rec is not None and t_arrive > st.clock:
                rec.emit(MpiWaitEvent(
                    name="recv", rank=rank, ts_s=st.clock,
                    dur_s=t_arrive - st.clock,
                ))
            st.clock = max(st.clock, t_arrive) + self.call_cost
            mpi_calls += 1
            mpi_waits += 1
            st.ptr += 1
            return True

        if isinstance(op, WaitOp):
            req = st.requests.get(op.request)
            if req is None:
                raise RuntimeError(
                    f"rank {rank}: wait on unposted request {op.request}"
                )
            if req[0] == "send":
                st.clock += self.call_cost  # eager send: wait is immediate
            else:
                _, src, tag = req
                q = channels.get((src, rank, tag))
                if not q:
                    return False
                t_arrive = q.popleft()
                if rec is not None and t_arrive > st.clock:
                    rec.emit(MpiWaitEvent(
                        name="wait", rank=rank, ts_s=st.clock,
                        dur_s=t_arrive - st.clock,
                    ))
                st.clock = max(st.clock, t_arrive) + self.call_cost
            mpi_calls += 1
            mpi_waits += 1
            del st.requests[op.request]
            st.ptr += 1
            return True

        if isinstance(op, (CollectiveOp, PcontrolOp)):
            if isinstance(op, CollectiveOp) and op.participants is not None:
                if tuple(sorted(op.participants)) != tuple(range(n)):
                    raise NotImplementedError(
                        "engine supports all-rank collectives only"
                    )
            st.clock += self.call_cost
            mpi_calls += 1
            st.waiting_collective = True
            st.collective_enter_s = st.clock
            return False  # resolved collectively below

        raise TypeError(f"unknown op {op!r}")

    def resolve_collective() -> bool:
        nonlocal collectives, pcontrol_overhead, iteration_records
        if not all(st.waiting_collective for st in states):
            return False
        ops = [app.programs[r][states[r].ptr] for r in range(n)]
        first = ops[0]
        if not all(type(op) is type(first) for op in ops):
            raise RuntimeError(
                f"collective mismatch across ranks: {[type(o).__name__ for o in ops]}"
            )
        done = max(st.collective_enter_s for st in states)
        if isinstance(first, PcontrolOp):
            name = "pcontrol"
            overhead = policy.on_pcontrol(first.iteration, list(iteration_records))
            if overhead < 0:
                raise ValueError("pcontrol overhead must be >= 0")
            done += overhead
            pcontrol_overhead += overhead
            iteration_records = []
        else:
            name = first.kind
            size = max(
                op.size_bytes for op in ops if isinstance(op, CollectiveOp)
            )
            done += self.network.collective_time(name, n, size)
        collectives += 1
        if rec is not None:
            for r, st in enumerate(states):
                rec.emit(CollectiveEvent(
                    name=name, rank=r, ts_s=st.collective_enter_s,
                    dur_s=done - st.collective_enter_s,
                ))
        for st in states:
            st.clock = done
            st.waiting_collective = False
            st.ptr += 1
        return True

    # Main scheduler loop: keep scanning until no rank can progress.
    progress = True
    while progress:
        progress = False
        for rank in range(n):
            while try_advance(rank):
                progress = True
        if resolve_collective():
            progress = True

    unfinished = [
        r for r in range(n) if states[r].ptr < len(app.programs[r])
    ]
    if unfinished:
        details = {
            r: repr(app.programs[r][states[r].ptr]) for r in unfinished
        }
        raise RuntimeError(f"deadlock: ranks blocked at {details}")

    metric_inc("sim.tasks", len(records))
    metric_inc("sim.mpi_waits", mpi_waits)
    metric_inc("sim.collectives", collectives)
    return SimulationResult(
        app_name=app.name,
        makespan_s=max(st.clock for st in states),
        records=records,
        n_ranks=n,
        mpi_call_count=mpi_calls,
        collective_count=collectives,
        pcontrol_overhead_s=pcontrol_overhead,
        dvfs_switch_count=dvfs_switches,
    )


def job_power_timeline_reference(
    result: SimulationResult,
    power_models: list,
    slack_mode: str = "task",
) -> PowerTimeline:
    """Per-event reference accumulation of
    :func:`repro.simulator.telemetry.job_power_timeline`."""
    end = result.makespan_s
    events: list[tuple[float, float]] = []  # (time, delta watts)
    for rank, recs in enumerate(result.records_by_rank()):
        idle = power_models[rank].idle_power()
        # Socket is at idle power from 0 to makespan as a baseline...
        events.append((0.0, idle))
        events.append((end, -idle))
        recs = sorted(recs, key=lambda r: r.start_s)
        for i, rec in enumerate(recs):
            if slack_mode == "task":
                # Task power holds until the next task starts (or makespan).
                stop = recs[i + 1].start_s if i + 1 < len(recs) else end
                stop = max(stop, rec.end_s)  # overlap guard
            else:
                stop = min(rec.end_s, end)
            start = min(rec.start_s, stop)
            events.append((start, rec.power_w - idle))
            events.append((stop, -(rec.power_w - idle)))

    if not events:
        return PowerTimeline(times=np.array([0.0, 0.0]), power=np.array([]))

    events.sort(key=lambda e: e[0])
    return _merge_step_events(
        np.array([e[0] for e in events]), np.array([e[1] for e in events])
    )
