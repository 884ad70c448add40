"""Power telemetry: instantaneous job power timelines and cap verification.

The paper verifies LP/ILP schedules by replaying them and checking that
the job-level power constraint holds at every instant.  This module turns
a :class:`SimulationResult` into piecewise-constant per-socket and job
power timelines, under either slack-power convention:

* ``slack_mode="task"`` — a rank's power between one task's start and the
  next task's start is the task's power (the LP formulation's assumption:
  slack power equals the associated task power);
* ``slack_mode="idle"`` — the socket drops to its idle power the moment a
  task finishes (the flow ILP's convention, and closer to hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.power import SocketPowerModel
from .engine import SimulationResult

__all__ = ["PowerTimeline", "job_power_timeline", "job_power_timelines_sweep",
           "rank_power_timeline", "verify_power_cap"]


@dataclass(frozen=True)
class PowerTimeline:
    """Piecewise-constant power: ``power[i]`` holds on [times[i], times[i+1]).

    ``times`` has one more entry than ``power`` (the final entry closes the
    last segment at the makespan).
    """

    times: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        if len(self.times) != len(self.power) + 1:
            raise ValueError("times must have exactly one more entry than power")

    def max_power(self) -> float:
        return float(self.power.max()) if len(self.power) else 0.0

    def average_power(self) -> float:
        """Time-weighted mean power over the whole timeline."""
        widths = np.diff(self.times)
        total = widths.sum()
        if total <= 0:
            return 0.0
        return float((self.power * widths).sum() / total)

    def energy_j(self) -> float:
        return float((self.power * np.diff(self.times)).sum())

    def power_at(self, t: float) -> float:
        """Power at an instant (right-continuous)."""
        if t < self.times[0] or t >= self.times[-1]:
            return 0.0
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.power[min(idx, len(self.power) - 1)])


def job_power_timeline(
    result: SimulationResult,
    power_models: list[SocketPowerModel],
    slack_mode: str = "task",
) -> PowerTimeline:
    """Aggregate instantaneous job power across all sockets.

    Built from per-rank step events: at each change point the socket's
    power steps to the new level; summing deltas over a merged event
    list yields the job timeline in O(E log E).

    The per-rank step events are built with array ops, bit-identical to
    a per-event Python accumulation (the tests keep one as an oracle):
    the delta merge buckets by exact event time, and within a bucket the
    deltas are added in the same insertion order either way.
    """
    if slack_mode not in ("task", "idle"):
        raise ValueError(f"slack_mode must be 'task' or 'idle', got {slack_mode!r}")
    if len(power_models) != result.n_ranks:
        raise ValueError("one power model per rank required")

    end = result.makespan_s
    time_parts: list[np.ndarray] = []
    delta_parts: list[np.ndarray] = []
    for rank, recs in enumerate(result.records_by_rank()):
        idle = power_models[rank].idle_power()
        n = len(recs)
        # Socket is at idle power from 0 to makespan as a baseline; each
        # task contributes (power - idle) between its start and stop.
        times = np.empty(2 * n + 2)
        deltas = np.empty(2 * n + 2)
        times[0] = 0.0
        times[1] = end
        deltas[0] = idle
        deltas[1] = -idle
        if n:
            starts_raw = np.array([r.start_s for r in recs])
            order = np.argsort(starts_raw, kind="stable")
            starts = starts_raw[order]
            durations = np.array([r.duration_s for r in recs])[order]
            powers = np.array([r.power_w for r in recs])[order]
            ends = starts + durations
            if slack_mode == "task":
                # Task power holds until the next task starts (or makespan).
                stop = np.empty(n)
                stop[:-1] = starts[1:]
                stop[-1] = end
                stop = np.maximum(stop, ends)  # overlap guard
            else:
                stop = np.minimum(ends, end)
            start = np.minimum(starts, stop)
            delta = powers - idle
            times[2::2] = start
            times[3::2] = stop
            deltas[2::2] = delta
            deltas[3::2] = -delta
        time_parts.append(times)
        delta_parts.append(deltas)

    if not time_parts:
        return PowerTimeline(times=np.array([0.0, 0.0]), power=np.array([]))

    times_raw = np.concatenate(time_parts)
    deltas = np.concatenate(delta_parts)
    return _merge_step_events(times_raw, deltas)


def job_power_timelines_sweep(
    starts: list[np.ndarray],
    durations: list[np.ndarray],
    powers: list[np.ndarray],
    makespans: np.ndarray,
    power_models: list[SocketPowerModel],
    slack_mode: str = "task",
) -> list[PowerTimeline]:
    """Job power timelines for a whole sweep, one column per sweep point.

    ``starts[rank]`` / ``durations[rank]`` / ``powers[rank]`` are
    ``[n_tasks, n_points]`` arrays in task-sequence order (a rank's task
    starts are nondecreasing, so sequence order is exactly the
    start-time order :func:`job_power_timeline` sorts into), and
    ``makespans[c]`` closes point ``c``'s timeline.  The per-rank step
    events are built for every point with one broadcast per rank; only
    the coincident-time merge runs per point.  Each returned timeline is
    bit-identical to :func:`job_power_timeline` on that point's
    :class:`~repro.simulator.engine.SimulationResult` (the tests assert
    this).
    """
    if slack_mode not in ("task", "idle"):
        raise ValueError(f"slack_mode must be 'task' or 'idle', got {slack_mode!r}")
    if len(power_models) != len(starts):
        raise ValueError("one power model per rank required")
    n_points = len(makespans)
    end = np.asarray(makespans)
    time_parts: list[np.ndarray] = []
    delta_parts: list[np.ndarray] = []
    for rank, rank_starts in enumerate(starts):
        idle = power_models[rank].idle_power()
        n = len(rank_starts)
        times = np.empty((2 * n + 2, n_points))
        deltas = np.empty((2 * n + 2, n_points))
        times[0] = 0.0
        times[1] = end
        deltas[0] = idle
        deltas[1] = -idle
        if n:
            ends = rank_starts + durations[rank]
            if slack_mode == "task":
                # Task power holds until the next task starts (or makespan).
                stop = np.empty((n, n_points))
                stop[:-1] = rank_starts[1:]
                stop[-1] = end
                stop = np.maximum(stop, ends)  # overlap guard
            else:
                stop = np.minimum(ends, end)
            start = np.minimum(rank_starts, stop)
            delta = powers[rank] - idle
            times[2::2] = start
            times[3::2] = stop
            deltas[2::2] = delta
            deltas[3::2] = -delta
        time_parts.append(times)
        delta_parts.append(deltas)

    if not time_parts:
        empty = PowerTimeline(times=np.array([0.0, 0.0]), power=np.array([]))
        return [empty] * n_points

    times_raw = np.concatenate(time_parts)
    deltas = np.concatenate(delta_parts)
    return [
        _merge_step_events(times_raw[:, c], deltas[:, c])
        for c in range(n_points)
    ]


def _merge_step_events(times_raw: np.ndarray, deltas: np.ndarray) -> PowerTimeline:
    """Merge coincident event times, then cumulative-sum the deltas."""
    uniq, inverse = np.unique(times_raw, return_inverse=True)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inverse, deltas)
    levels = np.cumsum(merged)
    # Drop the trailing level (beyond the last breakpoint it is ~0).
    return PowerTimeline(times=uniq, power=levels[:-1])


def rank_power_timeline(
    result: SimulationResult,
    power_models: list[SocketPowerModel],
    rank: int,
    slack_mode: str = "task",
) -> PowerTimeline:
    """Instantaneous power of a single socket (same conventions as the
    job timeline)."""
    if not (0 <= rank < result.n_ranks):
        raise ValueError(f"rank {rank} out of range [0, {result.n_ranks})")
    # Carry the run's MPI/collective counts through: the sub-result is the
    # same job viewed through one rank's records, not a smaller job.
    sub = SimulationResult(
        app_name=result.app_name,
        makespan_s=result.makespan_s,
        records=[r for r in result.records if r.ref.rank == rank],
        n_ranks=result.n_ranks,
        mpi_call_count=result.mpi_call_count,
        collective_count=result.collective_count,
    )
    # Reuse the job aggregation with only this rank's records; other
    # sockets contribute their idle floor, which we subtract back out.
    timeline = job_power_timeline(sub, power_models, slack_mode)
    other_idle = sum(
        pm.idle_power() for i, pm in enumerate(power_models) if i != rank
    )
    return PowerTimeline(
        times=timeline.times, power=timeline.power - other_idle
    )


def verify_power_cap(
    result: SimulationResult,
    power_models: list[SocketPowerModel],
    cap_w: float,
    slack_mode: str = "task",
    rel_tol: float = 1e-6,
) -> tuple[bool, float]:
    """Check the job-level cap at every instant; returns (ok, max power)."""
    timeline = job_power_timeline(result, power_models, slack_mode)
    peak = timeline.max_power()
    return peak <= cap_w * (1.0 + rel_tol), peak
