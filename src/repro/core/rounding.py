"""Continuous → discrete schedule realization (paper §3.2).

The continuous LP's per-task optimum generally sits between two adjacent
points of the convex frontier; realizing it on hardware means either
switching configurations mid-task (the continuous interpretation) or
rounding to a single configuration.  The paper rounds "by selecting the
configuration closest to the optimal point on the Pareto frontier"; we
implement that (``nearest``) plus two alternatives used by tests and
ablations:

* ``floor`` — the nearest frontier point at or *below* the task's LP power,
  guaranteeing the discrete schedule never draws more power than the
  continuous one at any event (strictly cap-safe);
* ``dominant`` — the highest-fraction point of the mixture.

After rounding, the schedule is re-timed with an ASAP pass so the reported
discrete makespan reflects the realized durations.
"""

from __future__ import annotations

import numpy as np

from ..dag.analysis import schedule_fixed_durations
from ..machine.configuration import ConfigPoint
from ..simulator.program import TaskRef
from ..simulator.trace import Trace
from .schedule import PowerSchedule, TaskAssignment

__all__ = ["round_schedule"]


def _pick_indices(
    powers: np.ndarray, durations: np.ndarray, targets: np.ndarray, mode: str
) -> np.ndarray:
    """Per target power, the position of the rounded point on one frontier.

    ``nearest`` takes the least ``|power - target|``, then the least
    duration; ``floor`` the highest power at or below ``target + 1e-9``,
    else the least power.  Remaining ties go to the first point in
    frontier order, as ``min``/``max`` over the point list would.
    """
    if mode == "nearest":
        # Rounding can make |power - target| tie between points that are
        # not neighbours in power, so every point's gap is compared.
        gap = np.abs(powers[None, :] - targets[:, None])
        best = gap == gap.min(axis=1, keepdims=True)
        return np.where(best, durations, np.inf).argmin(axis=1)
    order = np.argsort(powers, kind="stable")
    ranked = powers[order]
    below = np.searchsorted(ranked, targets + 1e-9, side="right")
    top = ranked[np.maximum(below - 1, 0)]
    return order[np.searchsorted(ranked, top, side="left")]


def _round_to_frontiers(
    trace: Trace, schedule: PowerSchedule, mode: str
) -> dict[TaskRef, ConfigPoint]:
    """Round every task at once per distinct frontier (``nearest``/``floor``)."""
    groups: dict[int, list[TaskRef]] = {}
    for ref, assign in schedule.assignments.items():
        groups.setdefault(id(trace.frontiers[assign.edge_id]), []).append(ref)
    picked: dict[TaskRef, ConfigPoint] = {}
    for refs in groups.values():
        edge_id = schedule.assignments[refs[0]].edge_id
        front = trace.frontiers[edge_id]
        if not front:
            raise ValueError(f"task edge {edge_id} has an empty frontier")
        powers = np.array([p.power_w for p in front])
        durations = np.array([p.duration_s for p in front])
        targets = np.array([schedule.assignments[r].power_w for r in refs])
        idx = _pick_indices(powers, durations, targets, mode)
        picked.update(zip(refs, (front[k] for k in idx.tolist())))
    return picked


def round_schedule(
    trace: Trace, schedule: PowerSchedule, mode: str = "nearest"
) -> PowerSchedule:
    """Round a continuous schedule to single configurations and re-time it."""
    if schedule.kind != "continuous":
        raise ValueError("round_schedule expects a continuous schedule")
    if mode == "dominant":
        picked = {
            ref: max(a.mixture, key=lambda cf: (cf[1], -cf[0].power_w))[0]
            for ref, a in schedule.assignments.items()
        }
    elif mode in ("nearest", "floor"):
        picked = _round_to_frontiers(trace, schedule, mode)
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    graph = trace.graph
    durations = np.zeros(graph.n_edges)
    for e in graph.message_edges():
        durations[e.id] = e.duration_s

    assignments: dict = {}
    for ref, assign in schedule.assignments.items():
        point = picked[ref]
        durations[assign.edge_id] = point.duration_s
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=assign.edge_id,
            mixture=((point, 1.0),),
            duration_s=point.duration_s,
            power_w=point.power_w,
        )

    timed = schedule_fixed_durations(graph, durations)
    return PowerSchedule(
        kind="discrete",
        cap_w=schedule.cap_w,
        objective_s=timed.makespan,
        assignments=assignments,
        vertex_times=timed.vertex_times,
        solver_info={
            "rounding": mode,
            "continuous_objective_s": schedule.objective_s,
        },
    )
