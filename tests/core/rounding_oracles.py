"""Scalar ASAP and per-frontier rounding oracles.

The product re-times a DAG one topological level at a time
(:func:`repro.dag.schedule_fixed_durations`) and rounds every task of a
schedule in one padded-array pick (:func:`repro.core.round_schedule`).
This module keeps the implementations they replaced, so the tests can
assert that both give the same bits:

* :func:`asap_reference` — the per-vertex longest-path loop in
  topological order;
* :func:`pick_indices_reference` — the pick over one frontier's arrays;
* :func:`round_schedule_reference` — rounding grouped by distinct
  frontier, one :class:`TaskAssignment` per task, then
  :func:`asap_reference`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.schedule import PowerSchedule, TaskAssignment
from repro.dag import DagSchedule, TaskGraph, VertexKind
from repro.simulator import Trace

__all__ = [
    "asap_reference",
    "pick_indices_reference",
    "round_schedule_reference",
]


def _kahn_order(graph: TaskGraph) -> list[int]:
    """Kahn's algorithm from the sorted sources, read off the adjacency
    lists (not the graph's compiled view)."""
    indeg = {v.id: len(graph.in_edges(v.id)) for v in graph.vertices}
    queue = deque(sorted(vid for vid, n in indeg.items() if n == 0))
    order: list[int] = []
    while queue:
        vid = queue.popleft()
        order.append(vid)
        for e in graph.out_edges(vid):
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                queue.append(e.dst)
    if len(order) != graph.n_vertices:
        raise ValueError("task graph contains a cycle")
    return order


def asap_reference(graph: TaskGraph, durations) -> DagSchedule:
    """Per-vertex twin of :func:`repro.dag.schedule_fixed_durations`."""
    d = np.asarray(durations, dtype=float)
    if d.shape != (graph.n_edges,):
        raise ValueError(
            f"durations must have shape ({graph.n_edges},), got {d.shape}"
        )
    if np.any(d < 0):
        raise ValueError("durations must be >= 0")
    times = np.zeros(graph.n_vertices)
    for vid in _kahn_order(graph):
        incoming = graph.in_edges(vid)
        if incoming:
            times[vid] = max(times[e.src] + d[e.id] for e in incoming)
    starts = np.array([times[e.src] for e in graph.edges])
    makespan = float(times[graph.find_vertex(VertexKind.FINALIZE).id])
    return DagSchedule(
        vertex_times=times, edge_durations=d, edge_starts=starts, makespan=makespan
    )


def pick_indices_reference(
    powers: np.ndarray, durations: np.ndarray, targets: np.ndarray, mode: str
) -> np.ndarray:
    """Per target power, the position of the rounded point on one frontier.

    ``nearest`` takes the least ``|power - target|``, then the least
    duration; ``floor`` the highest power at or below ``target + 1e-9``,
    else the least power.  Remaining ties go to the first point in
    frontier order, as ``min``/``max`` over the point list would.
    """
    if mode == "nearest":
        gap = np.abs(powers[None, :] - targets[:, None])
        best = gap == gap.min(axis=1, keepdims=True)
        return np.where(best, durations, np.inf).argmin(axis=1)
    order = np.argsort(powers, kind="stable")
    ranked = powers[order]
    below = np.searchsorted(ranked, targets + 1e-9, side="right")
    top = ranked[np.maximum(below - 1, 0)]
    return order[np.searchsorted(ranked, top, side="left")]


def _round_to_frontiers(trace: Trace, schedule: PowerSchedule, mode: str) -> dict:
    """Round every task at once per distinct frontier (``nearest``/``floor``)."""
    groups: dict[int, list] = {}
    for ref, assign in schedule.assignments.items():
        groups.setdefault(id(trace.frontiers[assign.edge_id]), []).append(ref)
    picked = {}
    for refs in groups.values():
        edge_id = schedule.assignments[refs[0]].edge_id
        front = trace.frontiers[edge_id]
        if not front:
            raise ValueError(f"task edge {edge_id} has an empty frontier")
        powers = np.array([p.power_w for p in front])
        durations = np.array([p.duration_s for p in front])
        targets = np.array([schedule.assignments[r].power_w for r in refs])
        idx = pick_indices_reference(powers, durations, targets, mode)
        picked.update(zip(refs, (front[k] for k in idx.tolist())))
    return picked


def round_schedule_reference(
    trace: Trace, schedule: PowerSchedule, mode: str = "nearest"
) -> PowerSchedule:
    """Per-assignment twin of :func:`repro.core.round_schedule`."""
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

    timed = asap_reference(graph, durations)
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
