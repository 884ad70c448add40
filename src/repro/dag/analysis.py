"""DAG scheduling analysis: longest paths, critical path, slack.

Given per-edge durations (message edges are fixed; compute edges depend on
the chosen configuration), vertex times follow from the longest-path
recurrence ``v_dst = max over in-edges (v_src + d)`` with the INIT vertex
pinned at zero — exactly the as-soon-as-possible schedule the paper's LP
constraints (2)-(4) describe when power is unconstrained.

The *initial schedule* feeding the LP is the power-unconstrained schedule
with every task at its fastest configuration; its activity windows
``[v_src(task), v_dst(task))`` cover each task plus its trailing slack,
implementing the paper's "slack power equals task power" convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.configuration import Configuration
from ..machine.performance import TaskTimeModel
from .graph import TaskGraph, VertexKind

__all__ = [
    "DagSchedule",
    "schedule_fixed_durations",
    "fastest_durations",
    "fastest_configurations",
    "unconstrained_schedule",
    "critical_path_edges",
    "edge_slack",
]


@dataclass(frozen=True)
class DagSchedule:
    """A timed realization of a DAG: vertex times and edge starts/durations."""

    vertex_times: np.ndarray
    edge_durations: np.ndarray
    edge_starts: np.ndarray
    makespan: float

    def task_window(self, graph: TaskGraph, edge_id: int) -> tuple[float, float]:
        """Activity window of an edge: [src vertex time, dst vertex time)."""
        e = graph.edges[edge_id]
        return (
            float(self.vertex_times[e.src]),
            float(self.vertex_times[e.dst]),
        )


def schedule_fixed_durations(
    graph: TaskGraph, durations: np.ndarray | list[float]
) -> DagSchedule:
    """ASAP schedule for given per-edge durations (longest path from INIT).

    Vertex times are set one topological level at a time: each vertex's
    time is the ``max`` of ``v_src + d`` over its in-edges.  Raises
    ``ValueError`` unless every duration is finite and ``>= 0``.
    """
    d = np.asarray(durations, dtype=float)
    if d.shape != (graph.n_edges,):
        raise ValueError(
            f"durations must have shape ({graph.n_edges},), got {d.shape}"
        )
    if not np.isfinite(d).all():
        raise ValueError("durations must be finite")
    if np.any(d < 0):
        raise ValueError("durations must be >= 0")
    view = graph.compiled()
    times = np.zeros(graph.n_vertices)
    for level in view.levels:
        times[level.vertices] = np.maximum.reduceat(
            times[level.src] + d[level.edges], level.offsets
        )
    fin_id = view.fin_id
    if fin_id is None:
        fin_id = graph.find_vertex(VertexKind.FINALIZE).id  # raises
    return DagSchedule(
        vertex_times=times,
        edge_durations=d,
        edge_starts=times[view.src],
        makespan=float(times[fin_id]),
    )


def fastest_configurations(
    graph: TaskGraph, time_model: TaskTimeModel
) -> dict[int, Configuration]:
    """Per compute edge, the duration-minimizing configuration (fmax)."""
    spec = time_model.spec
    return {
        e.id: Configuration(spec.fmax_ghz, time_model.best_threads(e.kernel))
        for e in graph.compute_edges()
    }


def fastest_durations(graph: TaskGraph, time_model: TaskTimeModel) -> np.ndarray:
    """Per-edge durations with every task at its fastest configuration."""
    d = np.zeros(graph.n_edges)
    for e in graph.edges:
        if e.is_compute:
            d[e.id] = time_model.duration(
                e.kernel, time_model.spec.fmax_ghz, time_model.best_threads(e.kernel)
            )
        else:
            d[e.id] = e.duration_s
    return d


def unconstrained_schedule(
    graph: TaskGraph, time_model: TaskTimeModel
) -> DagSchedule:
    """The power-unconstrained initial schedule used to fix event order."""
    return schedule_fixed_durations(graph, fastest_durations(graph, time_model))


def edge_slack(graph: TaskGraph, schedule: DagSchedule) -> np.ndarray:
    """Slack per edge: destination event time minus (start + duration).

    Zero-slack edges are on a critical path; a task's slack is the time its
    rank would idle before the locally subsequent MPI call can complete.
    """
    slack = np.empty(graph.n_edges)
    for e in graph.edges:
        slack[e.id] = (
            schedule.vertex_times[e.dst]
            - schedule.edge_starts[e.id]
            - schedule.edge_durations[e.id]
        )
    # Clamp tiny negatives from float accumulation.
    np.clip(slack, 0.0, None, out=slack)
    return slack


def critical_path_edges(
    graph: TaskGraph, schedule: DagSchedule, tol: float = 1e-9
) -> list[int]:
    """One critical path from INIT to FINALIZE, as a list of edge ids.

    Walks backward from FINALIZE always following a tight in-edge (one with
    ``v_src + d == v_dst`` within tolerance).
    """
    path: list[int] = []
    vid = graph.find_vertex(VertexKind.FINALIZE).id
    init = graph.find_vertex(VertexKind.INIT).id
    times = schedule.vertex_times
    d = schedule.edge_durations
    while vid != init:
        incoming = graph.in_edges(vid)
        if not incoming:
            break  # disconnected prefix; treat as path start
        tight = min(
            incoming, key=lambda e: abs(times[e.src] + d[e.id] - times[vid])
        )
        gap = abs(times[tight.src] + d[tight.id] - times[vid])
        if gap > tol + 1e-6 * max(1.0, times[vid]):
            raise ValueError(
                f"no tight in-edge at vertex {vid} (best gap {gap:.3e}); "
                "schedule is not an ASAP schedule of this graph"
            )
        path.append(tight.id)
        vid = tight.src
    path.reverse()
    return path
