"""Application DAG substrate: graphs of MPI events, tasks, and messages."""

from .analysis import (
    DagSchedule,
    critical_path_edges,
    edge_slack,
    fastest_configurations,
    fastest_durations,
    schedule_fixed_durations,
    unconstrained_schedule,
)
from .builder import DagBuilder
from .graph import (
    CompiledGraph,
    EdgeKind,
    GraphLevel,
    TaskEdge,
    TaskGraph,
    Vertex,
    VertexKind,
)

__all__ = [
    "CompiledGraph",
    "DagBuilder",
    "DagSchedule",
    "EdgeKind",
    "GraphLevel",
    "TaskEdge",
    "TaskGraph",
    "Vertex",
    "VertexKind",
    "critical_path_edges",
    "edge_slack",
    "fastest_configurations",
    "fastest_durations",
    "schedule_fixed_durations",
    "unconstrained_schedule",
]
