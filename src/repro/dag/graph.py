"""Application task graph: the paper's DAG of MPI events and tasks.

Vertices are MPI call completions (Init, Send/Recv, Isend/Wait, collective
operations, Finalize).  Edges are either **compute tasks** — the
computation a rank performs between two consecutive MPI calls, runnable in
many (frequency, threads) configurations — or **messages**, whose duration
is a fixed linear function of size (latency + size / bandwidth).

Collectives are modeled as a single shared vertex: every participant's
entering edge terminates there and every participant's next task departs
from it, which (through LP equation 4) forces post-collective tasks to
start simultaneously — the synchronization semantics of an MPI collective.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..machine.performance import TaskKernel

__all__ = [
    "VertexKind", "EdgeKind", "Vertex", "TaskEdge", "TaskGraph", "CompiledGraph",
    "GraphLevel",
]


class VertexKind(enum.Enum):
    """Kinds of MPI events a DAG vertex can represent."""

    INIT = "init"
    FINALIZE = "finalize"
    SEND = "send"
    RECV = "recv"
    ISEND = "isend"
    IRECV = "irecv"
    WAIT = "wait"
    COLLECTIVE = "collective"
    PCONTROL = "pcontrol"


class EdgeKind(enum.Enum):
    """DAG edge kinds: configurable computation or fixed-cost message."""

    COMPUTE = "compute"
    MESSAGE = "message"


@dataclass(frozen=True)
class Vertex:
    """One MPI event.  ``rank`` is None for shared collective vertices."""

    id: int
    kind: VertexKind
    rank: int | None = None
    label: str = ""
    iteration: int = -1


@dataclass(frozen=True)
class TaskEdge:
    """A DAG edge: compute task (configurable) or message (fixed duration).

    Compute edges carry the :class:`TaskKernel` describing their work and a
    ``rank`` identifying the socket they execute on; message edges carry a
    fixed ``duration_s``.
    """

    id: int
    src: int
    dst: int
    kind: EdgeKind
    rank: int | None = None
    kernel: TaskKernel | None = None
    duration_s: float = 0.0
    size_bytes: int = 0
    iteration: int = -1
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind is EdgeKind.COMPUTE:
            if self.kernel is None:
                raise ValueError(f"compute edge {self.id} needs a kernel")
            if self.rank is None:
                raise ValueError(f"compute edge {self.id} needs an owning rank")
        else:
            if self.duration_s < 0:
                raise ValueError(
                    f"message edge {self.id} has negative duration {self.duration_s}"
                )

    @property
    def is_compute(self) -> bool:
        return self.kind is EdgeKind.COMPUTE


@dataclass(frozen=True, eq=False)
class GraphLevel:
    """The vertices of one topological level and their in-edges.

    ``edges`` lists each vertex's in-edges in insertion order, vertex
    after vertex; ``offsets[i]`` is where ``vertices[i]``'s run starts,
    ready for ``np.maximum.reduceat``.  ``src`` is ``edges``' source
    vertices.
    """

    vertices: np.ndarray
    edges: np.ndarray
    src: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledGraph:
    """Index arrays of a :class:`TaskGraph`, built once per graph size.

    ``order`` is :meth:`TaskGraph.topological_order`.  A vertex's level
    is the most edges on any path into it (0 for sources); ``levels``
    holds levels 1, 2, ... in order, so every in-edge of a level's
    vertices leaves an earlier level.  ``src`` is each edge's source and
    ``durations`` holds each message edge's duration and 0 on compute
    edges.  ``fin_id`` is the FINALIZE vertex, None unless there is
    exactly one.  The arrays are shared by every caller, so they are
    read-only.
    """

    n_vertices: int
    n_edges: int
    order: np.ndarray
    levels: tuple[GraphLevel, ...]
    src: np.ndarray
    durations: np.ndarray
    fin_id: int | None


class TaskGraph:
    """Mutable DAG container with adjacency indexes.

    Invariants (checked by :meth:`validate`): acyclic; exactly one INIT and
    one FINALIZE vertex; every compute edge's endpoints belong to its rank
    or to shared (collective/INIT/FINALIZE) vertices; edge endpoints exist.
    """

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.vertices: list[Vertex] = []
        self.edges: list[TaskEdge] = []
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._rank_compute: dict[int, list[int]] = {}
        self._compiled: CompiledGraph | None = None

    # ------------------------------------------------------------------
    def add_vertex(
        self,
        kind: VertexKind,
        rank: int | None = None,
        label: str = "",
        iteration: int = -1,
    ) -> Vertex:
        """Append an MPI-event vertex and return it."""
        if rank is not None and not (0 <= rank < self.n_ranks):
            raise ValueError(f"rank {rank} out of range [0, {self.n_ranks})")
        v = Vertex(id=len(self.vertices), kind=kind, rank=rank, label=label,
                   iteration=iteration)
        self.vertices.append(v)
        self._out[v.id] = []
        self._in[v.id] = []
        return v

    def _add_edge(self, edge: TaskEdge) -> TaskEdge:
        for vid in (edge.src, edge.dst):
            if not (0 <= vid < len(self.vertices)):
                raise ValueError(f"edge references unknown vertex {vid}")
        if edge.src == edge.dst:
            raise ValueError(f"self-loop at vertex {edge.src}")
        self.edges.append(edge)
        self._out[edge.src].append(edge.id)
        self._in[edge.dst].append(edge.id)
        if edge.is_compute:
            self._rank_compute.setdefault(edge.rank, []).append(edge.id)
        return edge

    def add_compute(
        self,
        src: int,
        dst: int,
        rank: int,
        kernel: TaskKernel,
        iteration: int = -1,
        label: str = "",
    ) -> TaskEdge:
        """Append a compute-task edge owned by ``rank``."""
        return self._add_edge(
            TaskEdge(
                id=len(self.edges), src=src, dst=dst, kind=EdgeKind.COMPUTE,
                rank=rank, kernel=kernel, iteration=iteration, label=label,
            )
        )

    def add_message(
        self,
        src: int,
        dst: int,
        duration_s: float,
        size_bytes: int = 0,
        iteration: int = -1,
        label: str = "",
    ) -> TaskEdge:
        """Append a fixed-duration message edge."""
        return self._add_edge(
            TaskEdge(
                id=len(self.edges), src=src, dst=dst, kind=EdgeKind.MESSAGE,
                duration_s=duration_s, size_bytes=size_bytes,
                iteration=iteration, label=label,
            )
        )

    # ------------------------------------------------------------------
    def out_edges(self, vertex_id: int) -> list[TaskEdge]:
        return [self.edges[i] for i in self._out[vertex_id]]

    def in_edges(self, vertex_id: int) -> list[TaskEdge]:
        return [self.edges[i] for i in self._in[vertex_id]]

    def compute_edges(self) -> list[TaskEdge]:
        return [e for e in self.edges if e.is_compute]

    def message_edges(self) -> list[TaskEdge]:
        return [e for e in self.edges if not e.is_compute]

    def rank_edges(self, rank: int) -> list[TaskEdge]:
        """Compute edges owned by one rank, in insertion (program) order."""
        return [self.edges[i] for i in self._rank_compute.get(rank, ())]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def find_vertex(self, kind: VertexKind) -> Vertex:
        """The unique vertex of a kind (INIT / FINALIZE)."""
        matches = [v for v in self.vertices if v.kind is kind]
        if len(matches) != 1:
            raise ValueError(f"expected exactly one {kind}, found {len(matches)}")
        return matches[0]

    # ------------------------------------------------------------------
    def compiled(self) -> CompiledGraph:
        """The graph's :class:`CompiledGraph`, rebuilt only after it grew.

        Vertices and edges are only ever appended, so the vertex and edge
        counts identify the graph the cached view was built from.
        Raises ``ValueError`` if the graph has a cycle.
        """
        view = self._compiled
        if view is None or (view.n_vertices, view.n_edges) != (
            len(self.vertices), len(self.edges)
        ):
            view = self._compiled = self._compile()
        return view

    def _compile(self) -> CompiledGraph:
        # Kahn's algorithm from the sorted sources, first in first out,
        # recording each vertex's level on the way.
        indeg = {v.id: len(self._in[v.id]) for v in self.vertices}
        queue = deque(sorted(vid for vid, d in indeg.items() if d == 0))
        level = [0] * len(self.vertices)
        order: list[int] = []
        while queue:
            vid = queue.popleft()
            order.append(vid)
            for eid in self._out[vid]:
                dst = self.edges[eid].dst
                level[dst] = max(level[dst], level[vid] + 1)
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    queue.append(dst)
        if len(order) != len(self.vertices):
            raise ValueError("task graph contains a cycle")

        src = np.array([e.src for e in self.edges], dtype=np.int64)
        by_level: list[list[int]] = [[] for _ in range(max(level, default=0) + 1)]
        for vid in order:
            by_level[level[vid]].append(vid)
        levels = []
        for verts in by_level[1:]:
            runs = [self._in[vid] for vid in verts]
            edges = np.array([eid for run in runs for eid in run], dtype=np.int64)
            widths = np.array([len(run) for run in runs], dtype=np.int64)
            levels.append(GraphLevel(
                vertices=np.array(verts, dtype=np.int64),
                edges=edges,
                src=src[edges],
                offsets=np.concatenate([[0], np.cumsum(widths[:-1])]),
            ))
        finals = [v.id for v in self.vertices if v.kind is VertexKind.FINALIZE]
        view = CompiledGraph(
            n_vertices=len(self.vertices),
            n_edges=len(self.edges),
            order=np.array(order, dtype=np.int64),
            levels=tuple(levels),
            src=src,
            durations=np.array(
                [0.0 if e.is_compute else e.duration_s for e in self.edges],
                dtype=float,
            ),
            fin_id=finals[0] if len(finals) == 1 else None,
        )
        arrays = [view.order, view.src, view.durations]
        for level in view.levels:
            arrays += [level.vertices, level.edges, level.src, level.offsets]
        for a in arrays:
            a.setflags(write=False)
        return view

    def topological_order(self) -> list[int]:
        """Kahn's algorithm from the sorted sources; raises if the graph
        has a cycle."""
        return self.compiled().order.tolist()

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        self.find_vertex(VertexKind.INIT)
        self.find_vertex(VertexKind.FINALIZE)
        self.topological_order()  # acyclicity
        for e in self.compute_edges():
            for vid in (e.src, e.dst):
                v = self.vertices[vid]
                if v.rank is not None and v.rank != e.rank:
                    raise ValueError(
                        f"compute edge {e.id} (rank {e.rank}) touches vertex "
                        f"{vid} of rank {v.rank}"
                    )

    def describe(self) -> str:
        """One-line human-readable summary."""
        nc = len(self.compute_edges())
        nm = len(self.message_edges())
        return (
            f"TaskGraph(ranks={self.n_ranks}, vertices={self.n_vertices}, "
            f"compute={nc}, messages={nm})"
        )
