"""Tracing library: MPI programs → application DAG + per-task profiles.

The paper obtains its DAG from a PMPI-based tracing library and its
per-task configuration measurements from Conductor's exploration phase.
In simulation both collapse into a static translation: the DAG structure
depends only on the op lists (messages match FIFO per channel exactly as
the engine matches them), and "measuring" a task in a configuration means
evaluating the machine models on the task's kernel and owning socket —
optionally with multiplicative measurement noise to exercise the
noise-robustness of downstream consumers.

The result, :class:`Trace`, carries everything the LP/ILP formulations
need: the graph, per-compute-edge Pareto and convex frontiers, and the
TaskRef <-> edge-id correspondence used to replay LP schedules against the
original program.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from ..dag.builder import DagBuilder
from ..dag.graph import TaskGraph, VertexKind
from ..obs.metrics import timed
from ..machine.configuration import ConfigPoint
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierProfile, FrontierStore, NodeFrontierStore
from ..machine.performance import rank_kernel_arrays
from ..machine.power import SocketPowerModel
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

__all__ = ["Trace", "trace_application", "build_dag"]


class _LazyPareto(Mapping):
    """Edge id -> Pareto list, built by the edge's profile on first access."""

    def __init__(self, profiles: dict[int, FrontierProfile]) -> None:
        self._profiles = profiles

    def __getitem__(self, edge_id: int) -> list[ConfigPoint]:
        return self._profiles[edge_id].pareto

    def __iter__(self) -> Iterator[int]:
        return iter(self._profiles)

    def __len__(self) -> int:
        return len(self._profiles)


@dataclass
class Trace:
    """A traced application: DAG plus per-task measurement data.

    Every rank must own at least one compute task: the LP charges each
    slack interval's power to the task before it, so a rank without one
    would drop out of the power constraint.  Construction raises
    ``ValueError`` naming such ranks.
    """

    app: Application
    graph: TaskGraph
    task_edges: dict[TaskRef, int]
    edge_refs: dict[int, TaskRef]
    pareto: Mapping[int, list[ConfigPoint]] = field(default_factory=dict)
    frontiers: dict[int, list[ConfigPoint]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        working = {ref.rank for ref in self.task_edges}
        idle = [r for r in range(self.app.n_ranks) if r not in working]
        if idle:
            raise ValueError(f"ranks with no compute tasks: {idle}")

    def frontier_for(self, ref: TaskRef) -> list[ConfigPoint]:
        return self.frontiers[self.task_edges[ref]]

    @property
    def uses_devices(self) -> bool:
        """True when any frontier point is device-qualified.

        Traces from heterogeneous nodes carry per-device configurations;
        consumers that assume the homogeneous CPU time model (the default
        initial schedule, the batch evaluators) check this and switch to
        frontier-driven paths.  The convex frontiers are read: a node never
        mixes the legacy untagged device with tagged ones, so they answer
        as the Pareto sets would, without building those.
        """
        return any(
            p.config.device for points in self.frontiers.values() for p in points
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Trace({self.app.name}: {self.graph.describe()}, "
            f"{len(self.task_edges)} profiled tasks)"
        )


def build_dag(app: Application, network: NetworkModel = IB_QDR) -> tuple[
    TaskGraph, dict[TaskRef, int]
]:
    """Statically translate an application into its task graph.

    Mirrors the engine's semantics: eager sends, FIFO channel matching,
    shared collective vertices.  Uses the same blocked-rank scan loop so
    that wait/recv matching order is identical to execution order.
    """
    app.validate()
    n = app.n_ranks
    b = DagBuilder(n)
    ptr = [0] * n
    # Channels carry (send_vertex_id, size_bytes) in FIFO order.
    channels: dict[tuple[int, int, int], deque[tuple[int, int]]] = {}
    requests: list[dict[int, tuple]] = [dict() for _ in range(n)]
    waiting_collective = [False] * n

    def advance(rank: int) -> bool:
        if waiting_collective[rank] or ptr[rank] >= len(app.programs[rank]):
            return False
        op = app.programs[rank][ptr[rank]]

        if isinstance(op, ComputeOp):
            b.compute(rank, op.kernel, iteration=op.iteration, label=op.label)
            ptr[rank] += 1
            return True

        if isinstance(op, (SendOp, IsendOp)):
            kind = VertexKind.SEND if isinstance(op, SendOp) else VertexKind.ISEND
            v = b.event(rank, kind, label=f"{kind.value}->{op.dst}",
                        iteration=op.iteration)
            channels.setdefault((rank, op.dst, op.tag), deque()).append(
                (v, op.size_bytes)
            )
            if isinstance(op, IsendOp):
                requests[rank][op.request] = ("send",)
            ptr[rank] += 1
            return True

        if isinstance(op, IrecvOp):
            requests[rank][op.request] = ("recv", op.src, op.tag)
            ptr[rank] += 1
            return True

        if isinstance(op, RecvOp):
            q = channels.get((op.src, rank, op.tag))
            if not q:
                return False
            sv, size = q.popleft()
            rv = b.event(rank, VertexKind.RECV, label=f"recv<-{op.src}",
                         iteration=op.iteration)
            b.graph.add_message(sv, rv, network.message_time(size), size,
                                iteration=op.iteration)
            ptr[rank] += 1
            return True

        if isinstance(op, WaitOp):
            req = requests[rank].get(op.request)
            if req is None:
                raise RuntimeError(f"rank {rank}: wait on unposted {op.request}")
            if req[0] == "send":
                b.event(rank, VertexKind.WAIT, label="wait-send",
                        iteration=op.iteration)
            else:
                _, src, tag = req
                q = channels.get((src, rank, tag))
                if not q:
                    return False
                sv, size = q.popleft()
                wv = b.event(rank, VertexKind.WAIT, label=f"wait<-{src}",
                             iteration=op.iteration)
                b.graph.add_message(sv, wv, network.message_time(size), size,
                                    iteration=op.iteration)
            del requests[rank][op.request]
            ptr[rank] += 1
            return True

        if isinstance(op, (CollectiveOp, PcontrolOp)):
            waiting_collective[rank] = True
            return False

        raise TypeError(f"unknown op {op!r}")

    def resolve_collective() -> bool:
        if not all(waiting_collective):
            return False
        ops = [app.programs[r][ptr[r]] for r in range(n)]
        first = ops[0]
        if isinstance(first, PcontrolOp):
            b.pcontrol(first.iteration)
        else:
            size = max(o.size_bytes for o in ops if isinstance(o, CollectiveOp))
            b.collective(
                label=first.kind,
                duration_s=network.collective_time(first.kind, n, size),
                iteration=first.iteration,
            )
        for r in range(n):
            waiting_collective[r] = False
            ptr[r] += 1
        return True

    progress = True
    while progress:
        progress = False
        for rank in range(n):
            while advance(rank):
                progress = True
        if resolve_collective():
            progress = True

    stuck = [r for r in range(n) if ptr[r] < len(app.programs[r])]
    if stuck:
        raise RuntimeError(f"deadlock while tracing: ranks {stuck}")

    graph = b.finalize()

    # Correlate compute edges back to TaskRefs: edges were appended in each
    # rank's program order, so the k-th compute edge of a rank is task k.
    task_edges: dict[TaskRef, int] = {}
    for rank in range(n):
        for seq, edge in enumerate(graph.rank_edges(rank)):
            task_edges[TaskRef(rank, seq)] = edge.id
    return graph, task_edges


def trace_application(
    app: Application,
    power_models: list[SocketPowerModel],
    network: NetworkModel = IB_QDR,
    spec: CpuSpec = XEON_E5_2670,
    measurement_noise: float = 0.0,
    seed: int = 0,
    frontier_store: FrontierStore | NodeFrontierStore | None = None,
) -> Trace:
    """Trace an application and profile every task across all configurations.

    ``measurement_noise`` perturbs every measured (duration, power) by a
    multiplicative lognormal factor — real exploration measures a noisy
    system.  Identical (kernel, socket) pairs share a cached profile; noise
    is applied per (kernel, socket), matching an exploration pass that
    profiles each distinct task shape once.

    ``frontier_store`` shares profiles with other consumers on the same
    machine (runtime policies, other traces); when given it takes
    precedence over ``measurement_noise``/``seed``, which configure the
    internally created store.
    """
    with timed("phase.trace"):
        return _trace_application(
            app, power_models, network, spec, measurement_noise, seed,
            frontier_store,
        )


def _trace_application(
    app: Application,
    power_models: list[SocketPowerModel],
    network: NetworkModel,
    spec: CpuSpec,
    measurement_noise: float,
    seed: int,
    frontier_store: FrontierStore | NodeFrontierStore | None = None,
) -> Trace:
    if len(power_models) != app.n_ranks:
        raise ValueError(
            f"need {app.n_ranks} power models, got {len(power_models)}"
        )
    # Per-rank power models: heterogeneous machines profile correctly.
    store = (
        frontier_store
        if frontier_store is not None
        else FrontierStore(
            power_models,
            measurement_noise=measurement_noise,
            rng=np.random.default_rng(seed),
        )
    )
    graph, task_edges = build_dag(app, network)

    # One batched pass profiles every task; the per-edge lookups below hit.
    store.profile_table(rank_kernel_arrays(app))
    profiles = {
        edge_id: store.profile(ref.rank, graph.edges[edge_id].kernel)
        for ref, edge_id in task_edges.items()
    }
    edge_refs = {eid: ref for ref, eid in task_edges.items()}
    return Trace(
        app=app,
        graph=graph,
        task_edges=task_edges,
        edge_refs=edge_refs,
        pareto=_LazyPareto(profiles),
        frontiers={edge_id: prof.convex for edge_id, prof in profiles.items()},
    )
