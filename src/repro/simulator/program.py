"""Per-rank MPI programs: the op-level representation of an application.

An :class:`Application` is one op list per rank.  The op vocabulary mirrors
the MPI subset the paper's benchmarks use — computation between calls,
blocking and nonblocking point-to-point, collectives, and ``MPI_Pcontrol``
iteration markers.  Programs are *deterministic*: the DAG the tracer emits
depends only on the op lists, so the same program can be (a) executed by
the discrete-event engine under any power policy and (b) statically
translated into the LP's task graph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Union

from ..machine.performance import TaskKernel

__all__ = [
    "ComputeOp",
    "SendOp",
    "RecvOp",
    "IsendOp",
    "IrecvOp",
    "WaitOp",
    "CollectiveOp",
    "PcontrolOp",
    "Op",
    "RankProgram",
    "Application",
    "TaskRef",
]


@dataclass(frozen=True)
class ComputeOp:
    """Computation between two MPI calls; one DAG task edge."""

    kernel: TaskKernel
    iteration: int = -1
    label: str = ""


@dataclass(frozen=True)
class SendOp:
    """Blocking (eager) send: deposits the message and continues."""

    dst: int
    size_bytes: int
    tag: int = 0
    iteration: int = -1


@dataclass(frozen=True)
class RecvOp:
    """Blocking receive: completes at max(local clock, message arrival)."""

    src: int
    tag: int = 0
    iteration: int = -1


@dataclass(frozen=True)
class IsendOp:
    """Nonblocking send initiation; completion owned by a later WaitOp."""

    dst: int
    size_bytes: int
    request: int
    tag: int = 0
    iteration: int = -1


@dataclass(frozen=True)
class IrecvOp:
    """Nonblocking receive post; message consumed by the matching WaitOp."""

    src: int
    request: int
    tag: int = 0
    iteration: int = -1


@dataclass(frozen=True)
class WaitOp:
    """Completion of a nonblocking request."""

    request: int
    iteration: int = -1


@dataclass(frozen=True)
class CollectiveOp:
    """Synchronizing collective (allreduce/barrier/bcast...).

    ``size_bytes`` drives wire time through the network model's collective
    cost function; participants default to every rank.  All ranks must post
    their collectives in the same order (standard MPI requirement).
    """

    kind: str = "allreduce"
    size_bytes: int = 8
    participants: tuple[int, ...] | None = None
    iteration: int = -1


@dataclass(frozen=True)
class PcontrolOp:
    """Iteration boundary: a zero-byte barrier plus a runtime hook.

    Conductor performs its synchronous power-reallocation decisions here
    (paper §4.2); the tracer uses it to attribute tasks to iterations.
    """

    iteration: int


Op = Union[
    ComputeOp, SendOp, RecvOp, IsendOp, IrecvOp, WaitOp, CollectiveOp, PcontrolOp
]

RankProgram = list


@dataclass(frozen=True)
class TaskRef:
    """Stable identity of one compute task: (rank, per-rank sequence index).

    The engine, the tracer, the LP schedule, and the replay policy all key
    tasks this way, so a schedule derived from a traced DAG can be replayed
    against the original program without any other correlation state.
    """

    rank: int
    seq: int


@dataclass
class Application:
    """A complete multi-rank program plus descriptive metadata."""

    name: str
    programs: list[RankProgram]
    iterations: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.programs:
            raise ValueError("application needs at least one rank program")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def n_ranks(self) -> int:
        return len(self.programs)

    def compute_ops(self, rank: int) -> list[ComputeOp]:
        """A rank's compute ops in program (= task sequence) order."""
        return [op for op in self.programs[rank] if isinstance(op, ComputeOp)]

    def task_kernel(self, ref: TaskRef) -> TaskKernel:
        """The kernel of the task identified by ``ref``."""
        ops = self.compute_ops(ref.rank)
        if not (0 <= ref.seq < len(ops)):
            raise KeyError(f"no task {ref} (rank has {len(ops)} tasks)")
        return ops[ref.seq].kernel

    def tasks_per_iteration(self) -> dict[int, int]:
        """Per rank, the compute tasks it runs in iteration 0 (at least 1).

        The per-iteration task count the slack-reclaiming runtimes key
        their task history by; a rank whose compute ops carry no
        iteration 0 tag counts 1.  The count is kept with a snapshot of
        the op lists, as :meth:`validate` keeps its check, so every
        policy built on the same application reads it back; any later
        change to a program counts again.
        """
        snapshot = tuple(map(tuple, self.programs))
        kept = self.__dict__.get("_tasks_per_iteration")
        if kept is None or kept[0] != snapshot:
            counts = {
                r: max(1, sum(
                    1
                    for op in prog
                    if isinstance(op, ComputeOp) and op.iteration == 0
                ))
                for r, prog in enumerate(self.programs)
            }
            kept = self._tasks_per_iteration = (snapshot, counts)
        return dict(kept[1])

    def n_tasks(self) -> int:
        """Total compute tasks across all ranks."""
        return sum(
            1
            for prog in self.programs
            for op in prog
            if isinstance(op, ComputeOp)
        )

    def validate(self) -> None:
        """Cheap sanity checks: collectives aligned, requests well-formed,
        point-to-point messages matched.

        Every send and receive names a peer in ``[0, n_ranks)``, and each
        ``(src, dst, tag)`` channel carries as many sends as receives: an
        unmatched message is a program MPI would hang on, not one to time.

        A passing check is remembered with a snapshot of the op lists, so
        the engine, the tracer and the workload builders re-validating
        the same application cost one comparison; any later change to a
        program (an op added, removed or replaced by an unequal one)
        makes the next call check again.
        """
        snapshot = tuple(map(tuple, self.programs))
        if snapshot == self.__dict__.get("_validated"):
            return
        coll_counts: dict[int, int] = {}
        sends: list[tuple[int, int, int]] = []  # (src, dst, tag) per message
        recvs: list[tuple[int, int, int]] = []
        for r, prog in enumerate(self.programs):
            pending: set[int] = set()
            n_coll = 0
            for op in prog:
                if isinstance(op, WaitOp):
                    if op.request not in pending:
                        raise ValueError(
                            f"rank {r}: wait on unknown request {op.request}"
                        )
                    pending.discard(op.request)
                    continue
                if isinstance(op, (SendOp, IsendOp)):
                    sends.append((r, op.dst, op.tag))
                elif isinstance(op, (RecvOp, IrecvOp)):
                    recvs.append((op.src, r, op.tag))
                else:
                    n_coll += isinstance(op, (CollectiveOp, PcontrolOp))
                    continue
                if isinstance(op, (IsendOp, IrecvOp)):
                    if op.request in pending:
                        raise ValueError(
                            f"rank {r}: request {op.request} reused before wait"
                        )
                    pending.add(op.request)
            if pending:
                raise ValueError(f"rank {r}: unwaited requests {sorted(pending)}")
            coll_counts[r] = n_coll
        if len(set(coll_counts.values())) > 1:
            raise ValueError(
                f"ranks post different numbers of collectives: {coll_counts}"
            )
        sent, received = Counter(sends), Counter(recvs)
        if sent != received:
            # A channel naming a rank outside the job can only be unmatched.
            n = self.n_ranks
            channels = sorted(sent.keys() | received.keys())
            for src, dst, tag in channels:
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(
                        f"message channel (src={src}, dst={dst}, tag={tag}) "
                        f"names a rank outside [0, {n})"
                    )
            bad = {
                ch: sent[ch] - received[ch]
                for ch in channels
                if sent[ch] != received[ch]
            }
            raise ValueError(
                "unmatched point-to-point messages, (src, dst, tag) -> "
                f"sends minus receives: {bad}"
            )
        self._validated = snapshot
