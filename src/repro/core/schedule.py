"""Schedule objects: the output of the LP/ILP formulations.

A :class:`PowerSchedule` assigns every compute task a configuration —
either a convex *mixture* of two adjacent convex-frontier points (the
continuous LP's mid-task-switching interpretation) or a single discrete
configuration (after rounding, or from the discrete/flow formulations) —
together with the scheduled vertex times and the formulation's makespan
bound.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..machine.configuration import ConfigPoint, Configuration
from ..simulator.program import TaskRef

__all__ = ["TaskAssignment", "TaskArrays", "PowerSchedule"]


@dataclass(frozen=True)
class TaskAssignment:
    """One task's scheduled operating point.

    ``mixture`` lists (frontier point, fraction) pairs with fractions
    summing to 1; a discrete assignment is a single pair with fraction 1.
    ``duration_s`` and ``power_w`` are the mixture-weighted expectations
    (LP equations 7-8).
    """

    ref: TaskRef
    edge_id: int
    mixture: tuple[tuple[ConfigPoint, float], ...]
    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if not self.mixture:
            raise ValueError(f"task {self.ref}: empty mixture")
        total = sum(f for _, f in self.mixture)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"task {self.ref}: fractions sum to {total}")

    @property
    def dominant(self) -> ConfigPoint:
        """The highest-fraction frontier point (ties -> lower power)."""
        return max(self.mixture, key=lambda cf: (cf[1], -cf[0].power_w))[0]

    @property
    def is_discrete(self) -> bool:
        return len(self.mixture) == 1

    @property
    def configuration(self) -> Configuration:
        """The assigned configuration (dominant point for mixtures)."""
        return self.dominant.config


@dataclass(frozen=True, eq=False)
class TaskArrays:
    """A schedule's tasks as columns, in assignment order.

    Task ``t`` is ``refs[t]`` on edge ``edge_ids[t]``, with
    mixture-weighted ``durations[t]`` and ``powers[t]``.  Its mixture is
    the slice ``mix_ptr[t]:mix_ptr[t+1]`` of ``mix_index`` (positions in
    the shared point ``pool``) and of ``mix_fracs`` (their fractions).
    Construction checks what :class:`TaskAssignment` checks: every
    mixture is non-empty and its fractions sum to 1.
    """

    refs: tuple[TaskRef, ...]
    edge_ids: np.ndarray
    durations: np.ndarray
    powers: np.ndarray
    mix_ptr: np.ndarray
    mix_index: np.ndarray
    mix_fracs: np.ndarray
    pool: Sequence[ConfigPoint]

    def __post_init__(self) -> None:
        empty = np.flatnonzero(np.diff(self.mix_ptr) == 0)
        if len(empty):
            raise ValueError(f"task {self.refs[empty[0]]}: empty mixture")
        if not self.refs:
            return
        totals = np.add.reduceat(self.mix_fracs, self.mix_ptr[:-1])
        off = np.flatnonzero(np.abs(totals - 1.0) > 1e-6)
        if len(off):
            t = off[0]
            raise ValueError(f"task {self.refs[t]}: fractions sum to {totals[t]}")

    @classmethod
    def from_assignments(cls, assignments: Mapping[TaskRef, TaskAssignment]):
        """The columns of an assignment dictionary, in its order."""
        tasks = list(assignments.values())
        pool = [p for a in tasks for p, _ in a.mixture]
        return cls(
            refs=tuple(assignments),
            edge_ids=np.array([a.edge_id for a in tasks], dtype=np.int64),
            durations=np.array([a.duration_s for a in tasks], dtype=float),
            powers=np.array([a.power_w for a in tasks], dtype=float),
            mix_ptr=np.concatenate(
                [[0], np.cumsum([len(a.mixture) for a in tasks], dtype=np.int64)]
            ),
            mix_index=np.arange(len(pool)),
            mix_fracs=np.array(
                [f for a in tasks for _, f in a.mixture], dtype=float
            ),
            pool=pool,
        )

    def assignments(self) -> dict[TaskRef, TaskAssignment]:
        """One :class:`TaskAssignment` per task, in order."""
        ptr = self.mix_ptr.tolist()
        fracs = self.mix_fracs.tolist()
        points = [self.pool[k] for k in self.mix_index.tolist()]
        edge_ids = self.edge_ids.tolist()
        durations = self.durations.tolist()
        powers = self.powers.tolist()
        return {
            ref: TaskAssignment(
                ref=ref,
                edge_id=edge_ids[t],
                mixture=tuple(
                    zip(points[ptr[t]:ptr[t + 1]], fracs[ptr[t]:ptr[t + 1]])
                ),
                duration_s=durations[t],
                power_w=powers[t],
            )
            for t, ref in enumerate(self.refs)
        }

    def dominant(self) -> np.ndarray:
        """Per task, the pool position of its :attr:`TaskAssignment.dominant`
        point: the highest fraction, then the lower power, then the first."""
        n, ptr = len(self.refs), self.mix_ptr
        if len(self.mix_fracs) == n:  # one point per task
            return self.mix_index
        starts, widths = ptr[:-1], np.diff(ptr)
        fracs = self.mix_fracs
        powers = np.array([self.pool[k].power_w for k in self.mix_index.tolist()])
        best = fracs == np.repeat(np.maximum.reduceat(fracs, starts), widths)
        low = np.minimum.reduceat(np.where(best, powers, np.inf), starts)
        best &= powers == np.repeat(low, widths)
        first = np.where(best, np.arange(len(fracs)), len(fracs))
        return self.mix_index[np.minimum.reduceat(first, starts)]


class PowerSchedule:
    """A complete schedule for one application under one power cap.

    Its tasks are held as :class:`TaskArrays` (``tasks``); ``assignments``
    is the same schedule as one :class:`TaskAssignment` per task.  Either
    form is built from the other on first access.
    """

    def __init__(
        self,
        kind: str,
        cap_w: float,
        objective_s: float,
        assignments: dict[TaskRef, TaskAssignment] | None,
        vertex_times: np.ndarray,
        solver_info: dict | None = None,
        *,
        tasks: TaskArrays | None = None,
    ) -> None:
        if kind not in ("continuous", "discrete"):
            raise ValueError(f"kind must be continuous/discrete, got {kind!r}")
        if cap_w <= 0:
            raise ValueError(f"cap must be positive, got {cap_w}")
        if objective_s < 0:
            raise ValueError(f"objective must be >= 0, got {objective_s}")
        if (assignments is None) == (tasks is None):
            raise TypeError("a schedule needs exactly one of assignments, tasks")
        self.kind = kind
        self.cap_w = cap_w
        self.objective_s = objective_s
        self.vertex_times = vertex_times
        self.solver_info = {} if solver_info is None else solver_info
        self._assignments = assignments
        self._tasks = tasks

    @property
    def assignments(self) -> dict[TaskRef, TaskAssignment]:
        """One :class:`TaskAssignment` per task, in task order."""
        if self._assignments is None:
            self._assignments = self._tasks.assignments()
        return self._assignments

    @property
    def tasks(self) -> TaskArrays:
        """The tasks as :class:`TaskArrays`, in assignment order."""
        if self._tasks is None:
            self._tasks = TaskArrays.from_assignments(self._assignments)
        return self._tasks

    def config_map(self) -> dict[TaskRef, Configuration]:
        """Per-task configurations for the simulator's replay policy."""
        t = self.tasks
        pool = t.pool
        return dict(
            zip(t.refs, [pool[k].config for k in t.dominant().tolist()])
        )

    def total_average_power(self) -> float:
        """Duration-weighted mean of task powers (reporting aid)."""
        t = self.tasks
        num = sum((t.powers * t.durations).tolist())
        den = sum(t.durations.tolist())
        return num / den if den > 0 else 0.0

    def total_energy_j(self) -> float:
        """Total scheduled task energy: sum of duration x power per task.

        The quantity the energy LP minimizes; computed identically for
        every formulation so schedules are comparable on the energy axis.
        """
        t = self.tasks
        return float(sum((t.durations * t.powers).tolist()))

    def task_powers(self) -> dict[TaskRef, float]:
        t = self.tasks
        return dict(zip(t.refs, t.powers.tolist()))

    def task_durations(self) -> dict[TaskRef, float]:
        t = self.tasks
        return dict(zip(t.refs, t.durations.tolist()))

    def describe(self) -> str:
        """One-line human-readable summary."""
        n = len(self._tasks.refs if self._assignments is None else self._assignments)
        return (
            f"PowerSchedule({self.kind}, cap={self.cap_w:.0f}W, "
            f"T={self.objective_s:.4f}s, {n} tasks)"
        )
