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

Every task is rounded in one call over the trace's
:class:`RoundingTable`, its frontiers padded to one array, built on
first use and kept with the trace.  The tests hold this to the
per-frontier oracle in ``tests/core/rounding_oracles.py``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..dag.analysis import schedule_fixed_durations
from ..machine.configuration import ConfigPoint
from ..simulator.trace import Trace
from .schedule import PowerSchedule, TaskArrays

__all__ = ["RoundingTable", "rounding_table", "round_schedule"]


@dataclass(frozen=True, eq=False)
class RoundingTable:
    """A trace's task frontiers as padded ``[tasks x width]`` arrays.

    ``row_of_edge[e]`` is the row of task edge ``e`` (-1 off the task
    edges): ``lengths[r]`` points at ``powers[r]``/``durations[r]``,
    padded with ``inf``.  ``order``/``ranked`` are each row's stable
    power sort.  Point ``k`` of row ``r`` is ``pool[starts[r] + k]``.
    The arrays are shared by every rounding of the trace, so they are
    read-only.
    """

    row_of_edge: np.ndarray
    lengths: np.ndarray
    powers: np.ndarray
    durations: np.ndarray
    order: np.ndarray
    ranked: np.ndarray
    starts: np.ndarray
    pool: tuple

    @classmethod
    def build(
        cls, frontiers: Mapping[int, Sequence[ConfigPoint]], n_edges: int
    ) -> "RoundingTable":
        """The table of the task edges in ``frontiers``, in its order, on
        a graph of ``n_edges`` edges."""
        edge_ids = list(frontiers)
        fronts = list(frontiers.values())
        lengths = np.array([len(f) for f in fronts], dtype=np.int64)
        width = int(lengths.max(initial=1))
        powers = np.full((len(fronts), width), np.inf)
        durations = np.full((len(fronts), width), np.inf)
        for r, front in enumerate(fronts):
            powers[r, : len(front)] = [p.power_w for p in front]
            durations[r, : len(front)] = [p.duration_s for p in front]
        order = np.argsort(powers, axis=1, kind="stable")
        row_of_edge = np.full(n_edges, -1, dtype=np.int64)
        row_of_edge[edge_ids] = np.arange(len(edge_ids))
        table = cls(
            row_of_edge=row_of_edge,
            lengths=lengths,
            powers=powers,
            durations=durations,
            order=order,
            ranked=np.take_along_axis(powers, order, axis=1),
            starts=np.concatenate([[0], np.cumsum(lengths)[:-1]]),
            pool=tuple(p for front in fronts for p in front),
        )
        for name in ("row_of_edge", "lengths", "powers", "durations",
                     "order", "ranked", "starts"):
            getattr(table, name).setflags(write=False)
        return table

    def rows(self, edge_ids: np.ndarray) -> np.ndarray:
        """The rows of task edges; ``ValueError`` for an edge with an
        empty frontier or that is not a task."""
        rows = self.row_of_edge[edge_ids]
        bad = np.flatnonzero((rows < 0) | (self.lengths[rows] == 0))
        if len(bad):
            edge_id = int(edge_ids[bad[0]])
            if rows[bad[0]] < 0:
                raise ValueError(f"edge {edge_id} is not a traced task")
            raise ValueError(f"task edge {edge_id} has an empty frontier")
        return rows

    def pick(self, rows: np.ndarray, targets: np.ndarray, mode: str) -> np.ndarray:
        """Per row, the position of the rounded point on its frontier.

        ``nearest`` takes the least ``|power - target|``, then the least
        duration; ``floor`` the highest power at or below ``target +
        1e-9``, else the least power.  Remaining ties go to the first
        point in frontier order, as ``min``/``max`` over the point list
        would.
        """
        if mode == "nearest":
            # Rounding can make |power - target| tie between points that
            # are not neighbours in power, so every point's gap is compared.
            gap = np.abs(self.powers[rows] - targets[:, None])
            best = gap == gap.min(axis=1, keepdims=True)
            return np.where(best, self.durations[rows], np.inf).argmin(axis=1)
        ranked = self.ranked[rows]
        n = np.arange(len(rows))
        # Counting a sorted row's entries at or below (under) a value is
        # its searchsorted position from the right (left); the inf
        # padding counts as neither.
        below = (ranked <= (targets + 1e-9)[:, None]).sum(axis=1)
        top = ranked[n, np.maximum(below - 1, 0)]
        return self.order[rows, (ranked < top[:, None]).sum(axis=1)]


def rounding_table(trace: Trace) -> RoundingTable:
    """The trace's :class:`RoundingTable`, built on first use and kept on
    the trace (a trace's frontiers do not change once traced)."""
    table = trace.__dict__.get("_rounding_table")
    if table is None:
        table = trace._rounding_table = RoundingTable.build(
            {e: trace.frontiers[e] for e in trace.task_edges.values()},
            trace.graph.n_edges,
        )
    return table


def round_schedule(
    trace: Trace, schedule: PowerSchedule, mode: str = "nearest"
) -> PowerSchedule:
    """Round a continuous schedule to single configurations and re-time it."""
    if schedule.kind != "continuous":
        raise ValueError("round_schedule expects a continuous schedule")
    tasks = schedule.tasks
    if mode == "dominant":
        pool = tasks.pool
        index = tasks.dominant()
        picked = [pool[k] for k in index.tolist()]
        durations = np.array([p.duration_s for p in picked])
        powers = np.array([p.power_w for p in picked])
    elif mode in ("nearest", "floor"):
        table = rounding_table(trace)
        rows = table.rows(tasks.edge_ids)
        col = table.pick(rows, tasks.powers, mode)
        pool = table.pool
        index = table.starts[rows] + col
        durations = table.durations[rows, col]
        powers = table.powers[rows, col]
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")

    edge_durations = trace.graph.compiled().durations.copy()
    edge_durations[tasks.edge_ids] = durations
    timed = schedule_fixed_durations(trace.graph, edge_durations)
    n = len(tasks.refs)
    return PowerSchedule(
        kind="discrete",
        cap_w=schedule.cap_w,
        objective_s=timed.makespan,
        assignments=None,
        vertex_times=timed.vertex_times,
        solver_info={
            "rounding": mode,
            "continuous_objective_s": schedule.objective_s,
        },
        tasks=TaskArrays(
            refs=tasks.refs,
            edge_ids=tasks.edge_ids,
            durations=durations,
            powers=powers,
            mix_ptr=np.arange(n + 1),
            mix_index=index,
            mix_fracs=np.ones(n),
            pool=pool,
        ),
    )
