"""Pareto and convex frontiers over (power, time) configuration points.

The LP requires, per task, a *convex* Pareto-efficient configuration set:
without convexity a non-convex frontier cannot be represented as a convex
piecewise-linear function, and the formulation would degrade into an ILP
(paper §3.2).  The pipeline is:

1. filter the raw configuration scatter down to the Pareto-efficient set
   (no point may be improved in both time and power simultaneously);
2. take the *lower convex hull* of that set in the (power, time) plane —
   the "Convex Pareto Frontier" drawn through Figure 1.

Any convex combination of two adjacent hull points is then realizable by
switching configuration mid-task (the continuous LP's interpretation), and
rounding to the nearest hull point realizes the discrete case.

:func:`frontier_rows` is the one implementation of both steps.  It
reduces K scatters that share their configuration columns at once — the
frontier table profiles a whole application in one call — and every
other entry point here is its K=1 case.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .configuration import ConfigPoint, Configuration

__all__ = [
    "pareto_frontier",
    "convex_frontier",
    "frontier_rows",
    "lower_hull",
]


def _hull_rows(
    p: np.ndarray, d: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hulls of each row's first ``counts[k]`` points.

    Monotone chain on (power, duration) over all rows at once: column by
    column, every row whose stack tops lie on or above the chord to the
    new point pops, until no row does.  The turn test is the scalar
    expression, evaluated elementwise, so each row's hull is the one a
    per-row loop over Python floats finds.  Returns the stacks (row k's
    hull is ``stack[k, :top[k]]``, positions into the row) and ``top``.
    """
    k, m = p.shape
    stack = np.zeros((k, max(m, 1)), dtype=np.intp)
    top = np.zeros(k, dtype=np.intp)
    for c in range(m):
        live = np.flatnonzero(counts > c)
        rows = live[top[live] >= 2]
        while rows.size:
            t = top[rows]
            a, b = stack[rows, t - 2], stack[rows, t - 1]
            pa, pb, pc = p[rows, a], p[rows, b], p[rows, c]
            da, db, dc = d[rows, a], d[rows, b], d[rows, c]
            turn = (pb - pa) * (dc - da) - (db - da) * (pc - pa)
            rows = rows[~(turn > 0.0)]
            top[rows] -= 1
            rows = rows[top[rows] >= 2]
        stack[live, top[live]] = c
        top[live] += 1
    return stack, top


def frontier_rows(
    powers: np.ndarray, durations: np.ndarray, configs: Sequence[Configuration]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pareto and lower-hull positions of each row of K scatters.

    ``powers`` and ``durations`` are (K, N) arrays whose column ``j`` is
    measured at ``configs[j]``.  Returns ``(pareto, n_pareto, hull,
    n_hull)``: row ``k``'s Pareto-efficient points, by increasing power,
    are the columns ``pareto[k, :n_pareto[k]]``, and its lower convex
    hull (a subsequence) is ``hull[k, :n_hull[k]]``.

    Ordering a row by (power, duration), a point is efficient iff its
    duration is strictly below every duration before it.  Points tying
    exactly on (power, duration) collapse to the one with the smallest
    configuration — the first listed among equal ones — so the
    representative does not depend on column order.
    """
    k, n = powers.shape
    if n == 0:
        empty = np.zeros((k, 1), dtype=np.intp)
        none = np.zeros(k, dtype=np.intp)
        return empty, none, empty, none
    order = np.argsort(powers, axis=-1)
    p = np.take_along_axis(powers, order, axis=-1)
    if (p[:, 1:] == p[:, :-1]).any():
        # Equal powers: order them by duration, and exact (power,
        # duration) ties by configuration.  A tie group can only be kept
        # through its first member, which is then its smallest.
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=configs.__getitem__)] = np.arange(n)
        keys = (np.broadcast_to(rank, powers.shape), durations, powers)
        order = np.lexsort(keys, axis=-1)
        p = np.take_along_axis(powers, order, axis=-1)
    d = np.take_along_axis(durations, order, axis=-1)
    keep = np.empty((k, n), dtype=bool)
    keep[:, 0] = True
    keep[:, 1:] = d[:, 1:] < np.minimum.accumulate(d, axis=-1)[:, :-1]
    n_pareto = keep.sum(axis=-1)
    # Kept columns first, in sorted order.
    first = np.argsort(~keep, axis=-1, kind="stable")[:, : n_pareto.max()]
    pareto = np.take_along_axis(order, first, axis=-1)
    stack, n_hull = _hull_rows(
        np.take_along_axis(p, first, axis=-1),
        np.take_along_axis(d, first, axis=-1),
        n_pareto,
    )
    return pareto, n_pareto, np.take_along_axis(pareto, stack, axis=-1), n_hull


def _arrays(points: list[ConfigPoint]) -> tuple[np.ndarray, np.ndarray]:
    """One-row (powers, durations) arrays of a point list."""
    n = len(points)
    powers = np.fromiter((p.power_w for p in points), dtype=float, count=n)
    durations = np.fromiter((p.duration_s for p in points), dtype=float, count=n)
    return powers[None, :], durations[None, :]


def pareto_frontier(points: list[ConfigPoint]) -> list[ConfigPoint]:
    """Pareto-efficient subset, sorted by increasing power (decreasing time).

    A point is kept iff no other point has both lower-or-equal power and
    lower-or-equal duration (with at least one strict).  Duplicate
    (power, duration) pairs collapse to one representative, the one with
    the smallest configuration.
    """
    pareto, n, _, _ = frontier_rows(*_arrays(points), [p.config for p in points])
    return [points[i] for i in pareto[0, : n[0]].tolist()]


def lower_hull(frontier: list[ConfigPoint]) -> list[ConfigPoint]:
    """Lower convex hull of a Pareto frontier already sorted by power."""
    powers, durations = _arrays(frontier)
    hull, n = _hull_rows(powers, durations, np.array([len(frontier)]))
    return [frontier[i] for i in hull[0, : n[0]].tolist()]


def convex_frontier(points: list[ConfigPoint]) -> list[ConfigPoint]:
    """Lower convex hull of the Pareto frontier, sorted by increasing power.

    The result is convex and strictly decreasing in duration as power
    increases, so the LP's convex mixtures are always Pareto-efficient.
    """
    _, _, hull, n = frontier_rows(*_arrays(points), [p.config for p in points])
    return [points[i] for i in hull[0, : n[0]].tolist()]
