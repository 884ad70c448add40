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
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .configuration import ConfigPoint, Configuration

__all__ = [
    "pareto_frontier",
    "pareto_indices",
    "convex_frontier",
    "lower_hull",
    "lower_hull_indices",
]


def pareto_indices(
    powers: np.ndarray, durations: np.ndarray, configs: Sequence[Configuration]
) -> list[int]:
    """Indices of the Pareto-efficient points, by increasing power.

    Ordering by (power, duration), a point is efficient iff its duration
    is strictly below every duration before it.  Points tying exactly on
    (power, duration) collapse to the one with the smallest configuration,
    so the representative does not depend on input order — the scatter of
    a heterogeneous node mixes points from several devices.
    """
    n = len(powers)
    if n == 0:
        return []
    order = np.lexsort((durations, powers))
    p, d = powers[order], durations[order]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = d[1:] < np.minimum.accumulate(d)[:-1]
    kept = order[keep].tolist()
    tied = (p[1:] == p[:-1]) & (d[1:] == d[:-1])
    if not tied.any():
        return kept
    # A tie group is contiguous in sorted order and can only be kept
    # through its first member; swap in the group's smallest configuration.
    order, tied = order.tolist(), tied.tolist()
    for slot, k in enumerate(np.flatnonzero(keep).tolist()):
        end = k
        while end < n - 1 and tied[end]:
            end += 1
        if end > k:
            kept[slot] = min(order[k : end + 1], key=lambda i: configs[i])
    return kept


def pareto_frontier(points: list[ConfigPoint]) -> list[ConfigPoint]:
    """Pareto-efficient subset, sorted by increasing power (decreasing time).

    A point is kept iff no other point has both lower-or-equal power and
    lower-or-equal duration (with at least one strict).  Duplicate
    (power, duration) pairs collapse to one representative, the one with
    the smallest configuration.
    """
    n = len(points)
    powers = np.fromiter((p.power_w for p in points), dtype=float, count=n)
    durations = np.fromiter((p.duration_s for p in points), dtype=float, count=n)
    configs = [p.config for p in points]
    return [points[i] for i in pareto_indices(powers, durations, configs)]


def lower_hull_indices(
    powers: Sequence[float], durations: Sequence[float]
) -> list[int]:
    """Positions of the lower convex hull of a frontier sorted by power.

    Monotone chain on (power, duration), popping a point while it lies on
    or above the chord from the point before it to the next one.  Pass
    Python floats: the turn test is then the scalar arithmetic exactly.
    """
    p, d = powers, durations
    hull: list[int] = []
    for c in range(len(p)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (p[b] - p[a]) * (d[c] - d[a]) - (d[b] - d[a]) * (p[c] - p[a]) > 0.0:
                break
            hull.pop()
        hull.append(c)
    return hull


def lower_hull(frontier: list[ConfigPoint]) -> list[ConfigPoint]:
    """Lower convex hull of a Pareto frontier already sorted by power."""
    powers, durations = [p.power_w for p in frontier], [p.duration_s for p in frontier]
    return [frontier[i] for i in lower_hull_indices(powers, durations)]


def convex_frontier(points: list[ConfigPoint]) -> list[ConfigPoint]:
    """Lower convex hull of the Pareto frontier, sorted by increasing power.

    The result is convex and strictly decreasing in duration as power
    increases, so the LP's convex mixtures are always Pareto-efficient.
    """
    return lower_hull(pareto_frontier(points))
