"""Scalar frontier reductions: the oracles for the batched ones.

These are the per-scatter loops the store ran before it reduced whole
applications in one array pass (:func:`repro.machine.frontier_rows`).
Every batched result must equal theirs exactly.
"""

import numpy as np

from repro.machine import TaskSpace


def pareto_indices(powers, durations, configs):
    """Indices of the Pareto-efficient points, by increasing power.

    Ordering by (power, duration), a point is efficient iff its duration
    is strictly below every duration before it.  Points tying exactly on
    (power, duration) collapse to the one with the smallest configuration.
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


def lower_hull_indices(powers, durations):
    """Positions of the lower convex hull of a frontier sorted by power.

    Monotone chain on (power, duration) over Python floats, popping a
    point while it lies on or above the chord from the point before it to
    the next one.
    """
    p, d = powers, durations
    hull = []
    for c in range(len(p)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (p[b] - p[a]) * (d[c] - d[a]) - (d[b] - d[a]) * (p[c] - p[a]) > 0.0:
                break
            hull.pop()
        hull.append(c)
    return hull


def reduce_space(space, sigma=0.0, rng=None):
    """One scatter perturbed (when ``sigma > 0``: one lognormal draw pair
    per point, in point order) and reduced by the scalar loops.

    Returns ``(space, pareto_idx, hull_idx)``.
    """
    durations, powers = space.durations, space.powers
    if sigma > 0:
        draws = rng.lognormal(0.0, sigma, size=(len(space.configs), 2))
        durations = durations * draws[:, 0]
        powers = powers * draws[:, 1]
        space = TaskSpace(space.configs, durations, powers)
    pareto = np.array(pareto_indices(powers, durations, space.configs), dtype=np.intp)
    p, d = powers[pareto].tolist(), durations[pareto].tolist()
    hull = pareto[lower_hull_indices(p, d)]
    return space, pareto, hull
