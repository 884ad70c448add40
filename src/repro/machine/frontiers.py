"""Shared frontier store: one profile cache per machine.

Profiling a task — evaluating the machine models at every configuration
and reducing the scatter to Pareto/convex frontiers — is a pure function
of (kernel, socket power model).  :class:`FrontierStore` is the one
shared cache of it: build it once per machine (per list of per-rank
power models) and hand it to every consumer — the tracer, the
exploration tracer, Conductor, Adagio, selection-only and the
exploration planner — so a kernel profiled by the tracer is never
re-measured by a runtime policy running on the same machine.

:meth:`FrontierStore.profile_table` profiles a whole application: every
kernel not yet in the store is measured and reduced in one batched array
pass, and the result is indexed by task position, ``table[rank][seq]``.
:meth:`FrontierStore.profile` is the one-kernel case.

Measurement noise is supported for the tracing path: perturbations are
drawn per (kernel, socket) on first touch, in call order, from the rng
the caller provides — matching an exploration pass that profiles each
distinct task shape once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configuration import ConfigPoint, Configuration, TaskSpace, task_spaces
from .pareto import frontier_rows, lower_hull, pareto_frontier
from .performance import KernelArrays, TaskKernel
from .power import SocketPowerModel

__all__ = ["FrontierProfile", "FrontierStore"]


@dataclass(frozen=True, eq=False)
class FrontierProfile:
    """One task shape's measured configuration space and its reductions.

    The hull's powers, durations and configurations are plain lists, read
    by the runtimes without building points; ``convex``, ``points`` and
    ``pareto`` are built on first access and cached.
    """

    space: TaskSpace  #: the scatter: configs, measured durations and powers
    pareto_idx: np.ndarray  #: positions in ``space`` of the Pareto set, by power
    hull_idx: np.ndarray  #: positions in ``space`` of the lower convex hull
    hull_powers: list[float]  #: hull powers, increasing
    hull_durations: list[float]  #: hull durations, decreasing
    hull_configs: list[Configuration]  #: hull configurations

    @cached_property
    def convex(self) -> list[ConfigPoint]:
        """The lower convex hull (the LP's C_i) as points."""
        return self.space.points(self.hull_idx)

    @cached_property
    def points(self) -> list[ConfigPoint]:
        """The full configuration scatter (Figure 1, Table 1)."""
        return self.space.points()

    @cached_property
    def pareto(self) -> list[ConfigPoint]:
        """The Pareto-efficient subset (the discrete MILP's set)."""
        return self.space.points(self.pareto_idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrontierProfile):
            return NotImplemented
        a, b = self, other
        mine = (a.space.durations, a.space.powers, a.pareto_idx, a.hull_idx)
        theirs = (b.space.durations, b.space.powers, b.pareto_idx, b.hull_idx)
        return a.space.configs == b.space.configs and all(
            map(np.array_equal, mine, theirs)
        )


def _reduce(
    configs: tuple[Configuration, ...], durations: np.ndarray, powers: np.ndarray
) -> list[FrontierProfile]:
    """Reduce K measured rows sharing ``configs`` to their profiles."""
    if not ((durations > 0).all() and (powers > 0).all()):
        bad = int(np.flatnonzero(~((durations > 0) & (powers > 0)).all(axis=-1))[0])
        # The scalar constructor names the first non-positive measurement.
        TaskSpace(configs, durations[bad], powers[bad]).points()
    pareto, n_pareto, hull, n_hull = frontier_rows(powers, durations, configs)
    # Gather every row's hull in one flat pass: only the valid entries
    # become Python objects.
    hull = hull[:, : n_hull.max()]
    valid = np.arange(hull.shape[1]) < n_hull[:, None]
    cols = hull[valid].tolist()
    hull_p = np.take_along_axis(powers, hull, axis=-1)[valid].tolist()
    hull_d = np.take_along_axis(durations, hull, axis=-1)[valid].tolist()
    profiles, start = [], 0
    for row, (np_, nh) in enumerate(zip(n_pareto.tolist(), n_hull.tolist())):
        end = start + nh
        profiles.append(FrontierProfile(
            TaskSpace(configs, durations[row], powers[row]),
            pareto[row, :np_],
            hull[row, :nh],
            hull_p[start:end],
            hull_d[start:end],
            [configs[k] for k in cols[start:end]],
        ))
        start = end
    return profiles


class FrontierStore:
    """Memoized per-(kernel, power model) configuration profiles.

    Parameters
    ----------
    power_models:
        One :class:`SocketPowerModel` per rank.  Noiseless profiles are
        keyed on the *model* — ranks sharing identical silicon share one
        entry — while noisy profiles stay keyed per rank so the draw
        sequence matches a per-rank profiling pass exactly.
    measurement_noise:
        Multiplicative lognormal sigma applied to every measured
        (duration, power) — 0.0 for the oracle path.
    rng:
        Source of the noise draws; defaults to a fresh seed-0 generator.
        Pass the tracing seed's generator to reproduce traced noise.
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        measurement_noise: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not power_models:
            raise ValueError("need at least one power model")
        if measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")
        self.power_models = list(power_models)
        self.measurement_noise = float(measurement_noise)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._profiles: dict[tuple[TaskKernel, int], FrontierProfile] = {}
        # Each rank's profile slot: the first rank with an equal socket
        # when noiseless, its own when noisy (so noise draws follow a
        # per-rank profiling order).
        first: dict = {}
        self._canon = (
            list(range(len(self.power_models)))
            if self.measurement_noise > 0
            else [
                first.setdefault((pm.spec, pm.params, pm.efficiency), r)
                for r, pm in enumerate(self.power_models)
            ]
        )

    def profile(self, rank: int, kernel: TaskKernel) -> FrontierProfile:
        """The (points, pareto, convex) profile of a kernel on a rank's socket."""
        key = (kernel, self._canon[rank])
        prof = self._profiles.get(key)
        if prof is None:
            self._fill([key])
            prof = self._profiles[key]
        return prof

    def profile_table(
        self, kernel_arrays: list[KernelArrays]
    ) -> list[list[FrontierProfile]]:
        """Profiles of every task of an application, by task position.

        ``kernel_arrays[rank]`` lists the rank's kernels in task-sequence
        order (:func:`~repro.machine.performance.rank_kernel_arrays`); the
        result's ``[rank][seq]`` is the store's ``profile(rank, kernel)``.
        Kernels not yet in the store are measured and reduced in one
        batch; a noisy store draws their noise in the order listed, rank
        by rank, which is the order per-task ``profile`` calls would draw
        it.
        """
        table: list[list] = []
        todo: dict[tuple[TaskKernel, int], list[tuple[int, int]]] = {}
        for rank, ka in enumerate(kernel_arrays):
            slot = self._canon[rank]
            row = [self._profiles.get((k, slot)) for k in ka.kernels]
            for seq, prof in enumerate(row):
                if prof is None:
                    todo.setdefault((ka.kernels[seq], slot), []).append((rank, seq))
            table.append(row)
        if todo:
            self._fill(list(todo))
            for key, places in todo.items():
                prof = self._profiles[key]
                for rank, seq in places:
                    table[rank][seq] = prof
        return table

    def _fill(self, keys: list[tuple[TaskKernel, int]]) -> None:
        """Measure, perturb (in ``keys`` order) and reduce the profiles
        of ``keys``, all rows sharing a configuration grid in one pass."""
        groups = self._measure(keys)
        if self.measurement_noise > 0:
            rows: list = [None] * len(keys)
            for configs, idx, d, p in groups:
                for r, i in enumerate(idx):
                    rows[i] = (len(configs), d[r], p[r])
            for n, d, p in rows:
                # One lognormal (duration, power) draw pair per point, in
                # point order: a per-point profiling pass's sequence.
                draws = self._rng.lognormal(0.0, self.measurement_noise, (n, 2))
                d *= draws[:, 0]
                p *= draws[:, 1]
        for configs, idx, d, p in groups:
            for i, prof in zip(idx, _reduce(configs, d, p)):
                self._profiles[keys[i]] = prof

    def _measure(self, keys: list[tuple[TaskKernel, int]]) -> list:
        """(configs, key positions, durations, powers) per socket family:
        sockets differing only in efficiency share one pass."""
        families: dict = {}
        for i, (_, slot) in enumerate(keys):
            pm = self.power_models[slot]
            families.setdefault((pm.spec, pm.params), []).append(i)
        groups = []
        for idx in families.values():
            slots = [keys[i][1] for i in idx]
            configs, d, p = task_spaces(
                KernelArrays.of([keys[i][0] for i in idx]),
                self.power_models[slots[0]],
                efficiency=[self.power_models[s].efficiency for s in slots],
            )
            groups.append((configs, idx, d, p))
        return groups

    def convex(self, rank: int, kernel: TaskKernel) -> list[ConfigPoint]:
        return self.profile(rank, kernel).convex

    @staticmethod
    def reduce(
        points: list[ConfigPoint],
    ) -> tuple[list[ConfigPoint], list[ConfigPoint]]:
        """(pareto, convex) frontiers of an arbitrary observation set.

        The shared reduction for measurement-based paths that assemble
        their own point sets (partial exploration, executed-run traces).
        """
        pareto = pareto_frontier(points)
        return pareto, lower_hull(pareto)

    def __len__(self) -> int:
        return len(self._profiles)


class NodeFrontierStore(FrontierStore):  # named by perfbench's layer table only
    """Name-only stub: ``perfbench/layer_trace.py`` wraps
    ``NodeFrontierStore.profile`` and fails to install on a missing name.
    The ROADMAP's ``[benchmark]`` change drops this stub together with that
    table entry."""

    profile = FrontierStore.profile
