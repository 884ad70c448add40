"""Conductor: adaptive configuration selection + power reallocation (§4.2).

A reimplementation of the paper's run-time system (Marathe et al., ISC'15)
against the simulator.  Conductor's loop per the paper:

1. **Configuration exploration** — for the first iterations, ranks run
   deliberately heterogeneous configurations in parallel, building each
   task's power/performance profile; these iterations are discarded from
   all comparisons (§5.3 discards three).
2. **Adagio slack reclamation** — non-critical tasks are slowed into their
   measured slack, freeing power without moving the critical path.
3. **Power reallocation** — every ``realloc_period`` Pcontrol intervals
   (paper: 5-10), ranks with measured power headroom donate a bounded step
   of their allocation to the ranks estimated (from *noisy* measurements)
   to carry the critical path.  Each reallocation costs 566 µs, charged at
   the Pcontrol barrier.

With parts switched off the same runtime is the paper's other barrier-
deciding systems: without exploration, noise or reallocation it is §6's
selection-only ablation (:meth:`ConductorPolicy.selection_only`), and
that ablation uncapped is standalone Adagio (:meth:`ConductorPolicy.adagio`).

The two pathologies the paper attributes Conductor's LP gap to are modeled
mechanistically rather than hard-coded: *thrashing* arises from the
bounded-step reallocation reacting to noisy measurements, and *critical-
path misidentification* (SP's regression) arises when load is so balanced
that measurement noise, not load, picks the "critical" rank.

Conductor decides only at Pcontrol barriers: each rank's budget and each
task's slack estimate change there and nowhere else, so between two
barriers every task's configuration follows from a scan of the rank's
tasks that reads no clock.  :class:`ConductorPlanner` therefore plans a
whole interval at a barrier, for every job cap of a sweep at once: its
state carries a cap axis, and one measurement-noise draw per barrier is
shared by every cap.  :class:`ConductorPolicy` is the planner at one cap,
answering the engine task by task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierStore
from ..machine.performance import KernelArrays, TaskKernel, rank_kernel_arrays
from ..machine.power import SocketPowerModel
from ..machine.rapl import RaplController
from ..obs.events import CapExceededEvent, ReallocEvent
from ..obs.recorder import current_recorder, emit, use_recorder
from ..simulator.engine import (
    ConfigPalette,
    Engine,
    SweepRankPlan,
    SweepRunPlan,
    TaskRecord,
    batch_task_durations,
    batch_task_powers,
    switch_rule,
)
from ..simulator.program import Application, ComputeOp, PcontrolOp, TaskRef
from .adagio import FrontierTable, observed_slack, smooth

__all__ = ["ConductorPolicy", "ConductorConfig", "ConductorPlanner"]


@dataclass(frozen=True)
class ConductorConfig:
    """Tunables of the Conductor runtime (paper-derived defaults)."""

    exploration_iterations: int = 3
    #: Pcontrol intervals between reallocations; None never reallocates.
    realloc_period: int | None = 5
    step_w: float = 2.0
    donor_margin_w: float = 0.5
    receiver_fraction: float = 0.125  # top n/8 ranks receive power
    measurement_noise: float = 0.02
    adagio_safety: float = 0.9
    switch_overhead_s: float = 145e-6
    realloc_overhead_s: float = 566e-6
    min_switch_duration_s: float = 1e-3
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.exploration_iterations < 0:
            raise ValueError("exploration_iterations must be >= 0")
        if self.realloc_period is not None and self.realloc_period < 1:
            raise ValueError("realloc_period must be >= 1 or None")
        if self.step_w <= 0:
            raise ValueError("step_w must be positive")
        if not (0 < self.receiver_fraction <= 1):
            raise ValueError("receiver_fraction must be in (0, 1]")
        if self.measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")
        for name in (
            "switch_overhead_s",
            "realloc_overhead_s",
            "min_switch_duration_s",
            "donor_margin_w",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 <= self.adagio_safety <= 1.0):
            raise ValueError(
                f"adagio_safety must be in [0, 1], got {self.adagio_safety}"
            )

    @classmethod
    def selection_only(
        cls,
        adagio_safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
    ) -> "ConductorConfig":
        """Configuration selection alone (the paper's §6 ablation): no
        exploration, noiseless slack measurements, and budgets that never
        move between ranks, so no barrier costs anything."""
        return cls(
            exploration_iterations=0,
            realloc_period=None,
            measurement_noise=0.0,
            realloc_overhead_s=0.0,
            adagio_safety=adagio_safety,
            switch_overhead_s=switch_overhead_s,
            min_switch_duration_s=min_switch_duration_s,
        )


#: Slack estimates follow each observation halfway (Adagio's smoothing).
SLACK_SMOOTHING = 0.5


class _Interval(NamedTuple):
    """The tasks between two Pcontrol barriers, as rows of the planner's
    flat task table: rank by rank, each rank's in sequence order."""

    rows: np.ndarray  # flat task ids
    ranks: np.ndarray  # rank of each row
    first: np.ndarray  # first row of each row's rank
    last: np.ndarray  # rows that end a rank's tasks


class PlannedInterval(NamedTuple):
    """What every task of one interval runs, at every job cap.

    ``configs`` is ``[n_rows, n_caps]``, as ids of the planner's
    :class:`~repro.simulator.engine.ConfigPalette`; ``switches`` marks
    where a task changes its rank's configuration; ``misses`` lists the
    ``(row, cap column, event)`` of every RAPL fallback that still
    overshot its budget, the event a run emits when it starts the task.
    """

    rows: np.ndarray
    ranks: np.ndarray
    configs: np.ndarray
    switches: np.ndarray
    misses: list


def _rowsum(a: np.ndarray) -> np.ndarray:
    """Each row's sum, summed as the row alone would be."""
    return np.ascontiguousarray(a).sum(axis=1)


def _first_fitting(durations, n, budget) -> np.ndarray:
    """Adagio's slack pick for every (task, cap).

    ``durations`` is ``[tasks, hull]`` (padded with +inf), ``n`` and
    ``budget`` are ``[tasks, caps]``: the first of a task's first ``n``
    hull points within the budget (the lowest-power one that fits), else
    the last of them (the fastest).
    """
    within = (durations[:, :, None] <= budget[:, None, :]) & (
        np.arange(durations.shape[1])[None, :, None] < n[:, None, :]
    )
    return np.where(within.any(axis=1), within.argmax(axis=1), n - 1)


class _TaskTables:
    """An application's tasks flattened rank by rank, with their hulls
    and their Pcontrol intervals as arrays.

    Read-only once built, and shared by every planner of the application
    on the same frontier store (see :func:`_task_tables`).
    """

    def __init__(self, app: Application, store: FrontierStore) -> None:
        self.table = FrontierTable(store, app)
        arrays = rank_kernel_arrays(app)
        n = app.n_ranks
        counts = [len(ka.kernels) for ka in arrays]
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.rank = np.repeat(np.arange(n), counts)
        self.seq = np.arange(self.offsets[-1]) - self.offsets[self.rank]
        self.kernel_arrays = KernelArrays.concat(arrays)
        self.kernels = self.kernel_arrays.kernels
        iterations = []
        interval = []  # of each task: the Pcontrol barriers before it
        for prog in app.programs:
            k = 0
            for op in prog:
                if isinstance(op, ComputeOp):
                    iterations.append(op.iteration)
                    interval.append(k)
                elif isinstance(op, PcontrolOp):
                    k += 1
        self.iteration = np.array(iterations, dtype=np.int64)
        tpi = app.tasks_per_iteration()
        per_iteration = np.array([max(1, tpi[r]) for r in range(n)], dtype=np.int64)
        slot_start = np.concatenate([[0], np.cumsum(per_iteration)])
        #: Each task's recurring position (its slack estimate's row).
        self.slot = slot_start[self.rank] + self.seq % per_iteration[self.rank]
        self.n_slots = int(slot_start[-1])

        # Every distinct profile's hull as padded rows, the configurations
        # as ids of one palette (a space's in ``ids[space_start:]``).
        index: dict[int, int] = {}
        profiles = []
        prof_of = []
        for row in self.table.rows():
            for prof in row:
                pid = index.setdefault(id(prof), len(profiles))
                if pid == len(profiles):
                    profiles.append(prof)
                prof_of.append(pid)
        self.prof = np.array(prof_of, dtype=np.int64)
        self.palette = ConfigPalette()
        grids: dict[int, int] = {}  # a space's configurations -> first id
        ids = []
        for prof in profiles:
            grid = prof.space.configs
            if id(grid) not in grids:
                grids[id(grid)] = len(ids)
                ids.extend(self.palette.index(c) for c in grid)
        self.ids = np.array(ids, dtype=np.int64)
        self.profiles = profiles
        self.space_start = np.array(
            [grids[id(p.space.configs)] for p in profiles], dtype=np.int64
        )
        hull = np.array([len(p.hull_powers) for p in profiles], dtype=np.int64)
        in_hull = np.arange(max(hull.max(initial=0), 1)) < hull[:, None]
        self.hull_size = hull
        self.hull_powers = np.full(in_hull.shape, np.inf)
        self.hull_powers[in_hull] = [w for p in profiles for w in p.hull_powers]
        self.hull_durations = np.full(in_hull.shape, np.inf)
        self.hull_durations[in_hull] = [d for p in profiles for d in p.hull_durations]
        self.hull_configs = np.zeros(in_hull.shape, dtype=np.int64)
        if profiles:
            self.hull_configs[in_hull] = self.ids[
                np.repeat(self.space_start, hull)
                + np.concatenate([p.hull_idx for p in profiles])
            ]
        self.top_power = self.hull_powers[
            np.arange(len(profiles)), np.maximum(hull - 1, 0)
        ]
        self.fallback_threads = [
            p.hull_configs[0].threads if p.hull_configs else 1 for p in profiles
        ]

        # The tasks between consecutive barriers, rank by rank.
        interval = np.array(interval, dtype=np.int64)
        order = np.argsort(interval, kind="stable")
        n_intervals = int(interval.max(initial=-1)) + 1
        splits = np.cumsum(np.bincount(interval, minlength=n_intervals))[:-1]
        self.intervals = []
        for rows in np.split(order, splits) if n_intervals else []:
            ranks = self.rank[rows]
            lead = np.ones(len(rows), dtype=bool)
            lead[1:] = ranks[1:] != ranks[:-1]
            first = np.maximum.accumulate(np.where(lead, np.arange(len(rows)), 0))
            ends = np.ones(len(rows), dtype=bool)
            ends[:-1] = lead[1:]
            self.intervals.append(_Interval(rows, ranks, first, np.flatnonzero(ends)))


def _task_tables(app: Application, store: FrontierStore) -> _TaskTables:
    """The application's task tables on ``store``, kept on the
    application with a snapshot of its op lists (as
    :func:`~repro.machine.performance.rank_kernel_arrays` keeps its
    gather), so the planners of a sweep's cells build them once."""
    snapshot = tuple(map(tuple, app.programs))
    kept = app.__dict__.get("_conductor_tables")
    if kept is None or kept[0] != snapshot or kept[1] is not store:
        kept = app._conductor_tables = (snapshot, store, _TaskTables(app, store))
    return kept[2]


class ConductorPlanner:
    """Conductor at every job cap of a sweep, one Pcontrol interval at a time.

    Column ``c`` of everything here is the Conductor built at
    ``job_caps_w[c]``.  :meth:`plan_next` plans the next interval's
    configurations from the current budgets and slack estimates, and
    :meth:`barrier` takes one finished interval's start and duration
    columns, updates the slack estimates and, every ``realloc_period``
    barriers, reallocates power.  :meth:`sweep_plan` drives both from an
    :meth:`~repro.simulator.engine.Engine.run_sweep` walk.
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_caps_w,
        app: Application,
        config: ConductorConfig = ConductorConfig(),
        frontier_store: FrontierStore | None = None,
    ) -> None:
        caps = np.array(job_caps_w, dtype=float)
        if caps.ndim != 1 or not len(caps):
            raise ValueError("need at least one job cap")
        if np.any(caps <= 0):
            raise ValueError(f"job caps must be positive, got {job_caps_w}")
        n = len(power_models)
        self.power_models = power_models
        self.cfg = config
        self.n_ranks = n
        self.job_caps_w = caps
        self.rapl = [RaplController(pm) for pm in power_models]
        self.rng = np.random.default_rng(config.seed)
        #: ``[n_caps, n_ranks]`` power allocations, initially uniform.
        self.alloc_w = np.empty((len(caps), n))
        self.alloc_w[:] = (caps / n)[:, None]
        #: Reallocations so far; None when the config never reallocates.
        self.realloc_count = None if config.realloc_period is None else 0
        self._pcontrol_count = 0

        # The shared frontier store: Conductor's profiling pass measures
        # the same (kernel, power model) spaces as every other consumer,
        # so a store handed in by the harness is a warm cache.
        self.frontiers = (
            frontier_store
            if frontier_store is not None
            else FrontierStore(power_models)
        )
        self._t = _task_tables(app, self.frontiers)
        self.table = self._t.table
        self.offsets = self._t.offsets
        #: Configuration ids: the tables' grid, then RAPL's fallbacks.
        self.palette = self._t.palette.copy()
        self._slack = np.zeros((self._t.n_slots, len(caps)))
        self._seen = np.zeros(self._t.n_slots, dtype=bool)
        # Each rank's configuration at every cap once it has run a task.
        self._current = np.zeros((n, len(caps)), dtype=np.int64)
        self._has_current = np.zeros(n, dtype=bool)
        self._next = 0

    # ------------------------------------------------------------------
    def plan_next(self) -> PlannedInterval | None:
        """Plan the tasks up to the next barrier; None when there are none.

        Per task and cap: during exploration a heterogeneous profiling
        configuration under the rank's budget; then the fastest hull
        point under it, Adagio-slowed into the task's slack, and held at
        the rank's configuration when a switch would not pay (the 1 ms
        rule).  A budget below every candidate falls back to RAPL.
        """
        k = self._next
        self._next += 1
        if k >= len(self._t.intervals) or not len(self._t.intervals[k].rows):
            return None
        iv = self._t.intervals[k]
        rows, ranks = iv.rows, iv.ranks
        seqs = self._t.seq[rows]
        pid = self._t.prof[rows]
        budget = self.alloc_w[:, ranks].T  # [tasks, caps]
        row = np.arange(len(rows))[:, None]

        durations = self._t.hull_durations[pid]
        # Padding is +inf, so it fits an unbounded budget: count only
        # each hull's own points.
        n_fit = np.minimum(
            (self._t.hull_powers[pid][:, :, None] <= budget[:, None, :]).sum(axis=1),
            self._t.hull_size[pid][:, None],
        )
        fastest = np.maximum(n_fit - 1, 0)
        chosen = fastest
        slots = self._t.slot[rows]
        seen = self._seen[slots]
        if seen.any():
            # Adagio: slow into the measured slack, anchored at the
            # fastest-achievable duration under the budget, so a task
            # slowed before springs back once its slack disappears.
            allowed = (
                durations[row, fastest]
                + self.cfg.adagio_safety * self._slack[slots]
            )
            slowed = _first_fitting(durations, n_fit, allowed)
            chosen = np.where(seen[:, None], slowed, fastest)
        index = self._t.hull_configs[pid[:, None], chosen]
        hold = durations[row, chosen] < self.cfg.min_switch_duration_s
        fallback = n_fit == 0

        its = self._t.iteration[rows]
        explore = np.flatnonzero(
            (0 <= its) & (its < self.cfg.exploration_iterations)
        )
        if len(explore):
            # Profiling configurations, kept under the uniform budget.
            e = pid[explore]
            spaces = [self._t.profiles[p].space.powers for p in e.tolist()]
            powers = np.full((len(e), max(map(len, spaces))), np.inf)
            for i, space in enumerate(spaces):
                powers[i, : len(space)] = space
            admissible = powers[:, :, None] <= budget[explore][:, None, :]
            n_adm = admissible.sum(axis=1)
            pick = (
                ranks[explore] + its[explore] * self.n_ranks
                + seqs[explore]
            )[:, None] % np.maximum(n_adm, 1)
            nth = admissible & (np.cumsum(admissible, axis=1) == pick[:, None, :] + 1)
            index[explore] = self._t.ids[
                self._t.space_start[e][:, None] + nth.argmax(axis=1)
            ]
            hold[explore] = False
            fallback[explore] = n_adm == 0
        hold &= ~fallback
        exploring = np.zeros(len(rows), dtype=bool)
        exploring[explore] = True
        misses = self._rapl_fallbacks(index, fallback, rows, pid, budget, exploring)

        # A rank's first task ever has no configuration to hold.
        hold[(iv.first == np.arange(len(rows))) & ~self._has_current[ranks]] = False
        configs, switches = switch_rule(
            index, hold, iv.first, self._current[ranks], self._has_current[ranks]
        )
        self._current[ranks[iv.last]] = configs[iv.last]
        self._has_current[ranks[iv.last]] = True
        return PlannedInterval(rows, ranks, configs, switches, misses)

    def _rapl_fallbacks(self, index, fallback, rows, pid, budget, exploring) -> list:
        """Fill the RAPL decisions of the (task, cap) cells whose budget
        is below every candidate: at the hull's thread count, or the full
        core count while exploring.  Returns the overshoots, as events to
        emit when each task starts."""
        misses = []
        with use_recorder(None):
            for i, c in np.argwhere(fallback).tolist():
                rank = int(self._t.rank[rows[i]])
                threads = (
                    self.power_models[rank].spec.cores
                    if exploring[i]
                    else self._t.fallback_threads[pid[i]]
                )
                cap_w = budget[i, c]
                decision = self.rapl[rank].decide(
                    self._t.kernels[rows[i]], threads, cap_w
                )
                index[i, c] = self.palette.index(decision.config)
                if not decision.cap_met:
                    event = CapExceededEvent(cap_w=cap_w, power_w=decision.power_w)
                    misses.append((i, c, event))
        return misses

    # ------------------------------------------------------------------
    def barrier(
        self,
        iteration: int,
        ranks: np.ndarray,
        seqs: np.ndarray,
        starts: np.ndarray,
        durations: np.ndarray,
    ) -> float:
        """Take one finished interval at a Pcontrol barrier; returns the
        barrier's overhead seconds.

        ``ranks``/``seqs`` name the interval's tasks in the order they
        ran, and ``starts``/``durations`` are their ``[tasks, caps]``
        columns.  Updates the slack estimates and, every
        ``realloc_period`` barriers (never when it is None), runs the
        power reallocation (566 us charged at the barrier).  Exploration
        intervals only count.
        """
        self._pcontrol_count += 1
        if not len(ranks):
            return 0.0
        if 0 <= iteration < self.cfg.exploration_iterations:
            return 0.0  # profiling bookkeeping is asynchronous
        # Rank by rank, in the order each rank first ran, then by
        # sequence: the order measurement errors are drawn in.
        _, first_run = np.unique(ranks, return_index=True)
        appearance = np.empty(self.n_ranks, dtype=np.int64)
        appearance[ranks[np.sort(first_run)]] = np.arange(len(first_run))
        order = np.lexsort((seqs, appearance[ranks]))
        ranks, seqs = ranks[order], seqs[order]
        starts, durations = starts[order], durations[order]
        rows = self.offsets[ranks] + seqs
        last = np.ones(len(ranks), dtype=bool)
        last[:-1] = ranks[1:] != ranks[:-1]
        noise = self.cfg.measurement_noise
        draws = self.rng.normal(0.0, noise, len(ranks)) if noise > 0 else None
        self._observe(self._t.slot[rows], observed_slack(starts, durations, last, draws))
        period = self.cfg.realloc_period
        if period is None or self._pcontrol_count % period != 0:
            return 0.0
        self._reallocate(ranks, rows, starts, durations)
        self.realloc_count += 1
        return self.cfg.realloc_overhead_s

    def _observe(self, slots: np.ndarray, slack: np.ndarray) -> None:
        """Fold one interval's observed slack into the smoothed estimates,
        row by row where a task position repeats within the interval."""
        unique = len(np.unique(slots)) == len(slots)
        for g in [slice(None)] if unique else range(len(slots)):
            s = slots[g]
            seen = self._seen[s]
            self._slack[s] = np.where(
                np.reshape(seen, np.shape(seen) + (1,)),
                smooth(self._slack[s], slack[g], SLACK_SMOOTHING),
                slack[g],
            )
            self._seen[s] = True

    def _reallocate(self, ranks, rows, starts, durations) -> None:
        """One bounded-step power transfer from slack-rich ranks to the
        (noisily) estimated critical path, at every cap.

        Donor/receiver identification follows the paper's description:
        after Adagio has slowed non-critical work, ranks that still show
        per-iteration *slack* are donors; ranks whose tasks run back-to-
        back into the barrier (near-zero slack) carry the critical path
        and receive.  Measurements are noisy, so on well-balanced
        applications (SP) jitter — not load — picks the critical set,
        which is precisely the misidentification pathology the paper
        reports.
        """
        cfg = self.cfg
        n = self.n_ranks
        caps = self.job_caps_w
        alloc = self.alloc_w
        width = len(caps)
        pid = self._t.prof[rows]
        # Per-rank sums and maxima, taking each rank's j-th task at once
        # so every rank accumulates in sequence order.
        lead = np.ones(len(ranks), dtype=bool)
        lead[1:] = ranks[1:] != ranks[:-1]
        position = np.arange(len(ranks)) - np.maximum.accumulate(
            np.where(lead, np.arange(len(ranks)), 0)
        )
        layers = [np.flatnonzero(position == j) for j in range(position.max() + 1)]
        busy = np.zeros((width, n))
        last_end = np.zeros((width, n))
        max_useful = np.zeros(n)
        ends = starts + durations
        for layer in layers:
            r = ranks[layer]
            busy[:, r] += durations[layer].T
            last_end[:, r] = np.maximum(last_end[:, r], ends[layer].T)
            max_useful[r] = np.maximum(max_useful[r], self._t.top_power[pid[layer]])
        iter_start = starts.min(axis=0)
        barrier = last_end.max(axis=1)
        span = np.maximum(barrier - iter_start, 1e-12)
        earliness = barrier[:, None] - last_end
        noise = cfg.measurement_noise
        if noise > 0:
            busy = busy * self.rng.lognormal(0.0, noise, n)
            earliness = np.maximum(
                0.0, earliness + span[:, None] * self.rng.normal(0.0, noise, n)
            )

        # Per-rank power requirement to arrive exactly at the barrier:
        # stretch each task's duration by the rank's measured earliness and
        # read the minimum sufficient power off the task's frontier.  The
        # allocation must cover the rank's hungriest task (tasks within a
        # rank run sequentially).
        with np.errstate(divide="ignore", invalid="ignore"):
            stretch = np.where(
                busy > 0, 1.0 + cfg.adagio_safety * earliness / busy, 1.0
            )
        hull_size = np.broadcast_to(self._t.hull_size[pid][:, None], durations.shape)
        fit = _first_fitting(
            self._t.hull_durations[pid], hull_size, durations * stretch[:, ranks].T
        )
        power = self._t.hull_powers[pid[:, None], fit]
        req = np.zeros((width, n))
        for layer in layers:
            r = ranks[layer]
            req[:, r] = np.maximum(req[:, r], power[layer].T)
        ran = np.zeros(n, dtype=bool)
        ran[ranks] = True
        needed = np.where(ran, req + cfg.donor_margin_w, alloc)

        total_needed = _rowsum(needed)
        infeasible = (total_needed > caps)[:, None]
        # Infeasible ask (harsh cap): squeeze everyone proportionally.
        squeezed = needed * (caps / total_needed)[:, None]
        # Otherwise waterfill the leftover onto loaded ranks — they convert
        # extra power into critical-path speedup — capped at each rank's
        # highest useful draw.  Two passes: weighted fill, then spill of
        # over-ceiling excess.
        leftover = caps - total_needed
        ceiling = np.where(max_useful > 0, max_useful, alloc)
        weights = busy / np.maximum(_rowsum(busy), 1e-12)[:, None]
        grant = np.minimum(
            leftover[:, None] * weights, np.maximum(ceiling - needed, 0)
        )
        filled = needed + grant
        leftover = leftover - _rowsum(grant)
        room = np.maximum(ceiling - filled, 0)
        room_total = _rowsum(room)
        spill = ((leftover > 1e-9) & (room_total > 0))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            spilled = filled + np.minimum(
                room, leftover[:, None] * room / room_total[:, None]
            )
        target = np.where(
            infeasible, squeezed, np.where(spill, spilled, filled)
        )

        # Bounded-step move toward the target (the paper's reallocation is
        # incremental; with noisy inputs this is where thrashing lives).
        step = cfg.step_w
        delta = np.clip(target - alloc, -step, step)
        # Conserve the job-level sum exactly: pair up positive and negative
        # moves so the cap is never exceeded.
        give = _rowsum(np.minimum(delta, 0))  # <= 0
        take = _rowsum(np.maximum(delta, 0))
        slack_w = np.maximum(0.0, caps - _rowsum(alloc))
        allowed = -give + slack_w
        scale = ((take > allowed) & (take > 0))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = delta * (allowed / take)[:, None]
        alloc += np.where(scale & (delta > 0), scaled, delta)

    # ------------------------------------------------------------------
    def sweep_plan(self, engine: Engine) -> SweepRunPlan:
        """The plan of a run at every job cap, for :meth:`Engine.run_sweep`.

        Its rows are filled one interval ahead of the walk: the first
        interval here, each next one by the plan's ``on_pcontrol`` hook
        after the barrier before it, from that barrier's start columns.
        Durations and powers are batch evaluated with the engine's
        machine models, every rank sharing a socket family in one pass.
        """
        n_tasks, width = int(self.offsets[-1]), len(self.job_caps_w)
        configs = np.empty((n_tasks, width), dtype=object)
        durations = np.zeros((n_tasks, width))
        powers = np.zeros((n_tasks, width))
        switch_add = np.zeros((n_tasks, width))
        n_switches = np.zeros((self.n_ranks, width), dtype=np.int64)
        families: dict = {}
        for rank, pm in enumerate(engine.power_models):
            families.setdefault((pm.spec, pm.params), []).append(rank)
        efficiency = np.array([pm.efficiency for pm in engine.power_models])
        cost = self.cfg.switch_overhead_s
        ka = self._t.kernel_arrays

        def fill(planned: PlannedInterval | None) -> None:
            if planned is None:
                return
            rows, ids = planned.rows, planned.configs
            objects, freq, threads, duty = self.palette.arrays()
            configs[rows] = objects[ids]
            for members in families.values():
                mine = (
                    slice(None) if len(families) == 1
                    else np.isin(planned.ranks, members)
                )
                at, mine_ids = rows[mine], ids[mine]
                cols = ka.columns(at)
                f, t, d = freq[mine_ids], threads[mine_ids], duty[mine_ids]
                durations[at] = batch_task_durations(
                    engine.time_models[members[0]], cols, f, t, d
                )
                powers[at] = batch_task_powers(
                    engine.power_models[members[0]], cols, f, t, d,
                    efficiency=efficiency[planned.ranks[mine]][:, None],
                )
            switch_add[rows] = np.where(planned.switches, cost, 0.0)
            np.add.at(n_switches, planned.ranks, planned.switches)

        def on_pcontrol(iteration: int, tasks: list, starts: list) -> float:
            ranks = np.array([rank for rank, _ in tasks], dtype=np.int64)
            seqs = np.array([seq for _, seq in tasks], dtype=np.int64)
            columns = np.array([starts[rank][seq] for rank, seq in tasks])
            cost_s = self.barrier(
                iteration, ranks, seqs, columns.reshape(len(tasks), width),
                durations[self.offsets[ranks] + seqs],
            )
            fill(self.plan_next())
            return cost_s

        fill(self.plan_next())
        lo, hi = self.offsets[:-1], self.offsets[1:]
        return SweepRunPlan(
            ranks=[
                SweepRankPlan(
                    configs=configs[a:b],
                    durations=durations[a:b],
                    powers=powers[a:b],
                    switch_add=switch_add[a:b],
                    n_switches=n_switches[rank],
                )
                for rank, (a, b) in enumerate(zip(lo, hi))
            ],
            n_points=width,
            on_pcontrol=on_pcontrol,
        )


class ConductorPolicy:
    """The Conductor runtime as an engine :class:`ConfigPolicy`.

    The :class:`ConductorPlanner` at this policy's one job cap: each
    barrier plans the interval after it, and :meth:`configure` answers
    the engine from that plan.
    """

    @classmethod
    def oracle(
        cls,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
    ) -> "ConductorPolicy":
        """An idealized Conductor: noiseless measurements, reallocation
        every Pcontrol, unbounded steps, zero control overheads.

        This is the best *any* runtime making decisions at Pcontrol
        granularity from past-iteration data can do; its residual gap to
        the LP isolates what only an offline, event-granularity scheduler
        with "perfect knowledge of the system and applications" (paper
        §6.3) can capture — per-event power shifts and exact
        per-iteration workloads.
        """
        cfg = ConductorConfig(
            exploration_iterations=1,
            realloc_period=1,
            step_w=1e6,
            measurement_noise=0.0,
            switch_overhead_s=0.0,
            realloc_overhead_s=0.0,
            seed=0,
        )
        return cls(power_models, job_cap_w, app, spec=spec, config=cfg)

    @classmethod
    def selection_only(
        cls,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        adagio_safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | None = None,
    ) -> "ConductorPolicy":
        """Pareto configuration selection under uniform, immovable budgets
        (the paper's §6 ablation; :meth:`ConductorConfig.selection_only`).

        "If only the configuration selection is performed (but not power
        reallocation), there is less overhead than Conductor, but also
        lower performance due to the use of uniform power allocation."
        Each task runs the fastest hull point under its rank's share of
        the cap, Adagio-slowed into its slack.  This isolates how much of
        Conductor's gain comes from selection: virtually all of LULESH's
        (thread-count mismatch), almost none of BT's (load imbalance).
        """
        cfg = ConductorConfig.selection_only(
            adagio_safety, switch_overhead_s, min_switch_duration_s
        )
        return cls(
            power_models, job_cap_w, app, config=cfg,
            frontier_store=frontier_store,
        )

    @classmethod
    def adagio(
        cls,
        power_models: list[SocketPowerModel],
        app: Application,
        safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | None = None,
    ) -> "ConductorPolicy":
        """Standalone Adagio (Rountree et al., ICS'09; paper §7): the
        selection-only runtime with no cap.

        On a fully provisioned system every task may run its fastest
        configuration, and slack-bearing tasks are slowed just enough to
        absorb their measured slack: the related work's "save energy
        without increasing execution time", measured against the energy
        LP bound (:func:`repro.core.solve_energy_lp`).
        """
        return cls.selection_only(
            power_models, math.inf, app, safety, switch_overhead_s,
            min_switch_duration_s, frontier_store,
        )

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
        config: ConductorConfig = ConductorConfig(),
        frontier_store: FrontierStore | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.planner = ConductorPlanner(
            power_models, [job_cap_w], app, config=config,
            frontier_store=frontier_store,
        )
        self.power_models = power_models
        self.spec = spec
        self.cfg = config
        self.job_cap_w = job_cap_w
        self.n_ranks = len(power_models)
        self.frontiers = self.planner.frontiers
        self.table = self.planner.table
        self.alloc_history: list[np.ndarray] = []
        self._offsets = self.planner.offsets.tolist()
        self._planned = np.empty(int(self.planner.offsets[-1]), dtype=object)
        self._misses: dict[int, CapExceededEvent] = {}
        self._take(self.planner.plan_next())

    @property
    def alloc_w(self) -> np.ndarray:
        """Per-rank power allocation (a view of the planner's state)."""
        return self.planner.alloc_w[0]

    @property
    def realloc_count(self) -> int | None:
        """Reallocations so far; None when the config never reallocates."""
        return self.planner.realloc_count

    def _take(self, planned: PlannedInterval | None) -> None:
        if planned is None:
            return
        self._planned[planned.rows] = self.planner.palette.arrays()[0][
            planned.configs[:, 0]
        ]
        for i, _, event in planned.misses:
            self._misses[int(planned.rows[i])] = event

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """The task's configuration from the plan of its interval:
        exploration configs during warmup; then the fastest frontier
        point under the rank's allocation, Adagio-slowed into slack."""
        self.table.profile(ref, kernel)  # a task of this application
        row = self._offsets[ref.rank] + ref.seq
        event = self._misses.pop(row, None)
        if event is not None:
            emit(event)
        return self._planned[row]

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        """Update slack estimates; every ``realloc_period`` intervals run
        the power reallocation (566 us charged at the barrier); then plan
        the next interval."""
        recorder = current_recorder()
        before = (
            tuple(float(w) for w in self.alloc_w) if recorder is not None else ()
        )
        reallocs = self.realloc_count
        cost = self.planner.barrier(
            iteration,
            np.array([r.ref.rank for r in records], dtype=np.int64),
            np.array([r.ref.seq for r in records], dtype=np.int64),
            np.array([r.start_s for r in records])[:, None],
            np.array([r.duration_s for r in records])[:, None],
        )
        if self.realloc_count != reallocs:
            self.alloc_history.append(self.alloc_w.copy())
            if recorder is not None:
                recorder.emit(ReallocEvent(
                    ts_s=max(r.end_s for r in records),
                    iteration=iteration,
                    job_cap_w=self.job_cap_w,
                    alloc_before_w=before,
                    alloc_after_w=tuple(float(w) for w in self.alloc_w),
                ))
        self._take(self.planner.plan_next())
        return cost

    def switch_cost_s(self) -> float:
        return self.cfg.switch_overhead_s


def task_key_for(ref: TaskRef, tasks_per_iteration: int) -> tuple[int, int]:
    """Recurring-task key straight from a TaskRef (mirrors adagio.task_key)."""
    return (ref.rank, ref.seq % max(1, tasks_per_iteration))
