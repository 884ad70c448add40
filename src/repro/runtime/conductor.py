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

The two pathologies the paper attributes Conductor's LP gap to are modeled
mechanistically rather than hard-coded: *thrashing* arises from the
bounded-step reallocation reacting to noisy measurements, and *critical-
path misidentification* (SP's regression) arises when load is so balanced
that measurement noise, not load, picks the "critical" rank.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierStore, NodeFrontierStore
from ..machine.performance import TaskKernel, TaskTimeModel
from ..machine.power import SocketPowerModel
from ..machine.rapl import RaplController
from ..obs.events import ReallocEvent
from ..obs.recorder import current_recorder
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, ComputeOp, TaskRef
from .adagio import FrontierTable, SlackEstimator, first_fitting

__all__ = ["ConductorPolicy", "ConductorConfig"]


@dataclass(frozen=True)
class ConductorConfig:
    """Tunables of the Conductor runtime (paper-derived defaults)."""

    exploration_iterations: int = 3
    realloc_period: int = 5
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
        if self.realloc_period < 1:
            raise ValueError("realloc_period must be >= 1")
        if self.step_w <= 0:
            raise ValueError("step_w must be positive")
        if not (0 < self.receiver_fraction <= 1):
            raise ValueError("receiver_fraction must be in (0, 1]")
        if self.measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")


class ConductorPolicy:
    """The Conductor runtime as an engine :class:`ConfigPolicy`."""

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

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
        config: ConductorConfig = ConductorConfig(),
        frontier_store: FrontierStore | NodeFrontierStore | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.power_models = power_models
        self.spec = spec
        self.cfg = config
        self.job_cap_w = job_cap_w
        self.n_ranks = len(power_models)
        self.time_model = TaskTimeModel(spec)
        self.rapl = [RaplController(pm) for pm in power_models]
        self.rng = np.random.default_rng(config.seed)

        # Per-rank power allocation, initially uniform (like Static).
        self.alloc_w = np.full(self.n_ranks, job_cap_w / self.n_ranks)

        tpi = {
            r: sum(
                1
                for op in app.programs[r]
                if isinstance(op, ComputeOp) and op.iteration == 0
            )
            for r in range(self.n_ranks)
        }
        # Ranks whose iteration structure is unknown fall back to 1 task.
        self.tasks_per_iteration = {r: max(1, c) for r, c in tpi.items()}
        self.slack = SlackEstimator(self.tasks_per_iteration)

        # The shared frontier store: Conductor's profiling pass measures
        # the same (kernel, power model) spaces as every other consumer,
        # so a store handed in by the harness is a warm cache.  Every
        # task's profile is read from one table, by (rank, seq).
        self.frontiers = (
            frontier_store
            if frontier_store is not None
            else FrontierStore(power_models)
        )
        self.table = FrontierTable(self.frontiers, app)
        self._pcontrol_count = 0
        self.realloc_count = 0
        self.alloc_history: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def _exploration_config(
        self, ref: TaskRef, kernel: TaskKernel, iteration: int
    ) -> Configuration:
        """Heterogeneous profiling configurations, kept under the uniform cap."""
        space = self.table.profile(ref, kernel).space
        budget = self.alloc_w[ref.rank]
        admissible = np.flatnonzero(space.powers <= budget)
        if not len(admissible):
            return self.rapl[ref.rank].decide(
                kernel, self.power_models[ref.rank].spec.cores, budget
            ).config
        idx = (ref.rank + iteration * self.n_ranks + ref.seq) % len(admissible)
        return space.configs[admissible[idx]]

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Exploration config during warmup; then the fastest frontier
        point under the rank's allocation, Adagio-slowed into slack."""
        if 0 <= iteration < self.cfg.exploration_iterations:
            return self._exploration_config(ref, kernel, iteration)

        prof = self.table.profile(ref, kernel)
        budget = self.alloc_w[ref.rank]
        n_fit = bisect_right(prof.hull_powers, float(budget))
        if not n_fit:
            # Allocation below the cheapest configuration: fall back to
            # RAPL-style throttling at the frontier's thread count.
            threads = prof.hull_configs[0].threads
            return self.rapl[ref.rank].decide(kernel, threads, budget).config

        durations = prof.hull_durations
        chosen = n_fit - 1  # fastest under the budget
        key = task_key_for(ref, self.tasks_per_iteration[ref.rank])
        slack_s = self.slack.slack_estimate(key)
        if slack_s is not None:
            # Adagio: slow into the measured slack — anchored at the
            # fastest-achievable duration under the budget, so a task
            # slowed in a previous iteration springs back the moment its
            # slack disappears (no ratchet).
            allowed = durations[chosen] + self.cfg.adagio_safety * slack_s
            chosen = first_fitting(durations, n_fit, allowed)

        config = prof.hull_configs[chosen]
        if (
            current is not None
            and config != current
            and durations[chosen] < self.cfg.min_switch_duration_s
        ):
            return current  # paper's 1 ms switch threshold
        return config

    # ------------------------------------------------------------------
    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        """Update slack estimates; every ``realloc_period`` intervals run
        the power reallocation (566 us charged at the barrier)."""
        self._pcontrol_count += 1
        if not records:
            return 0.0
        if 0 <= iteration < self.cfg.exploration_iterations:
            return 0.0  # profiling bookkeeping is asynchronous
        self.slack.update(records, rng=self.rng, noise=self.cfg.measurement_noise)
        if self._pcontrol_count % self.cfg.realloc_period != 0:
            return 0.0
        recorder = current_recorder()
        before = (
            tuple(float(w) for w in self.alloc_w) if recorder is not None else ()
        )
        self._reallocate(records)
        self.realloc_count += 1
        self.alloc_history.append(self.alloc_w.copy())
        if recorder is not None:
            recorder.emit(ReallocEvent(
                ts_s=max(r.end_s for r in records),
                iteration=iteration,
                job_cap_w=self.job_cap_w,
                alloc_before_w=before,
                alloc_after_w=tuple(float(w) for w in self.alloc_w),
            ))
        return self.cfg.realloc_overhead_s

    def _reallocate(self, records: list[TaskRecord]) -> None:
        """One bounded-step power transfer from slack-rich ranks to the
        (noisily) estimated critical path.

        Donor/receiver identification follows the paper's description:
        after Adagio has slowed non-critical work, ranks that still show
        per-iteration *slack* are donors; ranks whose tasks run back-to-
        back into the barrier (near-zero slack) carry the critical path
        and receive.  Measurements are noisy, so on well-balanced
        applications (SP) jitter — not load — picks the critical set,
        which is precisely the misidentification pathology the paper
        reports.
        """
        noise = self.cfg.measurement_noise
        n = self.n_ranks
        busy = np.zeros(n)
        last_end = np.zeros(n)
        max_useful = np.zeros(n)
        rank_tasks: list[list[TaskRecord]] = [[] for _ in range(n)]
        iter_start = min(r.start_s for r in records)
        for rec in records:
            r = rec.ref.rank
            busy[r] += rec.duration_s
            last_end[r] = max(last_end[r], rec.end_s)
            rank_tasks[r].append(rec)
            prof = self.table.profile(rec.ref, rec.kernel)
            max_useful[r] = max(max_useful[r], prof.hull_powers[-1])
        barrier = float(last_end.max())
        span = max(barrier - iter_start, 1e-12)
        earliness = barrier - last_end
        if noise > 0:
            busy = busy * self.rng.lognormal(0.0, noise, n)
            earliness = np.maximum(
                0.0, earliness + span * self.rng.normal(0.0, noise, n)
            )

        # Per-rank power requirement to arrive exactly at the barrier:
        # stretch each task's duration by the rank's measured earliness and
        # read the minimum sufficient power off the task's frontier.  The
        # allocation must cover the rank's hungriest task (tasks within a
        # rank run sequentially).
        needed = np.zeros(n)
        for r in range(n):
            if not rank_tasks[r]:
                needed[r] = self.alloc_w[r]
                continue
            stretch = 1.0
            if busy[r] > 0:
                stretch = 1.0 + self.cfg.adagio_safety * earliness[r] / busy[r]
            req = 0.0
            for rec in rank_tasks[r]:
                prof = self.table.profile(rec.ref, rec.kernel)
                durations = prof.hull_durations
                fit = first_fitting(durations, len(durations), rec.duration_s * stretch)
                req = max(req, prof.hull_powers[fit])
            needed[r] = req + self.cfg.donor_margin_w

        total_needed = float(needed.sum())
        if total_needed > self.job_cap_w:
            # Infeasible ask (harsh cap): squeeze everyone proportionally.
            target = needed * (self.job_cap_w / total_needed)
        else:
            # Waterfill the leftover onto loaded ranks — they convert extra
            # power into critical-path speedup — capped at each rank's
            # highest useful draw.
            target = needed.copy()
            leftover = self.job_cap_w - total_needed
            ceiling = np.where(max_useful > 0, max_useful, self.alloc_w)
            weights = busy / max(busy.sum(), 1e-12)
            # Two passes: weighted fill, then spill of over-ceiling excess.
            grant = np.minimum(leftover * weights, np.maximum(ceiling - target, 0))
            target += grant
            leftover -= float(grant.sum())
            if leftover > 1e-9:
                room = np.maximum(ceiling - target, 0)
                if float(room.sum()) > 0:
                    target += np.minimum(room, leftover * room / room.sum())

        # Bounded-step move toward the target (the paper's reallocation is
        # incremental; with noisy inputs this is where thrashing lives).
        step = self.cfg.step_w
        delta = np.clip(target - self.alloc_w, -step, step)
        # Conserve the job-level sum exactly: pair up positive and negative
        # moves so the cap is never exceeded.
        give = float(np.minimum(delta, 0).sum())  # <= 0
        take = float(np.maximum(delta, 0).sum())
        slack_w = max(0.0, self.job_cap_w - float(self.alloc_w.sum()))
        allowed = -give + slack_w
        if take > allowed and take > 0:
            delta[delta > 0] *= allowed / take
        self.alloc_w += delta

    def switch_cost_s(self) -> float:
        return self.cfg.switch_overhead_s


def task_key_for(ref: TaskRef, tasks_per_iteration: int) -> tuple[int, int]:
    """Recurring-task key straight from a TaskRef (mirrors adagio.task_key)."""
    return (ref.rank, ref.seq % max(1, tasks_per_iteration))
