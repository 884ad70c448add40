"""Conductor as it decided before it planned whole Pcontrol intervals.

The product's :class:`~repro.runtime.ConductorPolicy` plans each interval
between two barriers at once, for every cap of a sweep
(:class:`~repro.runtime.conductor.ConductorPlanner`).  This is the
per-task runtime it replaced, kept verbatim as the reference: one
``configure`` call per task reading the rank's allocation and the task's
slack estimate, a per-record slack update (:class:`ScalarSlack`) and a
per-rank reallocation loop at each barrier.  The identity
suites hold the planner, at one cap and across a sweep, to its records,
trace events and reallocations bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.machine.configuration import Configuration
from repro.machine.frontiers import FrontierStore
from repro.machine.performance import TaskKernel
from repro.machine.power import SocketPowerModel
from repro.machine.rapl import RaplController
from repro.obs.events import ReallocEvent
from repro.obs.recorder import current_recorder
from repro.runtime import ConductorConfig
from repro.runtime.adagio import FrontierTable, task_key
from repro.runtime.conductor import task_key_for
from repro.simulator.engine import TaskRecord
from repro.simulator.program import Application, TaskRef

from .selection_oracle import first_fitting

__all__ = ["ScalarConductor", "ScalarSlack"]


@dataclass
class ScalarSlack:
    """The per-record :class:`~repro.runtime.SlackEstimator` update, as it
    was before slack was observed in arrays.

    ``update`` consumes one iteration's task records (all ranks) and
    refreshes the per-task slack: the gap between a task's end and the next
    task's start on the same rank, with the final task of each rank slacked
    against the iteration's global end (the Pcontrol barrier).
    """

    tasks_per_iteration: dict[int, int]
    smoothing: float = 0.5
    slack_s: dict[tuple[int, int], float] = field(default_factory=dict)
    duration_s: dict[tuple[int, int], float] = field(default_factory=dict)

    def update(
        self,
        records: list[TaskRecord],
        rng=None,
        noise: float = 0.0,
    ) -> None:
        """Refresh estimates from one iteration's records.

        ``noise`` models measurement error as an additive perturbation of
        each observed slack, proportional to the task duration — on a
        well-balanced application this is what makes Adagio occasionally
        slow a critical task (the paper's SP pathology).
        """
        if not records:
            return
        iteration_end = max(r.end_s for r in records)
        by_rank: dict[int, list[TaskRecord]] = {}
        for r in records:
            by_rank.setdefault(r.ref.rank, []).append(r)
        for rank, recs in by_rank.items():
            recs.sort(key=lambda r: r.start_s)
            tpi = self.tasks_per_iteration.get(rank, len(recs))
            for i, rec in enumerate(recs):
                nxt = recs[i + 1].start_s if i + 1 < len(recs) else iteration_end
                slack = max(0.0, nxt - rec.end_s)
                if rng is not None and noise > 0:
                    slack = max(
                        0.0, slack + rec.duration_s * float(rng.normal(0.0, noise))
                    )
                key = task_key(rec, tpi)
                old = self.slack_s.get(key)
                if old is None:
                    self.slack_s[key] = slack
                    self.duration_s[key] = rec.duration_s
                else:
                    a = self.smoothing
                    self.slack_s[key] = a * slack + (1 - a) * old
                    self.duration_s[key] = (
                        a * rec.duration_s + (1 - a) * self.duration_s[key]
                    )

    def slack_estimate(self, key: tuple[int, int]) -> float | None:
        return self.slack_s.get(key)


class ScalarConductor:
    """Conductor deciding task by task, as the runtime did before it
    planned whole Pcontrol intervals."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        config: ConductorConfig = ConductorConfig(),
        frontier_store: FrontierStore | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.power_models = power_models
        self.cfg = config
        self.job_cap_w = job_cap_w
        self.n_ranks = len(power_models)
        self.rapl = [RaplController(pm) for pm in power_models]
        self.rng = np.random.default_rng(config.seed)

        # Per-rank power allocation, initially uniform (like Static).
        self.alloc_w = np.full(self.n_ranks, job_cap_w / self.n_ranks)

        self.tasks_per_iteration = app.tasks_per_iteration()
        self.slack = ScalarSlack(self.tasks_per_iteration)

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
