"""The runtimes as they read frontiers before the frontier table.

Each class keeps its policy's state and bookkeeping and replaces only the
methods that read frontiers with the per-kernel versions: a store lookup
per decision, ``ConfigPoint`` lists filtered by budget, and
:func:`slowest_fitting_point` over them.  The table-reading policies
must make the same decisions, record for record.

Each oracle profiles into a store of its own, kernel by kernel as its
decisions ask, rather than reading the table its parent built.
"""

from __future__ import annotations

import numpy as np

from repro.machine import ConfigPoint, Configuration, FrontierStore, TaskKernel
from repro.runtime import (
    AdagioPolicy,
    ConductorPolicy,
    SelectionOnlyPolicy,
    slowest_fitting_point,
)
from repro.runtime.conductor import task_key_for
from repro.simulator import TaskRecord, TaskRef


class _OwnStore:
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frontiers = FrontierStore(self.power_models)


class ListConductor(_OwnStore, ConductorPolicy):
    """Conductor deciding from per-kernel ``ConfigPoint`` lists."""

    def _exploration_config(
        self, ref: TaskRef, kernel: TaskKernel, iteration: int
    ) -> Configuration:
        """Heterogeneous profiling configurations, kept under the uniform cap."""
        space = self.frontiers.profile(ref.rank, kernel).space
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

        frontier = self.frontiers.convex(ref.rank, kernel)
        budget = self.alloc_w[ref.rank]
        admissible = [p for p in frontier if p.power_w <= budget]
        if not admissible:
            # Allocation below the cheapest configuration: fall back to
            # RAPL-style throttling at the frontier's thread count.
            threads = frontier[0].config.threads
            return self.rapl[ref.rank].decide(kernel, threads, budget).config

        chosen = admissible[-1]  # fastest under the budget
        key = task_key_for(ref, self.tasks_per_iteration[ref.rank])
        slack_s = self.slack.slack_estimate(key)
        if slack_s is not None:
            # Adagio: slow into the measured slack — anchored at the
            # fastest-achievable duration under the budget, so a task
            # slowed in a previous iteration springs back the moment its
            # slack disappears (no ratchet).
            allowed = chosen.duration_s + self.cfg.adagio_safety * slack_s
            chosen = slowest_fitting_point(admissible, allowed)

        if (
            current is not None
            and chosen.config != current
            and chosen.duration_s < self.cfg.min_switch_duration_s
        ):
            return current  # paper's 1 ms switch threshold
        return chosen.config

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
            frontier = self.frontiers.convex(r, rec.kernel)
            max_useful[r] = max(max_useful[r], frontier[-1].power_w)
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
                frontier = self.frontiers.convex(r, rec.kernel)
                point = slowest_fitting_point(frontier, rec.duration_s * stretch)
                req = max(req, point.power_w)
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


class ListAdagio(_OwnStore, AdagioPolicy):
    """Standalone Adagio deciding from per-kernel ``ConfigPoint`` lists."""

    def _frontier(self, rank: int, kernel: TaskKernel) -> list[ConfigPoint]:
        return self.frontiers.convex(rank, kernel)

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Fastest configuration, slowed into the task's measured slack."""
        frontier = self._frontier(ref.rank, kernel)
        fastest = frontier[-1]
        chosen = fastest
        slack_s = self.slack.slack_estimate(
            task_key_for(ref, self.tasks_per_iteration[ref.rank])
        )
        if slack_s is not None:
            chosen = slowest_fitting_point(
                frontier, fastest.duration_s + self.safety * slack_s
            )
        if (
            current is not None
            and chosen.config != current
            and chosen.duration_s < self.min_switch_duration_s
        ):
            return current
        return chosen.config


class ListSelectionOnly(_OwnStore, SelectionOnlyPolicy):
    """Selection-only deciding from per-kernel ``ConfigPoint`` lists."""

    def _frontier(self, rank: int, kernel: TaskKernel) -> list[ConfigPoint]:
        return self.frontiers.convex(rank, kernel)

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Fastest frontier point under the fixed uniform budget (with
        Adagio slack absorption and the 1 ms switch rule)."""
        frontier = self._frontier(ref.rank, kernel)
        admissible = [p for p in frontier if p.power_w <= self.budget_w]
        if not admissible:
            threads = frontier[0].config.threads
            return self.rapl[ref.rank].decide(
                kernel, threads, self.budget_w
            ).config
        chosen = admissible[-1]
        slack_s = self.slack.slack_estimate(
            task_key_for(ref, self.tasks_per_iteration[ref.rank])
        )
        if slack_s is not None:
            chosen = slowest_fitting_point(
                admissible, chosen.duration_s + self.adagio_safety * slack_s
            )
        if (
            current is not None
            and chosen.config != current
            and chosen.duration_s < self.min_switch_duration_s
        ):
            return current
        return chosen.config
