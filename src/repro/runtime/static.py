"""Static: fixed, uniform power allocation (paper §4.1).

The de-facto production baseline: job power divided equally across
sockets, enforced by RAPL, thread count pinned at the full core count
(firmware cannot change concurrency).  All of Static's behaviour under
tight caps — including leaky sockets being clock-modulated far below
nominal frequency — comes from the RAPL controller model.
"""

from __future__ import annotations

import numpy as np

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.performance import TaskKernel, rank_kernel_arrays
from ..machine.power import SocketPowerModel
from ..machine.rapl import RaplController
from ..simulator.engine import (
    Engine,
    RunPlan,
    SweepRunPlan,
    TaskRecord,
    sweep_rank_plan,
)
from ..simulator.program import Application, TaskRef

__all__ = ["StaticPolicy"]


class StaticPolicy:
    """Uniform per-socket RAPL caps; full-width OpenMP; no adaptation.

    Parameters
    ----------
    power_models:
        One per rank; their efficiency spread is what differentiates the
        sockets' RAPL outcomes under the identical cap.
    job_cap_w:
        Total job power constraint; each socket gets an equal share.
    threads:
        Fixed concurrency (defaults to all cores, as in the paper).
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        spec: CpuSpec = XEON_E5_2670,
        threads: int | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.spec = spec
        # None = the full core count of each rank's own socket
        # (heterogeneous machines may differ per rank).
        self.threads = threads
        if threads is not None and not (1 <= threads <= spec.cores):
            raise ValueError(f"threads must be in [1, {spec.cores}]")
        self.job_cap_w = job_cap_w
        self.cap_per_socket_w = job_cap_w / len(power_models)
        self.controllers = [RaplController(pm) for pm in power_models]

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Whatever RAPL firmware settles on under the uniform cap."""
        threads = (
            self.threads
            if self.threads is not None
            else self.controllers[ref.rank].spec.cores
        )
        decision = self.controllers[ref.rank].decide(
            kernel, threads, self.cap_per_socket_w
        )
        return decision.config

    def plan_run(self, app: Application, engine: Engine) -> RunPlan:
        """Whole-run plan: :meth:`plan_sweep` at this policy's own cap.
        Bit-identical to the scalar per-task path."""
        return self.plan_sweep(app, engine, [self.job_cap_w]).column(0)

    def plan_sweep(
        self, app: Application, engine: Engine, job_caps_w
    ) -> SweepRunPlan:
        """Plans of a whole run at every job cap, for :meth:`Engine.run_sweep`.

        Column ``c`` is the plan of ``StaticPolicy`` built at
        ``job_caps_w[c]``.  RAPL decisions are history-free, so each rank
        settles its distinct kernels once under every cap
        (:meth:`RaplController.settle`) and the machine models are batch
        evaluated for all caps at once.
        """
        caps = [job_cap / len(self.controllers) for job_cap in job_caps_w]
        ranks = []
        for rank, ka in enumerate(rank_kernel_arrays(app)):
            controller = self.controllers[rank]
            threads = (
                self.threads if self.threads is not None else controller.spec.cores
            )
            index: dict[TaskKernel, int] = {}
            rows = [index.setdefault(k, len(index)) for k in ka.kernels]
            kernels = list(index)
            settled = controller.settle(
                np.array([k.activity for k in kernels]),
                np.array([k.mem_intensity for k in kernels]),
                threads,
                caps,
            )
            choice = settled.choice[rows]  # [n_tasks, n_caps]
            candidates = settled.candidates
            freq = np.array([c.freq_ghz for c in candidates])[choice]
            duty = np.array([c.duty for c in candidates])[choice]
            thr = np.full(choice.shape, threads, dtype=np.int64)
            # The floor repeats the last duty cycle's configuration, so a
            # switch is a change of operating point, not of candidate.
            switches = np.zeros(choice.shape, dtype=bool)
            switches[1:] = (freq[1:] != freq[:-1]) | (duty[1:] != duty[:-1])
            configs = [[candidates[j] for j in row] for row in choice.tolist()]
            ranks.append(sweep_rank_plan(
                engine, rank, ka.columns(), configs,
                freq, thr, duty, switches, self.switch_cost_s(),
            ))
        return SweepRunPlan(ranks=ranks, n_points=len(caps))

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        return 0.0  # no software agency: RAPL is firmware

    def switch_cost_s(self) -> float:
        return 0.0  # DVFS changes are made by firmware, asynchronously
