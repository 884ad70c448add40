"""RAPL (Running Average Power Limit) firmware simulator.

RAPL is the socket-level power-capping mechanism used throughout the paper:
writing a watt limit to a hardware MSR causes firmware to pick DVFS states
(and, when even the lowest P-state exceeds the cap, duty-cycle clock
modulation) such that the running average package power stays under the
limit.  Crucially for the paper's evaluation, RAPL is *blind* to
application structure: it cannot change thread counts, and under a uniform
Static cap it throttles leaky sockets much harder than efficient ones —
the mechanism behind BT's "22% of max clock" pathology at 30 W.

The simulator resolves, per task, the operating point firmware converges
to: the highest P-state whose model power fits under the cap, else the
highest duty cycle at the lowest P-state, else the lowest expressible duty
cycle (real RAPL similarly bottoms out and reports a cap overshoot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.events import CapExceededEvent
from ..obs.recorder import emit
from .configuration import Configuration, ConfigPoint, measure_task
from .performance import TaskKernel, TaskTimeModel
from .power import SocketPowerModel

__all__ = ["RaplController", "RaplDecision", "RaplSettlement"]


@dataclass(frozen=True)
class RaplDecision:
    """Outcome of the firmware control loop for one task under one cap."""

    config: Configuration
    power_w: float
    cap_w: float
    cap_met: bool

    @property
    def headroom_w(self) -> float:
        """Unused power under the cap (negative when the cap is violated)."""
        return self.cap_w - self.power_w


@dataclass(frozen=True)
class RaplSettlement:
    """Outcome of the firmware control loop for many kernels under many caps.

    ``candidates`` are the operating points the loop tries, in its order:
    the P-states from fastest down, then the duty cycles at ``fmin``
    from widest down, then the floor it bottoms out at.  Entry ``[k, c]``
    of each array is kernel ``k`` under ``caps_w[c]``: ``choice`` indexes
    the candidate it settles on, and ``power_w`` and ``cap_met`` are the
    :class:`RaplDecision` fields :meth:`RaplController.decide` returns.
    """

    candidates: list
    choice: np.ndarray  # [n_kernels, n_caps] int
    power_w: np.ndarray  # [n_kernels, n_caps]
    cap_met: np.ndarray  # [n_kernels, n_caps] bool


class RaplController:
    """Per-socket RAPL model.

    Parameters
    ----------
    power_model:
        The socket the controller is capping (its efficiency factor is what
        makes identical caps behave differently across sockets).
    control_noise:
        Fractional conservatism jitter of the firmware's internal power
        estimate; real RAPL leaves a little guard band.  Deterministic
        (applied as a fixed margin) so simulations are reproducible.
    """

    def __init__(self, power_model: SocketPowerModel, control_noise: float = 0.0) -> None:
        if control_noise < 0 or control_noise >= 0.5:
            raise ValueError(f"control_noise must be in [0, 0.5), got {control_noise}")
        self.power_model = power_model
        self.control_noise = control_noise
        self.spec = power_model.spec

    def _fits(self, kernel: TaskKernel, config: Configuration, cap_w: float) -> bool:
        power = self.power_model.power(
            config.freq_ghz,
            config.threads,
            activity=kernel.activity,
            mem_intensity=kernel.mem_intensity,
            duty=config.duty,
        )
        return power * (1.0 + self.control_noise) <= cap_w

    def decide(self, kernel: TaskKernel, threads: int, cap_w: float) -> RaplDecision:
        """Operating point the firmware settles on for a task under a cap.

        The thread count is an input — firmware cannot change it; the
        Static baseline always passes the full core count.
        """
        if cap_w <= 0:
            raise ValueError(f"cap must be positive, got {cap_w}")
        chosen: Configuration | None = None
        for freq in self.spec.pstates:  # descending: pick the fastest that fits
            cfg = Configuration(freq, threads)
            if self._fits(kernel, cfg, cap_w):
                chosen = cfg
                break
        if chosen is None:
            for duty in self.spec.duty_cycles:  # descending duty
                cfg = Configuration(self.spec.fmin_ghz, threads, duty)
                if self._fits(kernel, cfg, cap_w):
                    chosen = cfg
                    break
        cap_met = chosen is not None
        if chosen is None:
            # Even the deepest modulation exceeds the cap: firmware bottoms
            # out at the lowest expressible duty cycle.
            duties = self.spec.duty_cycles
            floor = duties[-1] if duties else 1.0
            chosen = Configuration(self.spec.fmin_ghz, threads, floor)
        power = self.power_model.power(
            chosen.freq_ghz,
            chosen.threads,
            activity=kernel.activity,
            mem_intensity=kernel.mem_intensity,
            duty=chosen.duty,
        )
        if not cap_met:
            # The trace records every overshoot: this is the mechanism
            # behind the paper's "22% of max clock" pathology, and a
            # throttled-to-the-floor socket is the first thing to look
            # for when a run underperforms its bound.
            emit(CapExceededEvent(cap_w=cap_w, power_w=power))
        return RaplDecision(config=chosen, power_w=power, cap_w=cap_w, cap_met=cap_met)

    def settle(
        self,
        activity: np.ndarray,
        mem_intensity: np.ndarray,
        threads: int,
        caps_w,
    ) -> RaplSettlement:
        """:meth:`decide` for every kernel under every cap, in one pass.

        ``activity`` and ``mem_intensity`` describe one kernel per entry.
        Each candidate's power is evaluated once per kernel, as a
        ``[kernels x candidates]`` table, and each cap picks the first
        candidate that fits.  The table repeats
        :meth:`SocketPowerModel.power` term for term (the frequency law
        on Python floats, once per candidate), so every choice, power and
        ``cap_met`` is bit-identical to a :meth:`decide` call, and an
        overshoot emits the same :class:`CapExceededEvent`, kernel by
        kernel and cap by cap.
        """
        caps = np.asarray(caps_w, dtype=float)
        if np.any(caps <= 0):
            raise ValueError(f"caps must be positive, got {caps_w}")
        spec = self.spec
        if not (1 <= threads <= spec.cores):
            raise ValueError(f"threads must be in [1, {spec.cores}], got {threads}")
        duties = spec.duty_cycles
        floor = duties[-1] if duties else 1.0
        candidates = [Configuration(f, threads) for f in spec.pstates]
        candidates += [Configuration(spec.fmin_ghz, threads, d) for d in duties]
        candidates.append(Configuration(spec.fmin_ghz, threads, floor))
        p = self.power_model.params
        rel_pow = np.array([
            (c.freq_ghz / spec.fmax_ghz) ** p.freq_exponent for c in candidates
        ])
        duty = np.array([c.duty for c in candidates])
        activity = np.asarray(activity, dtype=float)[:, None]
        mem = np.asarray(mem_intensity, dtype=float)[:, None]
        dyn = activity * p.p_core_dyn_max * rel_pow
        uncore = p.p_uncore_idle + p.p_uncore_mem * mem * duty
        per_core = p.p_core_leak + dyn * duty
        table = self.power_model.efficiency * (uncore + threads * per_core)
        # [kernels, candidates tried, caps]: the floor is never "tried".
        fits = (table[:, :-1, None] * (1.0 + self.control_noise)) <= caps
        cap_met = fits.any(axis=1)
        choice = np.where(cap_met, fits.argmax(axis=1), len(candidates) - 1)
        power = np.take_along_axis(table, choice, axis=1)
        for k, c in np.argwhere(~cap_met):
            emit(CapExceededEvent(cap_w=float(caps[c]), power_w=float(power[k, c])))
        return RaplSettlement(
            candidates=candidates, choice=choice, power_w=power, cap_met=cap_met
        )

    def measure(
        self,
        kernel: TaskKernel,
        threads: int,
        cap_w: float,
        time_model: TaskTimeModel | None = None,
    ) -> ConfigPoint:
        """Duration/power of a task run under this controller at a cap."""
        decision = self.decide(kernel, threads, cap_w)
        return measure_task(kernel, decision.config, self.power_model, time_model)
