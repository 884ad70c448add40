"""Configurations: (DVFS frequency, thread count) operating points.

A configuration is the per-task control knob of the whole paper — the LP
and the runtimes all choose one (or a convex mixture) per task.  This
module enumerates the full configuration space of a socket and evaluates a
task's (duration, power) at each point, producing the raw scatter of the
paper's Figure 1.

The grid of a socket is built once per (spec, modulation, device tag) and
shared; :func:`task_spaces` evaluates K tasks over the whole grid in one
numpy pass whose floats are bit-identical to per-point
:func:`measure_task` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cpu import CpuSpec, XEON_E5_2670
from .performance import KernelArrays, TaskKernel, TaskTimeModel
from .power import SocketPowerModel

__all__ = [
    "Configuration",
    "ConfigPoint",
    "TaskSpace",
    "enumerate_configurations",
    "measure_task",
    "measure_task_space",
    "task_space",
    "task_spaces",
]


@dataclass(frozen=True, order=True)
class Configuration:
    """One operating point: P-state frequency, OpenMP threads, duty cycle.

    ``duty`` is 1.0 except when RAPL falls back to clock modulation; the LP
    never schedules modulated configurations (they are strictly dominated),
    but the Static baseline can be forced into them.

    ``device`` qualifies the operating point with the device it belongs to
    on a heterogeneous node (see :mod:`repro.machine.device`).  The empty
    string is the legacy homogeneous socket, so every pre-existing
    ``Configuration(f, n)`` literal keeps its meaning, ordering, and
    equality.  ``device`` sorts last, which keeps ordering stable across
    device kinds: points that tie on (freq, threads, duty) break the tie
    on the device id rather than on construction order.
    """

    freq_ghz: float
    threads: int
    duty: float = 1.0
    device: str = ""

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not (0.0 < self.duty <= 1.0):
            raise ValueError(f"duty must be in (0,1], got {self.duty}")

    @property
    def effective_freq_ghz(self) -> float:
        return self.freq_ghz * self.duty

    def describe(self) -> str:
        """Human-readable form, device-tagged when not the legacy CPU."""
        mod = "" if self.duty == 1.0 else f" @ {self.duty:.0%} duty"
        tag = f"[{self.device}] " if self.device else ""
        return f"{tag}{self.freq_ghz:.1f} GHz x {self.threads}t{mod}"


@dataclass(frozen=True)
class ConfigPoint:
    """A configuration together with its measured duration and power.

    These are what the tracing library reports per task and what the LP
    consumes as the (d_ij, p_ij) coefficients.
    """

    config: Configuration
    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")
        if self.power_w <= 0:
            raise ValueError(f"power must be positive, got {self.power_w}")

    def dominates(self, other: "ConfigPoint") -> bool:
        """Pareto dominance in (time, power): no worse in both, better in one."""
        return (
            self.duration_s <= other.duration_s
            and self.power_w <= other.power_w
            and (
                self.duration_s < other.duration_s or self.power_w < other.power_w
            )
        )


@dataclass(frozen=True, eq=False)
class _Grid:
    """A socket's configuration grid with per-point knob arrays.

    ``freq_idx`` indexes ``freqs`` (the distinct frequencies in first-seen
    order) and ``thread_idx`` is ``threads - 1``, so per-frequency and
    per-thread-count factors computed once broadcast onto every point.
    """

    configs: tuple[Configuration, ...]
    freqs: tuple[float, ...]
    freq_idx: np.ndarray
    thread_idx: np.ndarray
    threads: np.ndarray
    duty: np.ndarray


@lru_cache(maxsize=64)
def _grid(spec: CpuSpec, include_modulation: bool, device: str) -> _Grid:
    configs = [
        Configuration(f, n, device=device)
        for f in spec.pstates
        for n in reversed(spec.thread_counts())
    ]
    if include_modulation:
        configs.extend(
            Configuration(spec.fmin_ghz, spec.cores, duty, device)
            for duty in spec.duty_cycles
        )
    freqs = dict.fromkeys(c.freq_ghz for c in configs)
    slot = {f: k for k, f in enumerate(freqs)}
    arrays = (
        np.array([slot[c.freq_ghz] for c in configs], dtype=np.intp),
        np.array([c.threads - 1 for c in configs], dtype=np.intp),
        np.array([c.threads for c in configs], dtype=float),
        np.array([c.duty for c in configs], dtype=float),
    )
    for a in arrays:
        a.flags.writeable = False
    return _Grid(tuple(configs), tuple(freqs), *arrays)


def enumerate_configurations(
    spec: CpuSpec = XEON_E5_2670, include_modulation: bool = False, device: str = ""
) -> list[Configuration]:
    """All admissible configurations of a socket.

    Ordered by descending frequency then descending threads, mirroring the
    paper's Table 1 listing.  Clock-modulated points (below the lowest
    P-state, max threads only) are appended when requested.  Every point
    carries the ``device`` tag (empty: the legacy socket).  The list is
    fresh; its (frozen) configurations are shared with the memoized grid.
    """
    return list(_grid(spec, include_modulation, device).configs)


def measure_task(
    kernel: TaskKernel,
    config: Configuration,
    power_model: SocketPowerModel,
    time_model: TaskTimeModel | None = None,
) -> ConfigPoint:
    """Evaluate one task at one configuration on one socket.

    This is the simulation stand-in for running the task under RAPL
    instrumentation; the runtime's exploration phase and the offline tracer
    both go through here.
    """
    tm = time_model if time_model is not None else TaskTimeModel(power_model.spec)
    duration = tm.duration(kernel, config.freq_ghz, config.threads, config.duty)
    power = power_model.power(
        config.freq_ghz,
        config.threads,
        activity=kernel.activity,
        mem_intensity=kernel.mem_intensity,
        duty=config.duty,
    )
    return ConfigPoint(config=config, duration_s=duration, power_w=power)


@dataclass(frozen=True, eq=False)
class TaskSpace:
    """A task's measured configuration scatter in array form.

    ``durations[k]`` and ``powers[k]`` are the measurements at
    ``configs[k]``; :meth:`points` materializes them, or the rows at given
    positions, as :class:`ConfigPoint` objects.
    """

    configs: tuple[Configuration, ...]
    durations: np.ndarray
    powers: np.ndarray

    def points(self, index: np.ndarray | None = None) -> list[ConfigPoint]:
        """The scatter, or its rows at ``index``, as validated points."""
        idx = range(len(self.configs)) if index is None else index.tolist()
        configs = [self.configs[k] for k in idx]
        durations, powers = self.durations[idx], self.powers[idx]
        rows = zip(configs, durations.tolist(), powers.tolist())
        if not ((durations > 0).all() and (powers > 0).all()):
            # The scalar constructor names the first offending value.
            return [ConfigPoint(c, d, p) for c, d, p in rows]
        # Checked above for every row, so skip the per-point
        # __init__/__post_init__: profiling builds ~10^4 points per sweep.
        # Attribute-wise assignment, as the dataclass __init__ does, keeps
        # the compact instance layout that a __dict__ write would expand.
        new, put, points = object.__new__, object.__setattr__, []
        for c, d, p in rows:
            point = new(ConfigPoint)
            put(point, "config", c)
            put(point, "duration_s", d)
            put(point, "power_w", p)
            points.append(point)
        return points


def task_spaces(
    kernels: KernelArrays,
    power_model: SocketPowerModel,
    spec: CpuSpec | None = None,
    include_modulation: bool = False,
    device: str = "",
    time_scale: float = 1.0,
    efficiency: np.ndarray | None = None,
) -> tuple[tuple[Configuration, ...], np.ndarray, np.ndarray]:
    """Measure K kernels over a socket's whole configuration grid at once.

    Returns the grid's configurations and (K, N) duration and power
    arrays, row ``i`` measuring ``kernels.kernels[i]``.  Durations follow
    ``TaskTimeModel(spec)`` scaled by ``time_scale``; powers follow
    ``power_model`` with row ``i`` scaled by ``efficiency[i]`` (default:
    the model's own), so sockets differing only in efficiency share one
    pass.  The per-thread Amdahl/memory factors and the per-frequency
    dynamic power are broadcast over the grid in the scalar models'
    operation order — the frequency power law with Python ``**``, once
    per frequency — so every float equals the :func:`measure_task` result.
    """
    cpu = spec if spec is not None else power_model.spec
    if cpu.cores > power_model.spec.cores:
        raise ValueError(
            f"threads must be in [1, {power_model.spec.cores}], got {cpu.cores}"
        )
    grid = _grid(cpu, include_modulation, device)
    ka = kernels
    n = np.array(cpu.thread_counts(), dtype=np.int64)
    g = (1.0 - ka.pf[:, None]) + ka.pf[:, None] / n
    cpu_t = ka.cpu[:, None] * g
    base = (1.0 - ka.pm[:, None]) + ka.pm[:, None] / np.minimum(n, ka.sat[:, None])
    over = np.maximum(0, n - ka.ct[:, None])
    mem_t = ka.mem[:, None] * (base * (1.0 + ka.cp[:, None] * over))
    slowdown = np.array([cpu.fmax_ghz / f for f in grid.freqs])
    p = power_model.params
    fmax = power_model.spec.fmax_ghz
    rel_pow = np.array([(f / fmax) ** p.freq_exponent for f in grid.freqs])
    dyn = (ka.activity * p.p_core_dyn_max)[:, None] * rel_pow
    t, fi, duty = grid.thread_idx, grid.freq_idx, grid.duty
    durations = (cpu_t[:, t] * slowdown[fi] + mem_t[:, t]) / duty * time_scale
    uncore = p.p_uncore_idle + (p.p_uncore_mem * ka.mem_int)[:, None] * duty
    per_core = p.p_core_leak + dyn[:, fi] * duty
    eff = (
        np.full(len(ka.kernels), power_model.efficiency)
        if efficiency is None
        else np.asarray(efficiency, dtype=float)
    )
    powers = eff[:, None] * (uncore + grid.threads * per_core)
    return grid.configs, durations, powers


def task_space(
    kernel: TaskKernel,
    power_model: SocketPowerModel,
    spec: CpuSpec | None = None,
    include_modulation: bool = False,
    device: str = "",
    time_scale: float = 1.0,
) -> TaskSpace:
    """Measure one task over a socket's whole configuration grid: the
    K=1 case of :func:`task_spaces`, with the same floats as per-point
    :func:`measure_task` calls."""
    configs, durations, powers = task_spaces(
        KernelArrays.of([kernel]), power_model, spec, include_modulation,
        device, time_scale,
    )
    return TaskSpace(configs, durations[0], powers[0])


def measure_task_space(
    kernel: TaskKernel,
    power_model: SocketPowerModel,
    spec: CpuSpec | None = None,
    include_modulation: bool = False,
) -> list[ConfigPoint]:
    """Measure a task across the entire configuration space (Figure 1 data)."""
    return task_space(kernel, power_model, spec, include_modulation).points()
