"""Analytic task performance model.

A *task* is the computation between two consecutive MPI calls on one rank
(a DAG edge in the paper's terminology).  Its execution time in a
configuration (frequency f, threads n, duty d) follows a two-component
model:

``t(f, n, d) = [ T_cpu * g(n) * (fmax / f)  +  T_mem * h(n) ] / d``

* The **compute** component scales inversely with clock frequency and with
  thread count through an Amdahl term ``g(n) = (1 - pf) + pf / n``.
* The **memory** component is frequency-insensitive (DRAM latency and
  bandwidth do not track core clocks) and scales with threads only up to a
  bandwidth-saturation point, beyond which extra threads add *cache
  contention*: ``h(n) = ((1 - pm) + pm / min(n, sat)) * (1 + cp * max(0, n - ct))``.

The contention term is what makes fewer-than-max threads Pareto-optimal at
moderate power for LULESH (Table 3 of the paper: 5 threads beat 8 at a
50 W cap) while CoMD-like kernels keep 8 threads on the frontier except at
the lowest frequency (Table 1).

Clock modulation (duty < 1) stalls the entire core for (1-d) of each
window, so both components stretch by 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cpu import CpuSpec, XEON_E5_2670

__all__ = ["KernelArrays", "TaskKernel", "TaskTimeModel", "rank_kernel_arrays"]


@dataclass(frozen=True)
class TaskKernel:
    """Computational character of one task (DAG edge).

    Attributes
    ----------
    cpu_seconds:
        Single-thread execution time of the frequency-scalable portion at
        ``fmax``.
    mem_seconds:
        Single-thread execution time of the memory-bound portion.
    parallel_fraction:
        Amdahl parallel fraction of the compute portion.
    mem_parallel_fraction:
        Parallelizable fraction of the memory portion.
    bw_saturation_threads:
        Thread count at which memory bandwidth saturates; additional threads
        do not speed up the memory portion.
    contention_threshold:
        Thread count beyond which shared-cache contention sets in.
    contention_penalty:
        Fractional slowdown of the memory portion per thread beyond the
        threshold.
    activity:
        Dynamic-power activity factor kappa for the power model.
    mem_intensity:
        Memory-system activity in [0, 1] for the uncore power term.
    name:
        Optional label for tracing / reporting.
    """

    cpu_seconds: float
    mem_seconds: float = 0.0
    parallel_fraction: float = 0.99
    mem_parallel_fraction: float = 0.95
    bw_saturation_threads: int = 8
    contention_threshold: int = 8
    contention_penalty: float = 0.0
    activity: float = 1.0
    mem_intensity: float = 0.2
    name: str = ""

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0 or self.mem_seconds < 0:
            raise ValueError("work components must be >= 0")
        if self.cpu_seconds == 0 and self.mem_seconds == 0:
            raise ValueError("task must have some work")
        for frac_name in ("parallel_fraction", "mem_parallel_fraction", "mem_intensity"):
            v = getattr(self, frac_name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{frac_name} must be in [0,1], got {v}")
        if self.bw_saturation_threads < 1 or self.contention_threshold < 1:
            raise ValueError("thread thresholds must be >= 1")
        if self.contention_penalty < 0:
            raise ValueError("contention_penalty must be >= 0")
        if self.activity < 0:
            raise ValueError("activity must be >= 0")

    def scaled(self, factor: float) -> "TaskKernel":
        """A kernel with all work multiplied by ``factor`` (load imbalance)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            cpu_seconds=self.cpu_seconds * factor,
            mem_seconds=self.mem_seconds * factor,
        )

    @property
    def total_reference_seconds(self) -> float:
        """Single-thread time at fmax — a convenient magnitude handle."""
        return self.cpu_seconds + self.mem_seconds


class TaskTimeModel:
    """Evaluate task duration for arbitrary configurations.

    Stateless aside from the CPU spec; shared by the simulator, the tracer,
    and configuration-space enumeration.
    """

    def __init__(self, spec: CpuSpec = XEON_E5_2670) -> None:
        self.spec = spec

    def compute_speedup_denominator(self, kernel: TaskKernel, threads: int) -> float:
        """g(n): the Amdahl term of the compute component."""
        pf = kernel.parallel_fraction
        return (1.0 - pf) + pf / threads

    def memory_time_factor(self, kernel: TaskKernel, threads: int) -> float:
        """h(n): bandwidth-saturating scaling with the contention penalty."""
        pm = kernel.mem_parallel_fraction
        effective = min(threads, kernel.bw_saturation_threads)
        base = (1.0 - pm) + pm / effective
        over = max(0, threads - kernel.contention_threshold)
        return base * (1.0 + kernel.contention_penalty * over)

    def duration(
        self,
        kernel: TaskKernel,
        freq_ghz: float,
        threads: int,
        duty: float = 1.0,
    ) -> float:
        """Task execution time in seconds for the given configuration."""
        if not (1 <= threads <= self.spec.cores):
            raise ValueError(
                f"threads must be in [1, {self.spec.cores}], got {threads}"
            )
        if freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {freq_ghz}")
        if not (0.0 < duty <= 1.0):
            raise ValueError(f"duty must be in (0,1], got {duty}")
        cpu = (
            kernel.cpu_seconds
            * self.compute_speedup_denominator(kernel, threads)
            * (self.spec.fmax_ghz / freq_ghz)
        )
        mem = kernel.mem_seconds * self.memory_time_factor(kernel, threads)
        return (cpu + mem) / duty

    def best_duration(self, kernel: TaskKernel) -> float:
        """Fastest achievable duration over all admissible configurations."""
        return min(
            self.duration(kernel, self.spec.fmax_ghz, n)
            for n in self.spec.thread_counts()
        )

    def best_threads(self, kernel: TaskKernel) -> int:
        """Thread count minimizing duration at fmax (ties -> fewer threads)."""
        counts = self.spec.thread_counts()
        durations = [self.duration(kernel, self.spec.fmax_ghz, n) for n in counts]
        best = min(range(len(counts)), key=lambda i: (durations[i], counts[i]))
        return counts[best]


@dataclass(frozen=True)
class KernelArrays:
    """A list of task kernels with each parameter as a dense array.

    Row ``i`` of every array is ``kernels[i]``'s parameter; the frontier
    table and the plan-building policies evaluate all rows in one numpy
    pass.
    """

    kernels: list
    cpu: np.ndarray
    mem: np.ndarray
    pf: np.ndarray
    pm: np.ndarray
    sat: np.ndarray
    ct: np.ndarray
    cp: np.ndarray
    activity: np.ndarray
    mem_int: np.ndarray

    @classmethod
    def of(cls, kernels: list[TaskKernel]) -> "KernelArrays":
        """Gather the parameters of ``kernels``, in order."""
        return cls(
            kernels=list(kernels),
            cpu=np.array([k.cpu_seconds for k in kernels], dtype=float),
            mem=np.array([k.mem_seconds for k in kernels], dtype=float),
            pf=np.array([k.parallel_fraction for k in kernels], dtype=float),
            pm=np.array([k.mem_parallel_fraction for k in kernels], dtype=float),
            sat=np.array([k.bw_saturation_threads for k in kernels], dtype=np.int64),
            ct=np.array([k.contention_threshold for k in kernels], dtype=np.int64),
            cp=np.array([k.contention_penalty for k in kernels], dtype=float),
            activity=np.array([k.activity for k in kernels], dtype=float),
            mem_int=np.array([k.mem_intensity for k in kernels], dtype=float),
        )

    @classmethod
    def concat(cls, parts: list["KernelArrays"]) -> "KernelArrays":
        """The rows of ``parts``, one after another."""
        if not parts:
            return cls.of([])
        return cls(
            [k for part in parts for k in part.kernels],
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name in _PARAMS
            ),
        )

    def columns(self, rows: np.ndarray | None = None) -> "KernelArrays":
        """The same parameters shaped ``[n_tasks, 1]``, so evaluators
        broadcast them against ``[n_tasks, n_points]`` configuration
        arrays (the elementwise expressions, and so the result bits, are
        unchanged).  ``rows`` selects those rows only (and no kernels)."""
        if rows is None:
            return KernelArrays(
                self.kernels, *(getattr(self, name)[:, None] for name in _PARAMS)
            )
        return KernelArrays(
            None, *(getattr(self, name)[rows][:, None] for name in _PARAMS)
        )


_PARAMS = ("cpu", "mem", "pf", "pm", "sat", "ct", "cp", "activity", "mem_int")


def rank_kernel_arrays(app) -> list[KernelArrays]:
    """Each rank's compute kernels, in task-sequence order, as arrays.

    ``app`` is a simulator ``Application`` (anything with ``programs``,
    ``n_ranks`` and ``compute_ops(rank)``).  The gather is cached on the
    application with a snapshot of its op lists: sweeps replay the same
    app at many caps, and the frontier table and the plan-building
    policies all read it, while a program changed since (an op added,
    removed or replaced by an unequal one) is gathered again.
    """
    snapshot = tuple(map(tuple, app.programs))
    cached = app.__dict__.get("_plan_kernel_arrays")
    if cached is not None and cached[0] == snapshot:
        return cached[1]
    arrays = [
        KernelArrays.of([op.kernel for op in app.compute_ops(rank)])
        for rank in range(app.n_ranks)
    ]
    app._plan_kernel_arrays = (snapshot, arrays)
    return arrays
