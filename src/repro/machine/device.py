"""Typed devices and heterogeneous nodes.

The paper's machine is one homogeneous Xeon socket per rank; the machine
layer above generalizes that to a *node* — a set of typed devices (big-core
CPU, efficiency-core CPU, GPU, fixed-function accelerator) sharing one
node-level power cap.  Each device carries its own operating-point table
(DVFS states x thread counts for CPUs, DVFS states for GPUs, fixed points
for accelerators) and its own power/performance model, and tags the
:class:`~repro.machine.configuration.Configuration` points it emits with
its ``device_id``.  Everything downstream — frontiers, the LP, the
simulator — consumes device-qualified ``ConfigPoint``s, so a task's
frontier on a heterogeneous node simply merges the per-device scatters and
the LP's per-task choice becomes a (device, freq, threads) triple.

The legacy homogeneous machine is the one-device node built by
:func:`single_socket_node`: its CPU device keeps the reserved empty
``device_id``, so the configurations it emits compare equal to the
pre-refactor ones and every legacy code path is bit-identical.

EcoShift-style CPU<->GPU power shifting (arXiv:2604.17635) is the headline
consumer: under one aggregate node cap the LP is free to move watts between
devices per task, whereas a static split pins each device group to a fixed
share (see :mod:`repro.core.device_split`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Protocol, runtime_checkable

import numpy as np

from .configuration import (
    ConfigPoint,
    Configuration,
    TaskSpace,
    enumerate_configurations,
    task_spaces,
)
from .cpu import CpuSpec, XEON_E5_2670
from .performance import KernelArrays, TaskKernel, TaskTimeModel
from .power import DEFAULT_POWER_PARAMS, PowerModelParams, SocketPowerModel

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "CpuDevice",
    "GpuDevice",
    "AcceleratorDevice",
    "NodeSpec",
    "LEGACY_DEVICE_ID",
    "LEGACY_NODE",
    "EFFICIENCY_CORE_CLUSTER",
    "single_socket_node",
    "node_registry",
    "node_names",
    "get_node",
    "rank_nodes",
    "device_power_groups",
    "measure_device_task_space",
    "device_task_space",
    "device_task_spaces",
]

#: The reserved device id of the legacy homogeneous socket.  Configurations
#: tagged with it are exactly the pre-refactor ``Configuration(f, n)``
#: literals, which is what keeps one-device nodes bit-identical to the
#: original ``FrontierStore`` / engine paths.
LEGACY_DEVICE_ID = ""


class DeviceKind(str, enum.Enum):
    """The four device archetypes a node may compose."""

    CPU_BIG = "cpu-big"
    CPU_EFFICIENCY = "cpu-efficiency"
    GPU = "gpu"
    ACCELERATOR = "accelerator"


_CPU_KINDS = (DeviceKind.CPU_BIG, DeviceKind.CPU_EFFICIENCY)


@runtime_checkable
class DeviceSpec(Protocol):
    """What every typed device must expose.

    A device is a pure model: it enumerates its admissible operating
    points (each tagged with its ``device_id``) and evaluates any task
    kernel's (duration, power) at any of them.  Frontier construction,
    the LP, and the simulator never look past this surface.
    """

    device_id: str

    @property
    def kind(self) -> DeviceKind: ...

    def operating_points(self) -> list[Configuration]: ...

    def supports(self, kernel: TaskKernel) -> bool: ...

    def duration(self, kernel: TaskKernel, config: Configuration) -> float: ...

    def power(self, kernel: TaskKernel, config: Configuration) -> float: ...

    def idle_power(self) -> float: ...

    def to_doc(self) -> dict: ...


def _spec_doc(obj) -> dict:
    """A frozen dataclass as a plain field dict (canonical-json friendly)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class CpuDevice:
    """A CPU device: a socket (or core cluster) with DVFS and OpenMP threads.

    Delegates timing to :class:`TaskTimeModel` and power to
    :class:`SocketPowerModel`, the exact models of the legacy homogeneous
    path, so a ``CpuDevice`` wrapping ``XEON_E5_2670`` with the reserved
    empty ``device_id`` reproduces the original measurements bit for bit.
    Efficiency-core clusters are the same shape with a smaller
    :class:`CpuSpec`, cheaper power constants, and ``time_scale > 1``
    (lower IPC at equal clocks).
    """

    device_id: str = LEGACY_DEVICE_ID
    kind: DeviceKind = DeviceKind.CPU_BIG
    spec: CpuSpec = XEON_E5_2670
    params: PowerModelParams = DEFAULT_POWER_PARAMS
    efficiency: float = 1.0
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _CPU_KINDS:
            raise ValueError(f"CpuDevice kind must be a CPU kind, got {self.kind}")
        if self.efficiency <= 0:
            raise ValueError(f"efficiency must be positive, got {self.efficiency}")
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")

    @cached_property
    def power_model(self) -> SocketPowerModel:
        return SocketPowerModel(
            spec=self.spec, params=self.params, efficiency=self.efficiency
        )

    @cached_property
    def time_model(self) -> TaskTimeModel:
        return TaskTimeModel(self.spec)

    def operating_points(self) -> list[Configuration]:
        """Every (freq, threads, duty) point, tagged with this device id."""
        return enumerate_configurations(self.spec, device=self.device_id)

    def supports(self, kernel: TaskKernel) -> bool:
        """CPUs run everything."""
        return True

    def duration(self, kernel: TaskKernel, config: Configuration) -> float:
        """Task time at ``config``: the legacy CPU model times ``time_scale``."""
        base = self.time_model.duration(
            kernel, config.freq_ghz, config.threads, config.duty
        )
        return base * self.time_scale

    def power(self, kernel: TaskKernel, config: Configuration) -> float:
        """Socket power at ``config`` under this kernel's activity."""
        return self.power_model.power(
            config.freq_ghz,
            config.threads,
            activity=kernel.activity,
            mem_intensity=kernel.mem_intensity,
            duty=config.duty,
        )

    def idle_power(self) -> float:
        """Socket idle floor (all cores parked)."""
        return self.power_model.idle_power()

    def to_doc(self) -> dict:
        """Canonical JSON-safe description (cache keys, manifests)."""
        return {
            "type": "cpu",
            "device_id": self.device_id,
            "kind": self.kind.value,
            "spec": _spec_doc(self.spec),
            "params": _spec_doc(self.params),
            "efficiency": self.efficiency,
            "time_scale": self.time_scale,
        }


@dataclass(frozen=True)
class GpuDevice:
    """A GPU: its own DVFS ladder, one logical "configuration" per state.

    The analytic model mirrors the CPU one in shape but with GPU physics:
    the parallel fraction of a kernel runs ``throughput_factor`` times
    faster than one CPU thread at ``fmax`` while the serial remainder
    crawls at ``serial_penalty`` times single-thread CPU time; the memory
    portion rides HBM at ``mem_speedup``.  Power has a high idle floor
    plus dynamic power scaling as ``f^gamma`` and an HBM term.  The net
    effect is the interesting one for power shifting: highly parallel
    kernels are faster per watt on the GPU at generous budgets, while
    serial-heavy kernels and starvation-level budgets favor the CPU.
    """

    device_id: str = "gpu0"
    name: str = "HPC GPU"
    fmin_ghz: float = 0.6
    fmax_ghz: float = 1.4
    fstep_ghz: float = 0.1
    serial_penalty: float = 6.0
    throughput_factor: float = 24.0
    mem_speedup: float = 4.0
    p_idle: float = 14.0
    p_dyn_max: float = 90.0
    p_mem: float = 20.0
    freq_exponent: float = 2.2
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.fmin_ghz <= self.fmax_ghz):
            raise ValueError(
                f"need 0 < fmin <= fmax, got {self.fmin_ghz}..{self.fmax_ghz}"
            )
        if self.fstep_ghz <= 0:
            raise ValueError("fstep must be positive")
        if min(self.serial_penalty, self.throughput_factor, self.mem_speedup) <= 0:
            raise ValueError("speed factors must be positive")
        if min(self.p_idle, self.p_dyn_max, self.p_mem) < 0:
            raise ValueError("power terms must be >= 0")
        if self.efficiency <= 0:
            raise ValueError(f"efficiency must be positive, got {self.efficiency}")

    @property
    def kind(self) -> DeviceKind:
        return DeviceKind.GPU

    @cached_property
    def pstates(self) -> tuple[float, ...]:
        """GPU clock states in GHz, descending (mirrors ``CpuSpec.pstates``)."""
        n = int(round((self.fmax_ghz - self.fmin_ghz) / self.fstep_ghz)) + 1
        freqs = [self.fmax_ghz - self.fstep_ghz * k for k in range(n)]
        freqs[-1] = self.fmin_ghz
        return tuple(float(round(f, 6)) for f in freqs)

    def operating_points(self) -> list[Configuration]:
        """One point per DVFS state (threads=1: the GPU is one offload
        target, not a thread pool)."""
        return [Configuration(f, 1, device=self.device_id) for f in self.pstates]

    def supports(self, kernel: TaskKernel) -> bool:
        """GPUs run everything (badly, when the kernel is serial-heavy)."""
        return True

    def duration(self, kernel: TaskKernel, config: Configuration) -> float:
        """Task time at one GPU clock: Amdahl on throughput cores + HBM."""
        if config.freq_ghz <= 0:
            raise ValueError(f"freq_ghz must be positive, got {config.freq_ghz}")
        rel = self.fmax_ghz / config.freq_ghz
        pf = kernel.parallel_fraction
        cpu = (
            kernel.cpu_seconds
            * ((1.0 - pf) * self.serial_penalty + pf / self.throughput_factor)
            * rel
        )
        pm = kernel.mem_parallel_fraction
        mem = kernel.mem_seconds * (
            (1.0 - pm) * self.serial_penalty + pm / self.mem_speedup
        )
        return (cpu + mem) / config.duty

    def power(self, kernel: TaskKernel, config: Configuration) -> float:
        """Board power: idle floor + f^gamma dynamic + HBM activity."""
        rel = config.freq_ghz / self.fmax_ghz
        dyn = kernel.activity * self.p_dyn_max * rel**self.freq_exponent
        mem = self.p_mem * kernel.mem_intensity
        return self.efficiency * (self.p_idle + (dyn + mem) * config.duty)

    def idle_power(self) -> float:
        """Board idle floor."""
        return self.efficiency * self.p_idle

    def to_doc(self) -> dict:
        """Canonical JSON-safe description (cache keys, manifests)."""
        doc = _spec_doc(self)
        doc["type"] = "gpu"
        doc["kind"] = self.kind.value
        return doc


@dataclass(frozen=True)
class AcceleratorDevice:
    """A fixed-function accelerator: no DVFS, one operating point.

    Runs a kernel's whole work at a fixed ``speedup`` over single-thread
    CPU time for a flat ``p_active`` watts.  When ``supported`` names
    specific kernels, everything else is rejected (``supports`` is False)
    and the node frontier simply omits the accelerator for those tasks.
    """

    device_id: str = "acc0"
    name: str = "Fixed-function accelerator"
    speedup: float = 12.0
    p_active: float = 25.0
    p_idle: float = 2.0
    supported: tuple[str, ...] = ()
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.speedup <= 0:
            raise ValueError(f"speedup must be positive, got {self.speedup}")
        if self.p_active <= 0 or self.p_idle < 0:
            raise ValueError("accelerator power terms must be sensible")
        if self.efficiency <= 0:
            raise ValueError(f"efficiency must be positive, got {self.efficiency}")

    @property
    def kind(self) -> DeviceKind:
        return DeviceKind.ACCELERATOR

    def operating_points(self) -> list[Configuration]:
        """The single fixed point (the nominal 1.0 GHz is a placeholder —
        the accelerator has exactly one speed, identified by device id)."""
        return [Configuration(1.0, 1, device=self.device_id)]

    def supports(self, kernel: TaskKernel) -> bool:
        """Only kernels named in ``supported`` (empty tuple: everything)."""
        return not self.supported or kernel.name in self.supported

    def duration(self, kernel: TaskKernel, config: Configuration) -> float:
        """Whole-kernel time at the fixed ``speedup`` over 1-thread CPU."""
        return kernel.total_reference_seconds / self.speedup / config.duty

    def power(self, kernel: TaskKernel, config: Configuration) -> float:
        """Flat active power (no DVFS), scaled by duty."""
        return self.efficiency * (self.p_idle + self.p_active * config.duty)

    def idle_power(self) -> float:
        """Idle floor."""
        return self.efficiency * self.p_idle

    def to_doc(self) -> dict:
        """Canonical JSON-safe description (cache keys, manifests)."""
        doc = _spec_doc(self)
        doc["type"] = "accelerator"
        doc["kind"] = self.kind.value
        doc["supported"] = list(self.supported)
        return doc


@dataclass(frozen=True)
class NodeSpec:
    """A set of typed devices sharing one node-level power cap.

    The node is the new unit the scenario layer hands around: frontiers
    are built per (rank, kernel) across all of a rank's node's devices,
    and the LP's cap rows sum power over whatever devices the chosen
    configurations live on.
    """

    name: str
    devices: tuple[DeviceSpec, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a node needs at least one device")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate device ids on node {self.name!r}: {ids}")
        if LEGACY_DEVICE_ID in ids and len(ids) > 1:
            raise ValueError(
                "the empty device id is reserved for the legacy "
                "single-device node; name every device of a multi-device node"
            )

    @property
    def device_ids(self) -> tuple[str, ...]:
        return tuple(d.device_id for d in self.devices)

    def device(self, device_id: str) -> DeviceSpec:
        """The device with ``device_id`` (KeyError lists what the node has)."""
        for d in self.devices:
            if d.device_id == device_id:
                return d
        raise KeyError(
            f"node {self.name!r} has no device {device_id!r} "
            f"(has {list(self.device_ids)})"
        )

    @property
    def is_heterogeneous(self) -> bool:
        """True unless this is the legacy one-socket wrapper."""
        return len(self.devices) > 1 or self.devices[0].device_id != LEGACY_DEVICE_ID

    def idle_power(self) -> float:
        """Node idle floor: the sum over all devices."""
        return sum(d.idle_power() for d in self.devices)

    def with_cpu_efficiency(self, efficiency: float) -> "NodeSpec":
        """This node with its CPU devices at a given silicon efficiency.

        Manufacturing variability is modeled per socket (paper §2); on a
        node it lands on the CPU devices so the wrapped legacy node's
        power model matches ``make_power_models`` exactly.  Non-CPU
        devices keep their own efficiency.
        """
        return replace(
            self,
            devices=tuple(
                replace(d, efficiency=float(efficiency))
                if d.kind in _CPU_KINDS
                else d
                for d in self.devices
            ),
        )

    def to_doc(self) -> dict:
        """Canonical JSON-safe description (cache keys, manifests)."""
        return {
            "name": self.name,
            "devices": [d.to_doc() for d in self.devices],
        }


# ----------------------------------------------------------------------
# Named nodes


#: A small efficiency-core cluster: fewer, slower, cheaper cores.
EFFICIENCY_CORE_CLUSTER = CpuSpec(
    name="Efficiency cores",
    cores=4,
    fmin_ghz=0.8,
    fmax_ghz=2.0,
    fstep_ghz=0.1,
    modulation_levels=0,
)

_EFFICIENCY_CORE_PARAMS = PowerModelParams(
    p_uncore_idle=3.0,
    p_uncore_mem=4.0,
    p_core_leak=0.3,
    p_core_dyn_max=2.2,
    freq_exponent=2.2,
    p_idle_socket=2.0,
)

#: Registry name of the legacy homogeneous node.
LEGACY_NODE = "xeon-e5-2670"


def single_socket_node(
    spec: CpuSpec = XEON_E5_2670,
    params: PowerModelParams = DEFAULT_POWER_PARAMS,
    efficiency: float = 1.0,
    name: str = LEGACY_NODE,
) -> NodeSpec:
    """The legacy machine wrapped as a one-device node.

    Its CPU device keeps the reserved empty device id, so configurations,
    frontiers, schedules, and traces produced through it are bit-identical
    to the pre-node code path.
    """
    return NodeSpec(
        name=name,
        devices=(
            CpuDevice(
                device_id=LEGACY_DEVICE_ID,
                kind=DeviceKind.CPU_BIG,
                spec=spec,
                params=params,
                efficiency=efficiency,
            ),
        ),
    )


def node_registry() -> dict[str, NodeSpec]:
    """All named nodes selectable from the CLI via ``--node``."""
    big = CpuDevice(device_id="cpu0", kind=DeviceKind.CPU_BIG)
    gpu = GpuDevice(device_id="gpu0")
    little = CpuDevice(
        device_id="ecpu0",
        kind=DeviceKind.CPU_EFFICIENCY,
        spec=EFFICIENCY_CORE_CLUSTER,
        params=_EFFICIENCY_CORE_PARAMS,
        time_scale=1.3,
    )
    acc = AcceleratorDevice(device_id="acc0")
    return {
        LEGACY_NODE: single_socket_node(),
        "cpu-gpu": NodeSpec(name="cpu-gpu", devices=(big, gpu)),
        "big-little": NodeSpec(name="big-little", devices=(big, little)),
        "cpu-gpu-acc": NodeSpec(name="cpu-gpu-acc", devices=(big, gpu, acc)),
    }


def node_names() -> tuple[str, ...]:
    """Names of every registered node, in registry order."""
    return tuple(node_registry())


def get_node(name: str) -> NodeSpec:
    """The registered node named ``name`` (KeyError lists the choices)."""
    registry = node_registry()
    try:
        return registry[name]
    except KeyError:
        raise KeyError(
            f"unknown node {name!r}; available: {', '.join(sorted(registry))}"
        ) from None


def rank_nodes(node: NodeSpec, power_models: list[SocketPowerModel]) -> list[NodeSpec]:
    """One node instance per rank, with per-rank CPU silicon efficiency.

    Takes the already-sampled per-rank :class:`SocketPowerModel` list so
    the efficiency spread (and therefore the wrapped legacy node's power
    numbers) is exactly the one the rest of the scenario uses.
    """
    return [node.with_cpu_efficiency(pm.efficiency) for pm in power_models]


def device_power_groups(node: NodeSpec) -> dict[str, tuple[str, ...]]:
    """Device ids grouped into the two sides of a static CPU/offload split.

    The EcoShift-style baseline pins a fraction of the node cap on the CPU
    group and the rest on everything else; this is the grouping both the
    split LP and its reporting use.
    """
    cpu = tuple(d.device_id for d in node.devices if d.kind in _CPU_KINDS)
    offload = tuple(d.device_id for d in node.devices if d.kind not in _CPU_KINDS)
    return {"cpu": cpu, "offload": offload}


def device_task_spaces(
    kernels: KernelArrays, device: DeviceSpec
) -> tuple[tuple[Configuration, ...], np.ndarray, np.ndarray]:
    """Measure K tasks across one device's operating-point table.

    Returns the configurations and (K, N) duration and power arrays.  CPU
    devices evaluate all rows over their grid in one numpy pass
    (:func:`~repro.machine.configuration.task_spaces`); other devices are
    measured point by point.
    """
    if isinstance(device, CpuDevice):
        return task_spaces(
            kernels,
            device.power_model,
            device=device.device_id,
            time_scale=device.time_scale,
        )
    configs = tuple(device.operating_points())
    rows = [
        [(device.duration(k, c), device.power(k, c)) for c in configs]
        for k in kernels.kernels
    ]
    table = np.array(rows, dtype=float).reshape(len(rows), len(configs), 2)
    return configs, table[:, :, 0], table[:, :, 1]


def device_task_space(kernel: TaskKernel, device: DeviceSpec) -> TaskSpace:
    """Measure one task across one device's operating-point table, as
    arrays: the K=1 case of :func:`device_task_spaces`."""
    configs, durations, powers = device_task_spaces(KernelArrays.of([kernel]), device)
    return TaskSpace(configs, durations[0], powers[0])


def measure_device_task_space(
    kernel: TaskKernel, device: DeviceSpec
) -> list[ConfigPoint]:
    """Measure a task across one device's entire operating-point table."""
    return device_task_space(kernel, device).points()
