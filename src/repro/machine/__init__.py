"""Machine substrate: CPU, power, performance, Pareto frontiers, RAPL.

This package is the simulation stand-in for the paper's Cab cluster nodes
(dual-socket Xeon E5-2670).  Everything above it — the tracer, the LP, the
runtimes — consumes only the (duration, power) points this package produces
per task configuration, so the substitution of an analytic model for real
hardware leaves those code paths exactly as they would run on a cluster.
"""

from .configuration import (
    ConfigPoint,
    Configuration,
    TaskSpace,
    enumerate_configurations,
    measure_task,
    measure_task_space,
    task_space,
    task_spaces,
)
from .cpu import XEON_E5_2670, CpuSpec, effective_frequency
from .device import (
    LEGACY_DEVICE_ID,
    LEGACY_NODE,
    AcceleratorDevice,
    CpuDevice,
    DeviceKind,
    DeviceSpec,
    GpuDevice,
    NodeSpec,
    device_power_groups,
    device_task_space,
    device_task_spaces,
    get_node,
    measure_device_task_space,
    node_names,
    node_registry,
    rank_nodes,
    single_socket_node,
)
from .frontiers import FrontierProfile, FrontierStore, NodeFrontierStore
from .pareto import (
    convex_frontier,
    frontier_rows,
    lower_hull,
    pareto_frontier,
)
from .performance import KernelArrays, TaskKernel, TaskTimeModel, rank_kernel_arrays
from .power import DEFAULT_POWER_PARAMS, PowerModelParams, SocketPowerModel
from .rapl import RaplController, RaplDecision, RaplSettlement
from .variability import make_power_models, sample_socket_efficiencies

__all__ = [
    "AcceleratorDevice",
    "ConfigPoint",
    "Configuration",
    "CpuDevice",
    "CpuSpec",
    "DEFAULT_POWER_PARAMS",
    "DeviceKind",
    "DeviceSpec",
    "FrontierProfile",
    "FrontierStore",
    "GpuDevice",
    "KernelArrays",
    "LEGACY_DEVICE_ID",
    "LEGACY_NODE",
    "NodeFrontierStore",
    "NodeSpec",
    "PowerModelParams",
    "RaplController",
    "RaplDecision",
    "RaplSettlement",
    "SocketPowerModel",
    "TaskKernel",
    "TaskSpace",
    "TaskTimeModel",
    "XEON_E5_2670",
    "convex_frontier",
    "device_power_groups",
    "device_task_space",
    "device_task_spaces",
    "effective_frequency",
    "enumerate_configurations",
    "frontier_rows",
    "get_node",
    "lower_hull",
    "make_power_models",
    "measure_device_task_space",
    "measure_task",
    "measure_task_space",
    "node_names",
    "node_registry",
    "pareto_frontier",
    "rank_kernel_arrays",
    "rank_nodes",
    "sample_socket_efficiencies",
    "single_socket_node",
    "task_space",
    "task_spaces",
]
