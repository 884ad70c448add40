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
from .frontiers import FrontierProfile, FrontierStore
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
    "ConfigPoint",
    "Configuration",
    "CpuSpec",
    "DEFAULT_POWER_PARAMS",
    "FrontierProfile",
    "FrontierStore",
    "KernelArrays",
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
    "effective_frequency",
    "enumerate_configurations",
    "frontier_rows",
    "lower_hull",
    "make_power_models",
    "measure_task",
    "measure_task_space",
    "pareto_frontier",
    "rank_kernel_arrays",
    "sample_socket_efficiencies",
    "task_space",
    "task_spaces",
]
