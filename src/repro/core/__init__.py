"""Core contribution: LP and ILP formulations of power-constrained scheduling.

All formulations compile from the shared :mod:`.model` IR: build a
:class:`ProblemInstance` once per trace, compile each formulation's
:class:`LinearProgram` from it, and decode solutions through the public
:func:`extract_schedule`.
"""

from .energy_lp import EnergyLpResult, compile_energy, solve_energy_lp
from .events import EventStructure, build_event_structure
from .fixed_order_lp import (
    FixedOrderLpResult,
    compile_fixed_order,
    solve_fixed_order_lp,
)
from .flow_ilp import (
    MAX_FLOW_ILP_EDGES,
    FlowIlpResult,
    compile_flow_ilp,
    solve_flow_ilp,
)
from .model import (
    CAP_ROW_TAG,
    MODEL_LAYER_VERSION,
    CompiledModel,
    ProblemInstance,
    TaskFrontier,
    base_model,
    build_problem_instance,
    extract_schedule,
)
from .rounding import round_schedule
from .schedule import PowerSchedule, TaskArrays, TaskAssignment
from .serialize import schedule_from_dict, schedule_to_dict
from .solver import (
    FrozenProgram,
    InfeasibleError,
    LinearProgram,
    LpSolution,
    LpStatus,
)
from .sweep import (
    CapSweepResult,
    ParametricCapSolver,
    minimum_feasible_cap,
    solve_cap_sweep,
)
from .validate_schedule import ValidationReport, validate_schedule

__all__ = [
    "CAP_ROW_TAG",
    "CapSweepResult",
    "CompiledModel",
    "EnergyLpResult",
    "EventStructure",
    "FixedOrderLpResult",
    "FlowIlpResult",
    "FrozenProgram",
    "InfeasibleError",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MAX_FLOW_ILP_EDGES",
    "MODEL_LAYER_VERSION",
    "ParametricCapSolver",
    "PowerSchedule",
    "ProblemInstance",
    "TaskArrays",
    "TaskAssignment",
    "TaskFrontier",
    "ValidationReport",
    "base_model",
    "build_event_structure",
    "build_problem_instance",
    "compile_energy",
    "compile_fixed_order",
    "compile_flow_ilp",
    "extract_schedule",
    "round_schedule",
    "schedule_from_dict",
    "schedule_to_dict",
    "solve_energy_lp",
    "solve_fixed_order_lp",
    "solve_flow_ilp",
    "validate_schedule",
    "minimum_feasible_cap",
    "solve_cap_sweep",
]
