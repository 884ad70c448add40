"""MPI discrete-event simulator: programs, engine, network, tracing, replay."""

from .exploration_trace import (
    RotatingExplorationPolicy,
    trace_from_exploration,
)
from .engine import (
    ConfigPolicy,
    Engine,
    MaxPerformancePolicy,
    SimulationResult,
    TaskRecord,
)
from .network import IB_QDR, NetworkModel
from .program import (
    Application,
    CollectiveOp,
    ComputeOp,
    IrecvOp,
    IsendOp,
    Op,
    PcontrolOp,
    RecvOp,
    SendOp,
    TaskRef,
    WaitOp,
)
from .replay import (
    ReplayOutcome,
    ReplayPolicy,
    build_replay_sweep_plan,
    replay_schedule,
    replay_schedule_sweep,
)
from .telemetry import (
    PowerTimeline,
    job_power_timeline,
    rank_power_timeline,
    verify_power_cap,
)
from .trace import Trace, build_dag, trace_application

__all__ = [
    "Application",
    "CollectiveOp",
    "ComputeOp",
    "ConfigPolicy",
    "Engine",
    "IB_QDR",
    "IrecvOp",
    "IsendOp",
    "MaxPerformancePolicy",
    "NetworkModel",
    "Op",
    "PcontrolOp",
    "PowerTimeline",
    "RecvOp",
    "ReplayOutcome",
    "ReplayPolicy",
    "RotatingExplorationPolicy",
    "SendOp",
    "SimulationResult",
    "TaskRecord",
    "TaskRef",
    "Trace",
    "WaitOp",
    "build_dag",
    "job_power_timeline",
    "rank_power_timeline",
    "replay_schedule",
    "replay_schedule_sweep",
    "build_replay_sweep_plan",
    "trace_application",
    "trace_from_exploration",
    "verify_power_cap",
]
