"""repro — reproduction of "Finding the Limits of Power-Constrained
Application Performance" (Bailey et al., SC 2015).

The package computes near-optimal upper bounds on the performance of
hybrid MPI + OpenMP applications under a job-level power constraint, via
the paper's fixed-vertex-order LP and flow-ILP formulations, and evaluates
two runtime power-allocation systems (Static, Conductor) against those
bounds on a fully simulated cluster substrate.

Quick tour (see ``examples/quickstart.py`` for a runnable version)::

    from repro import (
        make_comd, WorkloadSpec, make_power_models,
        trace_application, solve_fixed_order_lp,
    )

    app = make_comd(WorkloadSpec(n_ranks=8, iterations=4))
    models = make_power_models(8)
    trace = trace_application(app, models)
    result = solve_fixed_order_lp(trace, cap_w=8 * 40.0)
    print(result.makespan_s)

Subpackages
-----------
``repro.machine``
    Socket power/performance models, Pareto frontiers, RAPL simulator.
``repro.dag``
    Application task graphs (vertices = MPI events, edges = tasks/messages).
``repro.simulator``
    Discrete-event MPI engine, tracing library, schedule replay.
``repro.core``
    The LP and flow-ILP formulations (the paper's contribution).
``repro.runtime``
    Static, Adagio, and Conductor power-allocation runtimes.
``repro.workloads``
    CoMD / LULESH / NAS-MZ BT / NAS-MZ SP proxy generators.
``repro.scenarios``
    Declarative N-way experiment scenarios over a policy registry.
``repro.experiments``
    Harness regenerating every table and figure of the paper.
"""

from .core import (
    InfeasibleError,
    PowerSchedule,
    round_schedule,
    solve_energy_lp,
    solve_fixed_order_lp,
    solve_flow_ilp,
)
from .experiments import (
    ExperimentConfig,
    make_power_models,
    run_comparison,
    sweep_caps,
)
from .machine import (
    XEON_E5_2670,
    ConfigPoint,
    Configuration,
    CpuSpec,
    RaplController,
    SocketPowerModel,
    TaskKernel,
    TaskTimeModel,
    convex_frontier,
    pareto_frontier,
    sample_socket_efficiencies,
)
from .runtime import ConductorConfig, ConductorPolicy, StaticPolicy
from .scenarios import (
    PolicyRegistry,
    PolicySpec,
    ScenarioResult,
    ScenarioSpec,
    default_registry,
    run_scenarios,
)
from .simulator import (
    Application,
    Engine,
    MaxPerformancePolicy,
    NetworkModel,
    TaskRef,
    Trace,
    replay_schedule,
    trace_application,
)
from .workloads import (
    BENCHMARKS,
    WorkloadSpec,
    make_bt,
    make_comd,
    make_lulesh,
    make_sp,
    two_rank_exchange,
)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "BENCHMARKS",
    "ConductorConfig",
    "ConductorPolicy",
    "ConfigPoint",
    "Configuration",
    "CpuSpec",
    "Engine",
    "ExperimentConfig",
    "InfeasibleError",
    "MaxPerformancePolicy",
    "NetworkModel",
    "PolicyRegistry",
    "PolicySpec",
    "PowerSchedule",
    "RaplController",
    "ScenarioResult",
    "ScenarioSpec",
    "SocketPowerModel",
    "StaticPolicy",
    "TaskKernel",
    "TaskRef",
    "TaskTimeModel",
    "Trace",
    "WorkloadSpec",
    "XEON_E5_2670",
    "__version__",
    "convex_frontier",
    "default_registry",
    "make_bt",
    "make_comd",
    "make_lulesh",
    "make_power_models",
    "make_sp",
    "pareto_frontier",
    "replay_schedule",
    "round_schedule",
    "solve_energy_lp",
    "run_comparison",
    "run_scenarios",
    "sample_socket_efficiencies",
    "solve_fixed_order_lp",
    "solve_flow_ilp",
    "sweep_caps",
    "trace_application",
    "two_rank_exchange",
]
