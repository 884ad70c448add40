"""Power-allocation runtimes evaluated against the LP bound."""

from .adagio import SlackEstimator, slowest_fitting_point, task_key
from .adagio_policy import AdagioPolicy
from .conductor import ConductorConfig, ConductorPolicy
from .config_search import ConfigSearchPolicy, energy_optimal_point
from .dvfs_energy import DvfsEnergyPolicy, min_energy_fitting_point
from .selection_only import SelectionOnlyPolicy
from .static import StaticPolicy

__all__ = [
    "AdagioPolicy",
    "ConductorConfig",
    "ConductorPolicy",
    "ConfigSearchPolicy",
    "DvfsEnergyPolicy",
    "SelectionOnlyPolicy",
    "SlackEstimator",
    "StaticPolicy",
    "energy_optimal_point",
    "min_energy_fitting_point",
    "slowest_fitting_point",
    "task_key",
]
