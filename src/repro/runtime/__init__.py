"""Power-allocation runtimes evaluated against the LP bound."""

from .adagio import SlackEstimator, task_key
from .conductor import ConductorConfig, ConductorPolicy
from .config_search import ConfigSearchPolicy, energy_optimal_point
from .dvfs_energy import DvfsEnergyPolicy, min_energy_fitting_point
from .static import StaticPolicy

__all__ = [
    "ConductorConfig",
    "ConductorPolicy",
    "ConfigSearchPolicy",
    "DvfsEnergyPolicy",
    "SlackEstimator",
    "StaticPolicy",
    "energy_optimal_point",
    "min_energy_fitting_point",
    "task_key",
]
