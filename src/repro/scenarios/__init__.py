"""Declarative N-way experiment scenarios.

This layer replaces the hardwired Static/Conductor/LP triple with data: a
:class:`ScenarioSpec` names a benchmark, a cap grid, and an ordered list
of policies drawn from a :class:`PolicyRegistry`, and
:func:`run_scenarios` evaluates the full cross product into a
:class:`ScenarioResult` table.  Every policy the repo implements — the
:mod:`repro.runtime` runtimes and the LP/ILP bounds — is pre-registered
in :func:`default_registry`, so comparisons like
``static vs conductor vs adagio vs lp`` are one spec away, with caching,
parallel fan-out, trace scopes, and manifest provenance all derived from
the spec itself.  See ``docs/scenarios.md``.
"""

from .registry import (
    BoundResult,
    PolicyContext,
    PolicyEntry,
    PolicyRegistry,
    default_registry,
)
from .run import (
    PolicyOutcome,
    ScenarioCell,
    ScenarioResult,
    run_scenario_cell,
    run_scenarios,
)
from .spec import (
    SCENARIO_BENCHMARKS,
    SCENARIO_LAYER_VERSION,
    PolicySpec,
    ScenarioSpec,
    make_synthetic,
)

__all__ = [
    "SCENARIO_BENCHMARKS",
    "SCENARIO_LAYER_VERSION",
    "BoundResult",
    "PolicyContext",
    "PolicyEntry",
    "PolicyOutcome",
    "PolicyRegistry",
    "PolicySpec",
    "ScenarioCell",
    "ScenarioResult",
    "ScenarioSpec",
    "default_registry",
    "make_synthetic",
    "run_scenario_cell",
    "run_scenarios",
]
