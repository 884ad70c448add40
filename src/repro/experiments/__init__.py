"""Experiment harness: regenerate every table and figure of the paper."""

from .figures import (
    BENCH_CAPS,
    ScenarioSweepFigure,
    benchmark_config,
    figure1_pareto_frontier,
    figure8_flow_vs_fixed,
    figure9_lp_vs_static,
    figure10_lp_vs_conductor,
    figure11_comd,
    figure12_comd_task_scatter,
    figure13_bt,
    figure14_sp,
    figure15_lulesh,
    headline_summary,
    scenario_sweep_figure,
)
from .figures_svg import exhibit_to_svg, figure1_svg, figure8_svg, figure12_svg, sweep_svg
from .regression import DriftReport, verify_reference_results
from .report import render_kv, render_series, render_table
from .sensitivity import SensitivityResult, sensitivity_analysis
from .runner import (
    DEFAULT_CAPS_W,
    ComparisonResult,
    ExperimentConfig,
    comparison_spec,
    improvement_pct,
    make_power_models,
    run_comparison,
    sweep_caps,
)
from .tables import (
    FrontierResult,
    energy_comparison,
    frontier_table,
    minimum_cap_table,
    overheads_summary,
    scenario_summary,
    table3_lulesh_task_characteristics,
)

__all__ = [
    "BENCH_CAPS",
    "ComparisonResult",
    "DEFAULT_CAPS_W",
    "ExperimentConfig",
    "FrontierResult",
    "ScenarioSweepFigure",
    "benchmark_config",
    "comparison_spec",
    "energy_comparison",
    "exhibit_to_svg",
    "figure1_pareto_frontier",
    "figure8_flow_vs_fixed",
    "figure9_lp_vs_static",
    "figure10_lp_vs_conductor",
    "figure11_comd",
    "figure12_comd_task_scatter",
    "figure13_bt",
    "figure14_sp",
    "figure15_lulesh",
    "frontier_table",
    "headline_summary",
    "improvement_pct",
    "make_power_models",
    "minimum_cap_table",
    "overheads_summary",
    "render_kv",
    "render_series",
    "verify_reference_results",
    "render_table",
    "scenario_summary",
    "scenario_sweep_figure",
    "sensitivity_analysis",
    "run_comparison",
    "sweep_caps",
    "table3_lulesh_task_characteristics",
]
