"""Regeneration of the paper's tables and figures, plus comparisons."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.tables": (
        "table1_components",
        "table2_memory_technologies",
        "table3_configurations",
        "table4_comparison",
    ),
    "repro.analysis.figures": (
        "figure4_breakdown",
        "figure5_mercury_latency_sweep",
        "figure6_iridium_latency_sweep",
        "figure7_density_vs_tps",
        "figure8_power_vs_tps",
    ),
    "repro.analysis.report": ("render_table", "render_series"),
    "repro.analysis.compare": (
        "PAPER_HEADLINES",
        "headline_ratios",
        "compare_headlines",
    ),
    "repro.analysis.sensitivity": ("sensitivity_sweep", "headline_under", "perturb"),
    "repro.analysis.validation": ("validate_stack", "validation_table"),
    "repro.analysis.export": (
        "figure_to_json",
        "table_to_csv",
        "table_to_json",
        "write_artefact",
    ),
    "repro.analysis.report_builder": ("build_report",),
    "repro.analysis.diurnal": ("DayReport", "day_in_the_life", "fleet_for_peak"),
    "repro.analysis.pareto": ("ParetoPoint", "pareto_frontier"),
    "repro.analysis.crossover": (
        "find_crossover",
        "iridium_put_fraction_crossover",
        "mercury_efficiency_factor_crossover",
        "mercury_iridium_tco_crossover",
    ),
    "repro.analysis.ascii_chart": ("bar_chart", "series_chart"),
    # Also an executable module (python -m repro.analysis.bench_track):
    # an eager import here would make runpy warn that it is already in
    # sys.modules.
    "repro.analysis.bench_track": (
        "append_run",
        "load_history",
        "regression_report",
        "render_report",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
