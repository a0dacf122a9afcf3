"""The paper's artefacts, each built one way and rendered one way.

:data:`TABLES` and :data:`FIGURES` name every table and figure with its
builder; :func:`figure_text`, :func:`figure_json` and
:func:`headline_table` render them, beside
:func:`~repro.analysis.report.render_table` and
:func:`~repro.analysis.export.table_to_csv` for tables.  The CLI's
artefact subcommands and ``build_report(path)`` both go through them.

``build_report`` regenerates Tables 1-4 and Figures 4-8 (text +
machine-readable), the headline comparison, and the thermal summary, and
writes an ``INDEX.md`` tying them together.  This is what the CLI's
``report`` subcommand and release tooling call.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.compare import HeadlineComparison, compare_headlines
from repro.analysis.export import figure_to_json, table_to_csv
from repro.analysis.figures import (
    FigureSeries,
    figure4_breakdown,
    figure5_mercury_latency_sweep,
    figure6_iridium_latency_sweep,
    figure7_density_vs_tps,
    figure8_power_vs_tps,
)
from repro.analysis.report import render_series, render_table
from repro.analysis.tables import (
    table1_components,
    table2_memory_technologies,
    table3_configurations,
    table4_comparison,
)
from repro.core.server import ServerDesign
from repro.core.stack import mercury_stack
from repro.core.thermal import thermal_report
from repro.errors import ConfigurationError

#: Paper tables: name -> (builder returning ``(headers, rows)``, caption).
TABLES: dict[str, tuple[Callable[[], tuple], str]] = {
    "table1": (table1_components, "Table 1: 3D-stack component power/area"),
    "table2": (table2_memory_technologies, "Table 2: memory technologies"),
    "table3": (table3_configurations, "Table 3: 1.5U maximum configurations"),
    "table4": (table4_comparison, "Table 4: comparison to prior art @64B"),
}

#: Paper figures: name -> builder returning the figure's panels.
FIGURES: dict[str, Callable[[], list[FigureSeries]]] = {
    "fig4": figure4_breakdown,
    "fig5": figure5_mercury_latency_sweep,
    "fig6": figure6_iridium_latency_sweep,
    "fig7": figure7_density_vs_tps,
    "fig8": figure8_power_vs_tps,
}


def figure_text(panels: Sequence[FigureSeries]) -> str:
    """A figure's panels as captioned text tables, one per panel."""
    return "\n\n".join(
        render_series(p.x_label, p.x_values, p.series, caption=p.title)
        for p in panels
    )


def figure_json(panels: Sequence[FigureSeries]) -> str:
    """A figure's panels as one JSON list."""
    return json.dumps([json.loads(figure_to_json(p)) for p in panels], indent=2)


def headline_table(comparisons: Sequence[HeadlineComparison]) -> str:
    """Paper-vs-measured headline ratios as an aligned text table."""
    lines = [
        "Abstract headline ratios (vs Bags unless noted):",
        f"{'metric':40s}  {'paper':>7s}  {'ours':>7s}  {'error':>6s}",
    ]
    for c in comparisons:
        lines.append(
            f"{c.name:40s}  {c.paper:7.2f}  {c.measured:7.2f}  {c.relative_error:6.0%}"
        )
    return "\n".join(lines)


def build_report(directory: str | Path) -> list[Path]:
    """Write every artefact under ``directory``; returns written paths."""
    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise ConfigurationError(f"{directory} exists and is not a directory")
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str) -> None:
        path = directory / name
        path.write_text(text)
        written.append(path)

    index_lines = [
        "# Reproduction report",
        "",
        "Regenerated artefacts for *Integrated 3D-Stacked Server Designs "
        "for Increasing Physical Density of Key-Value Stores* (ASPLOS 2014).",
        "",
    ]

    for name, (builder, caption) in TABLES.items():
        headers, rows = builder()
        write(f"{name}.txt", render_table(headers, rows, caption=caption) + "\n")
        write(f"{name}.csv", table_to_csv(headers, rows))
        index_lines.append(f"- **{caption}** — [{name}.txt]({name}.txt), "
                           f"[{name}.csv]({name}.csv)")

    for name, builder in FIGURES.items():
        panels = builder()
        write(f"{name}.txt", figure_text(panels) + "\n")
        write(f"{name}.json", figure_json(panels))
        index_lines.append(f"- **{panels[0].title.split(':')[0]}** — "
                           f"[{name}.txt]({name}.txt), [{name}.json]({name}.json)")

    comparisons = compare_headlines()
    worst = max(c.relative_error for c in comparisons)
    write(
        "headlines.txt",
        f"{headline_table(comparisons)}\n\nworst-case error: {worst:.0%}\n",
    )
    index_lines.append("- **Headline ratios** — [headlines.txt](headlines.txt)")

    thermal = thermal_report(ServerDesign(stack=mercury_stack(32)))
    write(
        "thermal.txt",
        f"{thermal.name}: {thermal.stacks} stacks, server TDP "
        f"{thermal.server_tdp_w:.0f} W, {thermal.per_stack_tdp_w:.2f} W/stack, "
        f"passively coolable: {thermal.passively_coolable}\n",
    )
    index_lines.append("- **Thermal check (S6.5)** — [thermal.txt](thermal.txt)")

    write("INDEX.md", "\n".join(index_lines) + "\n")
    return written
