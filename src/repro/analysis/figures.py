"""Builders for the paper's figures (data series, not plots).

Each function returns the series a plotting tool (or the benchmark's text
renderer) needs to reproduce the figure: x values plus named y series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.design_space import CORES_PER_STACK_SWEEP, EVALUATED_CORES
from repro.core.latency_model import LatencyModel, dram_spec, flash_spec
from repro.core.metrics import OperatingPoint, evaluate_server
from repro.core.server import ServerDesign
from repro.core.stack import iridium_stack, mercury_stack
from repro.cpu.core_model import CORTEX_A7, CORTEX_A15_1GHZ, CoreModel
from repro.units import NS, US
from repro.workloads.sweep import REQUEST_SIZE_SWEEP, sweep_labels

#: DRAM access latencies swept in Fig. 5.
FIG5_DRAM_LATENCIES_S: tuple[float, ...] = (10 * NS, 30 * NS, 50 * NS, 100 * NS)

#: Flash read latencies swept in Fig. 6 (write latency fixed at 200 us).
FIG6_FLASH_READ_LATENCIES_S: tuple[float, ...] = (10 * US, 20 * US)


@dataclass(frozen=True)
class FigureSeries:
    """One figure panel: x values, labels, and named y series."""

    title: str
    x_label: str
    x_values: tuple
    series: dict[str, tuple[float, ...]]


def figure4_breakdown(core: CoreModel = CORTEX_A15_1GHZ) -> list[FigureSeries]:
    """Fig. 4: GET/PUT time breakdown vs request size.

    The paper's setup: A15@1GHz with a 2 MB L2 and 10 ns DRAM; the
    breakdown is reported as percent of total request time.
    """
    stack = mercury_stack(1, core=core)
    model = stack.latency_model(memory=dram_spec(10 * NS))
    panels = []
    for verb in ("GET", "PUT"):
        components: dict[str, list[float]] = {
            "Memcached": [],
            "Network Stack": [],
            "Hash Computation": [],
        }
        for size in REQUEST_SIZE_SWEEP:
            fractions = model.request_timing(verb, size).fractions()
            components["Memcached"].append(100.0 * fractions["memcached"])
            components["Network Stack"].append(100.0 * fractions["network"])
            components["Hash Computation"].append(100.0 * fractions["hash"])
        panels.append(
            FigureSeries(
                title=f"Figure 4: {verb} execution-time breakdown (%)",
                x_label=f"{verb} request size",
                x_values=tuple(sweep_labels()),
                series={k: tuple(v) for k, v in components.items()},
            )
        )
    return panels


def _tps_sweep(model: LatencyModel, verb: str) -> tuple[float, ...]:
    return tuple(model.tps(verb, size) / 1e3 for size in REQUEST_SIZE_SWEEP)


def figure5_mercury_latency_sweep() -> list[FigureSeries]:
    """Fig. 5: Mercury-1 TPS vs request size across DRAM latencies.

    Four panels: {A15@1GHz, A7} x {2MB L2, no L2}, each with GET and PUT
    series at 10/30/50/100 ns.
    """
    panels = []
    for core in (CORTEX_A15_1GHZ, CORTEX_A7):
        for has_l2 in (True, False):
            stack = mercury_stack(1, core=core, has_l2=has_l2)
            series: dict[str, tuple[float, ...]] = {}
            for latency in FIG5_DRAM_LATENCIES_S:
                model = stack.latency_model(memory=dram_spec(latency))
                label = f"{latency / NS:.0f}ns"
                series[f"{label} GET"] = _tps_sweep(model, "GET")
                series[f"{label} PUT"] = _tps_sweep(model, "PUT")
            cache = "2MB L2" if has_l2 else "no L2"
            panels.append(
                FigureSeries(
                    title=f"Figure 5: Mercury-1 KTPS, {core.name}, {cache}",
                    x_label="request size",
                    x_values=tuple(sweep_labels()),
                    series=series,
                )
            )
    return panels


def figure6_iridium_latency_sweep() -> list[FigureSeries]:
    """Fig. 6: Iridium-1 TPS vs request size across flash read latencies.

    Same four panels as Fig. 5 (write latency fixed at 200 us).
    """
    panels = []
    for core in (CORTEX_A15_1GHZ, CORTEX_A7):
        for has_l2 in (True, False):
            stack = iridium_stack(1, core=core, has_l2=has_l2)
            series: dict[str, tuple[float, ...]] = {}
            for latency in FIG6_FLASH_READ_LATENCIES_S:
                model = stack.latency_model(
                    memory=flash_spec(read_latency_s=latency)
                )
                label = f"{latency / US:.0f}us"
                series[f"{label} GET"] = _tps_sweep(model, "GET")
                series[f"{label} PUT"] = _tps_sweep(model, "PUT")
            cache = "2MB L2" if has_l2 else "no L2"
            panels.append(
                FigureSeries(
                    title=f"Figure 6: Iridium-1 KTPS, {core.name}, {cache}",
                    x_label="request size",
                    x_values=tuple(sweep_labels()),
                    series=series,
                )
            )
    return panels


def _config_sweep(
    family: str, metric_tps: bool, point: OperatingPoint
) -> FigureSeries:
    """One panel over every (core, cores-per-stack) cell of a family."""
    build = mercury_stack if family == "Mercury" else iridium_stack
    labels, density, power, tps = [], [], [], []
    for core in EVALUATED_CORES:
        for n in CORES_PER_STACK_SWEEP:
            metrics = evaluate_server(
                ServerDesign(stack=build(cores=n, core=core)), point
            )
            labels.append(f"{family}-{n} {core.name}")
            density.append(metrics.density_gb / 1e3)  # thousands of GB
            power.append(metrics.power_w)
            tps.append(metrics.tps / 1e6)
    if metric_tps:
        series = {"Density (thousands of GB)": tuple(density), "TPS @64B (millions)": tuple(tps)}
        title = f"Figure 7: {family} density vs TPS"
    else:
        series = {"Power (W)": tuple(power), "TPS @64B (millions)": tuple(tps)}
        title = f"Figure 8: {family} power vs TPS"
    return FigureSeries(
        title=title,
        x_label="configuration",
        x_values=tuple(labels),
        series=series,
    )


def figure7_density_vs_tps(
    point: OperatingPoint = OperatingPoint(),
) -> list[FigureSeries]:
    """Fig. 7: density and TPS@64B for every Mercury/Iridium config."""
    return [
        _config_sweep("Mercury", metric_tps=True, point=point),
        _config_sweep("Iridium", metric_tps=True, point=point),
    ]


def figure8_power_vs_tps(
    point: OperatingPoint = OperatingPoint(),
) -> list[FigureSeries]:
    """Fig. 8: power and TPS@64B for every Mercury/Iridium config."""
    return [
        _config_sweep("Mercury", metric_tps=False, point=point),
        _config_sweep("Iridium", metric_tps=False, point=point),
    ]
