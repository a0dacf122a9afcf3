"""Regenerates Figure 7: density vs TPS@64B for every Mercury/Iridium
configuration (the density/throughput trade-off)."""

import pytest
from conftest import emit, track

from repro.analysis import figure7_density_vs_tps, render_series


def test_fig7(benchmark):
    mercury, iridium = benchmark(figure7_density_vs_tps)
    for name, panel in (("fig7_a_mercury", mercury), ("fig7_b_iridium", iridium)):
        emit(name, render_series(panel.x_label, panel.x_values, panel.series,
                                 caption=panel.title))
    track(
        "fig7_mercury32_a7",
        tps=dict(
            zip(mercury.x_values, mercury.series["TPS @64B (millions)"])
        )["Mercury-32 A7@1GHz"] * 1e6,
    )

    m_density = dict(zip(mercury.x_values, mercury.series["Density (thousands of GB)"]))
    m_tps = dict(zip(mercury.x_values, mercury.series["TPS @64B (millions)"]))
    i_density = dict(zip(iridium.x_values, iridium.series["Density (thousands of GB)"]))
    i_tps = dict(zip(iridium.x_values, iridium.series["TPS @64B (millions)"]))

    # §6.3 anchors: Mercury-32 (A7) ~32.7 MTPS with ~372 GB; Iridium-32
    # (A7) ~16.5 MTPS with ~1.9 TB (within 15%).
    assert m_tps["Mercury-32 A7@1GHz"] == pytest.approx(32.7, rel=0.15)
    assert m_density["Mercury-32 A7@1GHz"] == pytest.approx(0.372, rel=0.05)
    assert i_tps["Iridium-32 A7@1GHz"] == pytest.approx(16.5, rel=0.15)
    assert i_density["Iridium-32 A7@1GHz"] == pytest.approx(1.901, rel=0.02)

    # A15 designs: past 8 cores/stack density collapses while TPS
    # plateaus (the paper's "sharp decline at 8 cores per stack").
    assert m_density["Mercury-32 A15@1.5GHz"] < 0.4 * m_density["Mercury-8 A15@1.5GHz"]
    plateau = m_tps["Mercury-32 A15@1GHz"] / m_tps["Mercury-16 A15@1GHz"]
    assert plateau == pytest.approx(1.0, abs=0.15)

    # A7 designs keep full density through 16 cores/stack.
    assert m_density["Mercury-16 A7@1GHz"] == m_density["Mercury-1 A7@1GHz"]

    # Mercury-32 vs Iridium-32 (A7): ~2x TPS vs ~5x density (§6.3).
    assert m_tps["Mercury-32 A7@1GHz"] / i_tps["Iridium-32 A7@1GHz"] == pytest.approx(
        2.0, rel=0.2
    )
    assert i_density["Iridium-32 A7@1GHz"] / m_density[
        "Mercury-32 A7@1GHz"
    ] == pytest.approx(5.0, rel=0.15)
