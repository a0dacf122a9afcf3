"""Sensitivity analysis: how robust are the headlines to the calibration?

The latency model's constants were fitted to the paper's anchor points;
a fair question is whether the headline conclusions depend on the exact
values.  This module perturbs each calibration constant by a factor,
recomputes the abstract's headline ratios, and reports the swing — the
ablation that shows the conclusions are structural (density and power
arithmetic) rather than artefacts of the fit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.compare import _ratios
from repro.core.calibration import DEFAULT_CALIBRATION, CalibrationConstants
from repro.core.metrics import OperatingPoint
from repro.errors import ConfigurationError

#: Scalar calibration fields a perturbation sweep covers.
PERTURBABLE_FIELDS: tuple[str, ...] = (
    "memcached_get_instructions",
    "memcached_put_instructions",
    "hash_per_key_byte_instructions",
    "ifetch_misses_with_l2",
    "ifetch_misses_without_l2",
    "data_accesses_get",
    "flash_reads_get",
    "flash_write_amplification",
    "tcp.per_transaction_instructions",
    "tcp.per_packet_instructions",
    "tcp.per_byte_instructions",
)


def perturb(
    calibration: CalibrationConstants, field: str, factor: float
) -> CalibrationConstants:
    """A copy of ``calibration`` with one field scaled by ``factor``.

    ``field`` may be a dotted path into the nested TCP cost model.
    """
    if factor <= 0:
        raise ConfigurationError("perturbation factor must be positive")
    if field.startswith("tcp."):
        leaf = field.split(".", 1)[1]
        if not hasattr(calibration.tcp, leaf):
            raise ConfigurationError(f"unknown TCP field {leaf!r}")
        new_tcp = replace(calibration.tcp, **{leaf: getattr(calibration.tcp, leaf) * factor})
        return replace(calibration, tcp=new_tcp)
    if not hasattr(calibration, field):
        raise ConfigurationError(f"unknown calibration field {field!r}")
    value = getattr(calibration, field) * factor
    if field == "flash_write_amplification":
        value = max(1.0, value)
    return replace(calibration, **{field: value})


def headline_under(
    calibration: CalibrationConstants, point: OperatingPoint = OperatingPoint()
) -> dict[str, float]:
    """Mercury/Iridium vs Bags headline ratios under a calibration."""
    ratios = _ratios(calibration, point)
    return {
        name: ratios[name]
        for name in (
            "mercury_tps_x",
            "mercury_tps_per_watt_x",
            "mercury_density_x",
            "iridium_tps_x",
            "iridium_density_x",
        )
    }


@dataclass(frozen=True)
class SensitivityRow:
    """Headline swing when one constant moves by +/- the factor."""

    field: str
    factor: float
    low: dict[str, float]
    high: dict[str, float]

    def max_relative_swing(self, baseline: dict[str, float]) -> float:
        """Largest relative change of any headline across the +/- pair."""
        swing = 0.0
        for name, base in baseline.items():
            for variant in (self.low, self.high):
                swing = max(swing, abs(variant[name] - base) / base)
        return swing

    def conclusions_hold(self, baseline: dict[str, float]) -> bool:
        """Whether every ordering-level conclusion survives the swing.

        Conclusions: Mercury beats Bags on TPS by >3x, Iridium by >2x,
        densities are untouched by timing constants.
        """
        for variant in (self.low, self.high):
            if variant["mercury_tps_x"] < 3.0 or variant["iridium_tps_x"] < 2.0:
                return False
            if abs(variant["mercury_density_x"] - baseline["mercury_density_x"]) > 0.5:
                return False
        return True


def sensitivity_sweep(
    factor: float = 1.5,
    fields: tuple[str, ...] = PERTURBABLE_FIELDS,
    point: OperatingPoint = OperatingPoint(),
) -> list[SensitivityRow]:
    """Perturb each field by x``factor`` and /``factor``; report swings."""
    if factor <= 1.0:
        raise ConfigurationError("factor must exceed 1 (it is applied both ways)")
    rows = []
    for field in fields:
        low = headline_under(perturb(DEFAULT_CALIBRATION, field, 1.0 / factor), point)
        high = headline_under(perturb(DEFAULT_CALIBRATION, field, factor), point)
        rows.append(SensitivityRow(field=field, factor=factor, low=low, high=high))
    return rows
