"""Diurnal traffic model (§2.2, the Netflix observation).

Traffic to a web service peaks midday and bottoms out around midnight;
front-end fleets scale with it, but data stores cannot, which is the
paper's motivation for making key-value stores *dense*: the hardware must
be physically present for the peak whether or not it is busy at 3 a.m.

:class:`DiurnalTraffic` is a sinusoid-with-floor model of that curve,
with helpers for the provisioning arithmetic the examples use (peak vs
mean utilisation, stranded capacity at night).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codec import Serialisable
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DiurnalTraffic:
    """A 24-hour traffic curve: floor + sinusoidal peak.

    ``rate(h)`` peaks at ``peak_rate_hz`` at ``peak_hour`` and falls to
    ``trough_fraction * peak_rate_hz`` twelve hours away.
    """

    peak_rate_hz: float
    trough_fraction: float = 0.3
    peak_hour: float = 13.0  # midday-ish, per the Netflix plot

    def __post_init__(self) -> None:
        if self.peak_rate_hz <= 0:
            raise ConfigurationError("peak rate must be positive")
        if not 0.0 <= self.trough_fraction <= 1.0:
            raise ConfigurationError("trough fraction must be in [0, 1]")

    def rate(self, hour: float) -> float:
        """Request rate at ``hour`` (wraps mod 24)."""
        phase = (hour - self.peak_hour) / 24.0 * 2.0 * math.pi
        mid = (1.0 + self.trough_fraction) / 2.0
        amplitude = (1.0 - self.trough_fraction) / 2.0
        return self.peak_rate_hz * (mid + amplitude * math.cos(phase))

    def mean_rate(self) -> float:
        """Average rate over 24 h (cosine integrates out)."""
        return self.peak_rate_hz * (1.0 + self.trough_fraction) / 2.0

    def servers_needed(self, hour: float, per_server_rate_hz: float) -> int:
        """Front-end provisioning at an hour (ceil of rate/server-rate)."""
        if per_server_rate_hz <= 0:
            raise ConfigurationError("per-server rate must be positive")
        return max(1, math.ceil(self.rate(hour) / per_server_rate_hz))

    def stranded_capacity_fraction(self) -> float:
        """Fraction of peak-provisioned capacity idle on average.

        This is the §2.2 argument in one number: hardware sized for the
        peak is idle ``1 - mean/peak`` of the time, and for *stateful*
        tiers it cannot be powered off — only made denser.
        """
        return 1.0 - self.mean_rate() / self.peak_rate_hz


NETFLIX_LIKE = DiurnalTraffic(peak_rate_hz=1.0e6, trough_fraction=0.3)


@dataclass(frozen=True)
class DiurnalSchedule(Serialisable):
    """A 24-hour curve compressed onto a simulated run, serialisably.

    :class:`DiurnalTraffic` speaks in wall-clock hours; a DES run lasts
    simulated seconds.  ``DiurnalSchedule`` maps one full day onto
    ``day_length_s`` of simulated time so the arrival process can
    modulate its rate: ``factor(t)`` is the multiplier on the offered
    rate, 1.0 at the daily peak and ``trough_fraction`` at the trough.
    The run starts at the peak (phase zero), so short runs sweep
    peak → trough → peak within one ``day_length_s``.

    It round-trips through :meth:`to_dict`/:meth:`from_dict` because it
    travels on :class:`~repro.sim.run_options.RunOptions` — the
    experiment cache must key on it.
    """

    day_length_s: float
    trough_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.day_length_s <= 0:
            raise ConfigurationError("day length must be positive")
        if not 0.0 <= self.trough_fraction <= 1.0:
            raise ConfigurationError("trough fraction must be in [0, 1]")

    def factor(self, t_s: float) -> float:
        """Rate multiplier at simulated time ``t_s`` (peak at t=0)."""
        phase = (t_s / self.day_length_s) * 2.0 * math.pi
        mid = (1.0 + self.trough_fraction) / 2.0
        amplitude = (1.0 - self.trough_fraction) / 2.0
        return mid + amplitude * math.cos(phase)

    def mean_factor(self) -> float:
        """Average multiplier over one full day (cosine integrates out)."""
        return (1.0 + self.trough_fraction) / 2.0
