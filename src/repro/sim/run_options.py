"""The full-system run configuration, as one frozen value object.

``FullSystemStack.run`` historically grew thirteen loose keyword
arguments — unpicklable as a job description and unhashable as a cache
key.  :class:`RunOptions` consolidates them: the *configuration* half
(rates, durations, fault schedules, quorum settings) is plain data that
round-trips exactly through ``to_dict``/``from_dict`` (:mod:`repro.codec`),
which is what lets the experiment engine (:mod:`repro.exp`) ship runs to
worker processes and content-address their results on disk.

The *instrument* half (telemetry session, time-series recorder, SLO
monitor, profiler, energy meter) is live-object state that observes a
run without changing its outcome.  Instruments ride along on the same
options object for call-site convenience but are excluded from equality
and from serialisation — two options values that differ only in
instruments describe the same simulation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.codec import Serialisable, instrument, instrument_names, omit_at_default
from repro.errors import ConfigurationError
from repro.faults.resilience import ResiliencePolicy
from repro.faults.schedule import FaultSchedule
from repro.flashstore.compaction import TieredStoreConfig
from repro.kvstore.batching import BatchPolicy
from repro.replication.config import ReplicationConfig
from repro.sim.fidelity import FidelityPolicy
from repro.workloads.diurnal import DiurnalSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.energy import EnergyMeter
    from repro.telemetry.profiler import SimProfiler
    from repro.telemetry.slo import SloMonitor
    from repro.telemetry.timeseries import TimeSeriesRecorder
    from repro.telemetry.tracing import TelemetrySession

#: When each optional feature of a run is on.  The two tables below name
#: features by these keys.
_FEATURES = {
    "replication": lambda o: o.replication is not None and o.replication.n > 1,
    "batching": lambda o: o.batching is not None and o.batching.enabled,
    "flashstore": lambda o: o.flashstore is not None,
    "hedging": lambda o: (
        o.resilience is not None and o.resilience.hedge_after_s is not None
    ),
    "tracing": lambda o: o.trace_digest or (
        o.telemetry is not None and o.telemetry.tracer.enabled
    ),
    "keep_samples": lambda o: o.keep_samples,
}

#: Feature pairs one run refuses, each with the reason it gives.
REFUSED_PAIRS = (
    (
        "batching",
        "replication",
        "batched dispatch and replication (n > 1) cannot be combined in "
        "the full-system run; batch against a sharded stack",
    ),
    (
        "flashstore",
        "replication",
        "the tiered flash store and replication (n > 1) cannot be "
        "combined yet; run sharded",
    ),
    (
        "flashstore",
        "batching",
        "the tiered flash store and batched dispatch cannot be combined "
        "yet; run the serial path",
    ),
)

#: Features the fluid fold cannot fast-forward — quorum fan-out, frame
#: coalescing, tier probes, hedged twins, span trees and exact order
#: statistics are event-level phenomena — in precedence order: a hybrid
#: or fluid run using any of them runs full DES and records the first as
#: its fallback reason.
NO_FLUID_FOLD = (
    "replication",
    "batching",
    "flashstore",
    "hedging",
    "tracing",
    "keep_samples",
)


@dataclass(frozen=True)
class RunOptions(Serialisable):
    """Everything one :meth:`FullSystemStack.run` needs beyond the workload.

    ``offered_rate_hz`` and ``duration_s`` define the Poisson arrival
    process; ``warmup_requests`` PUTs pre-populate the stores outside
    simulated time.  ``faults``/``resilience``/``replication`` carry the
    fault-injection schedule, the client resilience policy, and the
    quorum configuration (all ``None`` = the plain sharded run).
    ``window_s`` buckets GET outcomes into a hit-rate timeline;
    ``fill_on_miss`` models cache-aside refill; ``keep_samples`` retains
    raw latency samples next to the streaming histograms.
    ``trace_digest`` asks the run for a compact causal-trace summary
    (sampling counters + tail critical-path shares) in
    ``FullSystemResults.trace_digest`` — it is configuration, not an
    instrument, because cached experiment cells carry the digest.
    ``flashstore`` (a :class:`~repro.flashstore.TieredStoreConfig`)
    replaces a flash stack's calibrated per-op flash stalls with the
    SILT-style tiered store's measured costs; ``None`` keeps the
    baseline FTL-calibrated path bit-identical to pre-flashstore runs.
    ``energy_summary`` asks the run to meter activity-based energy and
    carry the summary in ``FullSystemResults.energy`` — configuration
    (like ``trace_digest``), because cached experiment cells carry the
    measured watts.  ``diurnal`` (a
    :class:`~repro.workloads.diurnal.DiurnalSchedule`) modulates the
    Poisson arrival rate through a compressed day so power
    proportionality is visible within one run.
    ``fidelity`` (a :class:`~repro.sim.fidelity.FidelityPolicy`) lets the
    run fast-forward steady-state stretches through the fluid model;
    ``None`` keeps the historical pure-DES path (and the historical
    cache keys) bit-identical.  A value that turns on a pair of features
    in :data:`REFUSED_PAIRS` cannot be built, nor can one whose rate,
    duration or window is not finite and positive.  The six fields from
    ``trace_digest`` on are written only when set, so runs that leave
    them unset keep the cache keys they had before the fields existed.

    ``telemetry``/``timeseries``/``slo``/``profiler``/``energy`` are
    instruments:
    they observe without perturbing, never travel through
    ``to_dict``, and are ignored by ``==``.  Attach them with
    :meth:`with_instruments` when reusing a serialised options value.
    """

    offered_rate_hz: float
    duration_s: float
    warmup_requests: int = 0
    keep_samples: bool = False
    window_s: float | None = None
    fill_on_miss: bool = False
    faults: FaultSchedule | None = None
    resilience: ResiliencePolicy | None = None
    replication: ReplicationConfig | None = None
    trace_digest: bool = omit_at_default(False)
    batching: BatchPolicy | None = omit_at_default(None)
    flashstore: TieredStoreConfig | None = omit_at_default(None)
    energy_summary: bool = omit_at_default(False)
    diurnal: DiurnalSchedule | None = omit_at_default(None)
    fidelity: FidelityPolicy | None = omit_at_default(None)
    telemetry: "TelemetrySession | None" = instrument()
    timeseries: "TimeSeriesRecorder | None" = instrument()
    slo: "SloMonitor | None" = instrument()
    profiler: "SimProfiler | None" = instrument()
    energy: "EnergyMeter | None" = instrument()

    def __post_init__(self) -> None:
        for name in ("offered_rate_hz", "duration_s", "window_s"):
            value = getattr(self, name)
            if value is None and name == "window_s":
                continue
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests cannot be negative")
        for first, second, reason in REFUSED_PAIRS:
            if self.uses(first) and self.uses(second):
                raise ConfigurationError(
                    f"RunOptions({first}=..., {second}=...): {reason}"
                )

    # --- features -----------------------------------------------------------

    def uses(self, feature: str) -> bool:
        """Whether this run turns ``feature`` on (``replication`` counts
        only at ``n > 1``, ``batching`` only at ``batch_max > 1``)."""
        return bool(_FEATURES[feature](self))

    def fluid_fallback_reason(self) -> str | None:
        """The first :data:`NO_FLUID_FOLD` feature this run uses, or
        ``None`` when the fluid fold may fast-forward it."""
        return next(
            (feature for feature in NO_FLUID_FOLD if self.uses(feature)), None
        )

    # --- ergonomics ---------------------------------------------------------

    @property
    def has_instruments(self) -> bool:
        return any(
            getattr(self, name) is not None
            for name in instrument_names(RunOptions)
        )

    def with_instruments(
        self,
        telemetry: "TelemetrySession | None" = None,
        timeseries: "TimeSeriesRecorder | None" = None,
        slo: "SloMonitor | None" = None,
        profiler: "SimProfiler | None" = None,
        energy: "EnergyMeter | None" = None,
    ) -> "RunOptions":
        """A copy with the given live observers attached (None = keep)."""
        return dataclasses.replace(
            self,
            telemetry=telemetry if telemetry is not None else self.telemetry,
            timeseries=timeseries if timeseries is not None else self.timeseries,
            slo=slo if slo is not None else self.slo,
            profiler=profiler if profiler is not None else self.profiler,
            energy=energy if energy is not None else self.energy,
        )

    def without_instruments(self) -> "RunOptions":
        """A copy with every instrument detached (the serialisable core)."""
        return dataclasses.replace(
            self, **dict.fromkeys(instrument_names(RunOptions))
        )
