"""Client-side resilience policy: timeouts, backoff, hedging, failover.

Production Memcached clients survive exactly the faults this package
injects, with four standard mechanisms:

* **request timeouts** — a lost packet or dead node costs one timeout,
  not a hung client;
* **retries with exponential backoff and jitter** — retransmit a few
  times, spacing attempts out so a recovering node is not stampeded;
* **hedged requests** — when a reply is slow, race a duplicate to
  another node and take the first answer (tail-latency insurance);
* **failover rebalancing** — after repeated timeouts, declare the node
  dead, remove it from the consistent-hash ring so its arcs fall to the
  survivors, and re-add it when health checks see it again.

The policy is pure data + arithmetic; the jitter draw takes an explicit
``random.Random`` so retry timing is deterministic under a seeded run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.codec import Serialisable
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ResiliencePolicy(Serialisable):
    """Knobs for a resilient Memcached client.

    ``request_timeout_s`` bounds one attempt; up to ``max_retries``
    further attempts follow, the k-th after an extra
    ``backoff_base_s * backoff_multiplier**k`` (capped at
    ``backoff_cap_s``) plus up to ``jitter_fraction`` of itself in
    deterministic jitter.  ``failover_after`` consecutive timeouts mark
    a node dead and rebalance the ring (``None`` disables failover);
    ``health_check_interval_s`` is how long a dead node waits before a
    health check can readmit it.  ``hedge_after_s`` arms hedged GETs
    (``None`` = off).
    """

    request_timeout_s: float = 2e-3
    max_retries: int = 3
    backoff_base_s: float = 1e-3
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 50e-3
    jitter_fraction: float = 0.1
    failover_after: int | None = 3
    health_check_interval_s: float = 0.5
    hedge_after_s: float | None = None

    def __post_init__(self) -> None:
        if self.request_timeout_s <= 0:
            raise ConfigurationError("request timeout must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff times cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff must not shrink")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1]")
        if self.failover_after is not None and self.failover_after < 1:
            raise ConfigurationError("failover_after must be >= 1 (or None)")
        if self.health_check_interval_s <= 0:
            raise ConfigurationError("health check interval must be positive")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ConfigurationError("hedge delay must be positive (or None)")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (0-based), jitter included."""
        if attempt < 0:
            raise ConfigurationError("attempt index cannot be negative")
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_multiplier**attempt,
        )
        return base * (1.0 + self.jitter_fraction * rng.random())

    def should_fail_over(self, consecutive_timeouts: int) -> bool:
        return (
            self.failover_after is not None
            and consecutive_timeouts >= self.failover_after
        )


#: A policy that retries nothing — the seed library's implicit behaviour.
NO_RESILIENCE = ResiliencePolicy(
    max_retries=0, failover_after=None, hedge_after_s=None
)

#: The default production-shaped policy used by the CLI and benchmarks.
DEFAULT_RESILIENCE = ResiliencePolicy()
