"""Key popularity and value-size distributions.

Key popularity follows a Zipf law, the standard model for Memcached
traffic (and what makes DHT hot-spots a real concern, §3.8).  Value sizes
either follow the paper's methodology — a fixed size per experiment,
swept from 64 B to 1 MB — or the Atikoglu et al. (SIGMETRICS 2012) ETC
pool shape the paper cites for why small requests dominate: a discrete
log-normal-like mix concentrated in the tens-to-hundreds of bytes with a
long tail.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from repro.codec import Serialisable
from repro.errors import ConfigurationError


class ZipfKeys:
    """Zipf(s) sampler over ``population`` keys, with exact inverse-CDF.

    Keys are returned as ``key-<rank>`` byte strings, rank 0 the hottest.
    The CDF table costs O(population), so use realistic but bounded
    populations (10^5-10^6) in simulations.
    """

    def __init__(self, population: int, skew: float = 0.99):
        if population <= 0:
            raise ConfigurationError("population must be positive")
        if skew < 0:
            raise ConfigurationError("skew cannot be negative")
        self.population = population
        self.skew = skew
        weights = [1.0 / (rank + 1) ** skew for rank in range(population)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0  # guard against float round-off
        # rank → key bytes, filled on first draw of each rank: formatting
        # is a measurable cost when fluid fast-forward draws millions of
        # keys per simulated second.
        self._key_bytes: list[bytes | None] = [None] * population

    def rank(self, rng: random.Random) -> int:
        """Sample a key rank."""
        return bisect_left(self._cdf, rng.random())

    def key(self, rng: random.Random) -> bytes:
        rank = bisect_left(self._cdf, rng.random())
        key = self._key_bytes[rank]
        if key is None:
            key = b"key-%d" % rank
            self._key_bytes[rank] = key
        return key

    def probability(self, rank: int) -> float:
        """Exact probability mass of a rank."""
        if not 0 <= rank < self.population:
            raise ConfigurationError("rank out of range")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - low


@dataclass(frozen=True)
class ValueSizeDistribution(Serialisable):
    """A discrete mixture of value sizes: (size_bytes, weight) pairs."""

    name: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        # Normalise so dict-built and directly-built values serialise alike.
        points = tuple((int(size), float(weight)) for size, weight in self.points)
        object.__setattr__(self, "points", points)
        if not self.points:
            raise ConfigurationError("distribution needs at least one point")
        if any(size <= 0 or weight < 0 for size, weight in self.points):
            raise ConfigurationError("sizes must be positive, weights non-negative")
        if sum(weight for _size, weight in self.points) <= 0:
            raise ConfigurationError("weights must sum to a positive value")

    def sample(self, rng: random.Random) -> int:
        total = sum(weight for _size, weight in self.points)
        pick = rng.random() * total
        cumulative = 0.0
        for size, weight in self.points:
            cumulative += weight
            if pick <= cumulative:
                return size
        return self.points[-1][0]

    @property
    def mean(self) -> float:
        total = sum(weight for _size, weight in self.points)
        return sum(size * weight for size, weight in self.points) / total


def fixed_size(size_bytes: int) -> ValueSizeDistribution:
    """A degenerate distribution: every value is ``size_bytes`` long."""
    return ValueSizeDistribution(name=f"fixed-{size_bytes}", points=((size_bytes, 1.0),))


FIXED_64B = fixed_size(64)

#: Shape of Facebook's ETC pool (Atikoglu et al. 2012, Fig. 2/Table 3):
#: value sizes concentrate below ~1 KB with a long tail; GETs dominate.
ETC_VALUE_SIZES = ValueSizeDistribution(
    name="facebook-etc",
    points=(
        (2, 0.03),
        (11, 0.05),
        (64, 0.22),
        (128, 0.18),
        (256, 0.16),
        (512, 0.14),
        (1024, 0.10),
        (2048, 0.05),
        (4096, 0.035),
        (16384, 0.02),
        (65536, 0.008),
        (262144, 0.002),
    ),
)


def lognormal_sizes(
    name: str,
    median_bytes: float,
    sigma: float,
    buckets: int = 16,
    max_bytes: int = 1 << 20,
) -> ValueSizeDistribution:
    """Discretise a log-normal size law into a bucketed distribution.

    Useful for building ETC-like pools with different medians (the
    McDipper photo pool, for instance, has a much larger median).
    """
    if median_bytes <= 0 or sigma <= 0 or buckets < 2:
        raise ConfigurationError("median, sigma must be positive; buckets >= 2")
    mu = math.log(median_bytes)
    lo, hi = mu - 3.5 * sigma, min(math.log(max_bytes), mu + 3.5 * sigma)
    if hi <= lo:
        raise ConfigurationError("max_bytes too small for this median/sigma")
    step = (hi - lo) / buckets
    points = []
    for i in range(buckets):
        center = lo + (i + 0.5) * step
        size = max(1, int(round(math.exp(center))))
        z = (center - mu) / sigma
        weight = math.exp(-0.5 * z * z)
        points.append((size, weight))
    return ValueSizeDistribution(name=name, points=tuple(points))
