"""Request-stream generation for simulations and examples.

A :class:`WorkloadGenerator` turns a :class:`WorkloadSpec` — GET/PUT mix,
key popularity, value sizes — into a deterministic stream of
:class:`Request` objects.  The paper's own experiments use degenerate
specs (all-GET or all-PUT at one size); the richer specs drive the example
applications and the DHT-contention study.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.codec import Serialisable
from repro.errors import ConfigurationError
from repro.sim.rng import make_rng
from repro.workloads.distributions import ValueSizeDistribution, ZipfKeys, fixed_size


class _RequestFields(NamedTuple):
    verb: str  # "GET" or "PUT"
    key: bytes
    value_bytes: int


class Request(_RequestFields):
    """One client operation (an immutable tuple of its fields)."""

    __slots__ = ()

    def __new__(cls, verb: str, key: bytes, value_bytes: int) -> "Request":
        if verb not in ("GET", "PUT"):
            raise ConfigurationError(f"unknown verb {verb!r}")
        if value_bytes < 0:
            raise ConfigurationError("value size cannot be negative")
        return tuple.__new__(cls, (verb, key, value_bytes))


@dataclass(frozen=True)
class WorkloadSpec(Serialisable):
    """Parameters of a synthetic Memcached workload."""

    name: str
    get_fraction: float = 0.9
    key_population: int = 100_000
    key_skew: float = 0.99
    value_sizes: ValueSizeDistribution = fixed_size(64)

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ConfigurationError("get_fraction must be in [0, 1]")
        if self.key_population <= 0:
            raise ConfigurationError("key population must be positive")


#: The paper's evaluation point: small GETs dominate Memcached traffic.
GET_64B = WorkloadSpec(name="get-64b", get_fraction=1.0, value_sizes=fixed_size(64))


class WorkloadGenerator:
    """Deterministic request stream for a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0):
        self.spec = spec
        self._rng = make_rng(f"workload:{spec.name}", seed)
        self._keys = ZipfKeys(spec.key_population, spec.key_skew)
        self._sizes: dict[bytes, int] = {}
        # Shared with ZipfKeys so :meth:`next_raw` can sample without a
        # call frame per draw; the rank→bytes cache keeps returning the
        # *same* bytes object per rank, which downstream dicts reward
        # with cached-hash, pointer-equality lookups.
        self._cdf = self._keys._cdf
        self._key_bytes = self._keys._key_bytes

    def next_request(self) -> Request:
        """Generate the next request.

        A key's value size is fixed at first use so that repeated GETs of
        one key see a consistent object size, as a real cache would.
        """
        key = self._keys.key(self._rng)
        size = self._sizes.get(key)
        if size is None:
            size = self.spec.value_sizes.sample(self._rng)
            self._sizes[key] = size
        verb = "GET" if self._rng.random() < self.spec.get_fraction else "PUT"
        return Request(verb=verb, key=key, value_bytes=size)

    def next_raw(self) -> tuple[bytes, int, bool]:
        """``(key, value_bytes, is_get)`` with zero per-request allocation.

        Consumes the RNG stream exactly as :meth:`next_request` does —
        the two can be interleaved freely and stay bit-identical — but
        skips the validating :class:`Request` construction.  This is the
        fast path for the fluid fast-forward windows in
        :mod:`repro.sim.full_system`, where millions of draws per
        simulated second make dataclass construction the bottleneck.
        """
        rng = self._rng
        rank = bisect_left(self._cdf, rng.random())
        key_bytes = self._key_bytes
        key = key_bytes[rank]
        if key is None:
            key = b"key-%d" % rank
            key_bytes[rank] = key
        size = self._sizes.get(key)
        if size is None:
            size = self.spec.value_sizes.sample(rng)
            self._sizes[key] = size
        return key, size, rng.random() < self.spec.get_fraction

    def stream(self, count: int) -> Iterator[Request]:
        """Yield ``count`` requests."""
        if count < 0:
            raise ConfigurationError("count cannot be negative")
        for _ in range(count):
            yield self.next_request()
