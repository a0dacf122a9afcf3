"""Consistent hashing (the DHT substrate of §3.8).

Keys map onto a point on a circle; each node owns the arcs ending at its
points.  Virtual nodes (many points per physical node) even out arc sizes.
The paper's argument is that Mercury/Iridium raise the number of
*physical* nodes per box (one per core), shrinking each arc and with it
the probability of hot-spot contention — :meth:`load_distribution` and
:meth:`arc_fractions` make that claim measurable.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError

_RING_BITS = 32
_RING_SIZE = 1 << _RING_BITS


def _point(label: bytes) -> int:
    """Hash a label to a ring position (md5, like libketama)."""
    digest = hashlib.md5(label).digest()
    return int.from_bytes(digest[:4], "big")


class ConsistentHashRing:
    """A ketama-style consistent-hash ring with virtual nodes."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 100):
        if vnodes <= 0:
            raise ConfigurationError("vnodes must be positive")
        self.vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        #: Bumped by every membership change, so lookups memoised per key
        #: (replica placement) know when their answers went stale.
        self.generation = 0
        for node in nodes:
            self.add_node(node)

    # --- membership ----------------------------------------------------------

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node: str) -> None:
        """Add a physical node (inserting its virtual points)."""
        if not node:
            raise ConfigurationError("node name cannot be empty")
        if node in self._nodes:
            raise ConfigurationError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for replica in range(self.vnodes):
            point = _point(f"{node}#{replica}".encode())
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)
        self.generation += 1

    def remove_node(self, node: str) -> None:
        """Remove a physical node and all its virtual points."""
        if node not in self._nodes:
            raise ConfigurationError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _o in keep]
        self._owners = [o for _p, o in keep]
        self.generation += 1

    # --- lookup -----------------------------------------------------------------

    def node_for(self, key: bytes) -> str:
        """The node responsible for ``key``.

        Raises:
            ConfigurationError: when the ring is empty.
        """
        if not self._points:
            raise ConfigurationError("hash ring is empty")
        point = _point(key)
        index = bisect.bisect(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def successors(self, key: bytes) -> Iterator[str]:
        """Distinct physical nodes in ring order from ``key``'s point.

        The first yielded node is :meth:`node_for`; the rest are the
        owners of the following arcs, each physical node reported once.
        This is the successor walk replica placement is built on
        (FAWN-KV chains replicas along exactly this ordering).
        """
        if not self._points:
            return
        start = bisect.bisect(self._points, _point(key))
        if start == len(self._points):
            start = 0
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == len(self._nodes):
                    return

    # --- analysis (the §3.8 contention argument) -----------------------------------

    def arc_fractions(self) -> dict[str, float]:
        """Fraction of the ring each physical node owns."""
        if not self._points:
            return {}
        fractions: Counter[str] = Counter()
        for index, point in enumerate(self._points):
            prev = self._points[index - 1] if index > 0 else self._points[-1]
            arc = (point - prev) % _RING_SIZE
            if index == 0 and len(self._points) == 1:
                arc = _RING_SIZE
            fractions[self._owners[index]] += arc / _RING_SIZE
        return dict(fractions)

    def load_distribution(self, keys: Iterable[bytes]) -> dict[str, int]:
        """Count how many of ``keys`` land on each node."""
        counts: Counter[str] = Counter({node: 0 for node in self._nodes})
        for key in keys:
            counts[self.node_for(key)] += 1
        return dict(counts)

    def hottest_fraction(self, keys: Iterable[bytes]) -> float:
        """Share of requests absorbed by the most loaded node.

        This is the §3.8 contention metric: it shrinks as physical node
        count rises, which is the benefit Mercury's core density buys.
        """
        loads = self.load_distribution(keys)
        total = sum(loads.values())
        if total == 0:
            return 0.0
        return max(loads.values()) / total
