"""Anti-entropy: background digest sweeps that reconverge replicas.

Hinted handoff repairs the failures the coordinator *saw*; anti-entropy
repairs the ones it didn't (dropped hints, a coordinator restart, a
replica that lost data silently).  Replicas periodically compare
compact digests of their key ranges and copy the newest version of any
key where they disagree.

The model is Merkle-less but keeps the property that makes Merkle trees
cheap: synchronized buckets are never expanded or repaired.  Every sweep
reads each live copy once to fold it into one of ``buckets``
FNV-hashed buckets per replica group; only buckets whose (key, version)
digests differ across the group are expanded into per-key comparison
and repair.  Repairs per sweep are capped so a cold restarted node
warms over several sweeps instead of one giant stall — the cap is the
sweep's "instruction budget" in the cost model (docs/MODELING.md).

A key's bucket and digest term depend only on the key and the ring's
membership, so the sweeper memoises them per key until the ring's
membership generation moves; the fold itself stays per sweep, because
versions change between sweeps.

The full-system DES schedules the sweeps itself
(``QuorumPath.install_antientropy`` in :mod:`repro.sim.quorum`), because
it also charges each sweep's repair cost to the cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.kvstore.hashing import fnv1a_32
from repro.kvstore.items import Item
from repro.replication.placement import MEMO_MAX_KEYS
from repro.telemetry.metrics import MetricsRegistry, NULL_REGISTRY

_MASK64 = 0xFFFFFFFFFFFFFFFF
#: Knuth's multiplicative-hash constant: spreads a key's 32-bit FNV hash
#: over the 64-bit digest term.
_FOLD_MULTIPLIER = 2_654_435_761


@dataclass(frozen=True)
class SweepReport:
    """What one anti-entropy sweep found and fixed.

    ``repairs_by_node``/``bytes_by_node`` break the repair writes down
    per receiving node, which is what lets a timing layer (the
    full-system DES) charge each core the service time its repairs
    cost.
    """

    buckets_scanned: int
    buckets_dirty: int
    keys_compared: int
    repairs: int
    truncated: bool
    repairs_by_node: dict[str, int] = field(default_factory=dict)
    bytes_by_node: dict[str, int] = field(default_factory=dict)


class AntiEntropySweeper:
    """Periodic digest comparison + repair across a replica group.

    ``coordinator`` is duck-typed: anything with ``stores`` (name ->
    KVStore), ``live_nodes`` and a ``placement``
    (:class:`~repro.replication.placement.ReplicaPlacement`) works — both
    the client-side
    :class:`~repro.replication.coordinator.ReplicationCoordinator` and
    the full-system DES's store fabric qualify.
    """

    def __init__(
        self,
        coordinator,
        buckets: int = 64,
        max_repairs_per_sweep: int = 10_000,
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        if buckets < 1:
            raise ConfigurationError("anti-entropy needs at least one bucket")
        if max_repairs_per_sweep < 1:
            raise ConfigurationError("max_repairs_per_sweep must be positive")
        self.coordinator = coordinator
        self.buckets = buckets
        self.max_repairs_per_sweep = max_repairs_per_sweep
        self.sweeps = 0
        self.total_repairs = 0
        self._sweeps_total = registry.counter("replication_antientropy_sweeps_total")
        self._repairs_total = registry.counter(
            "replication_antientropy_repairs_total"
        )
        self._dirty_total = registry.counter(
            "replication_antientropy_dirty_buckets_total"
        )
        # Per-key memo, valid for one ring generation: key -> its cell
        # and digest term packed into one int, ``cell << 64 | h * K``
        # (no tuple per key: the memo spans every key the stores held).
        # A cell numbers a comparison unit, ``group index * buckets +
        # bucket``; ``_groups`` lists the preferred lists by index.
        self._codes: dict[bytes, int] = {}
        self._groups: list[tuple[str, ...]] = []
        self._group_index: dict[tuple[str, ...], int] = {}
        self._generation: int | None = None

    def _learn(self, key: bytes) -> int:
        """A memo miss: the key's packed cell and digest term.

        Placement still answers through ``replicas_for``.
        """
        h = fnv1a_32(key)
        group = self.coordinator.placement.replicas_for(key)
        index = self._group_index.get(group)
        if index is None:
            index = self._group_index[group] = len(self._groups)
            self._groups.append(group)
        code = (index * self.buckets + h % self.buckets) << 64 | (
            h * _FOLD_MULTIPLIER
        )
        if len(self._codes) < MEMO_MAX_KEYS:
            self._codes[key] = code
        return code

    def sweep(self) -> SweepReport:
        """One full pass: compare digests group-wise, repair to newest.

        The comparison unit is *(replica group, bucket)*: keys sharing a
        preferred list must be identical across that list's live
        members.  Every live copy is read once to fold its bucket's
        order-independent (key, version) digest; a bucket whose digest
        matches on every live member is neither expanded nor repaired —
        the Merkle-tree property, flattened to one level.  A live member
        holding nothing in a bucket digests to zero, so "restarted cold"
        reads as every bucket dirty, as it should.  Dirty buckets are
        repaired in sorted (group, bucket) order, keys in sorted order.
        """
        coordinator = self.coordinator
        stores = coordinator.stores
        generation = coordinator.placement.ring.generation
        if generation != self._generation:
            self._codes.clear()
            self._groups.clear()
            self._group_index.clear()
            self._generation = generation
        buckets = self.buckets
        groups = self._groups
        known = self._codes.get
        # One read of every live store.  Per node: cell -> digest (summed
        # here, compared modulo 2**64), and the node's copies with their
        # cells, kept to expand the dirty cells.  Liveness does not
        # change inside a sweep, so the live nodes are ``digests``'s keys.
        digests: dict[str, dict[int, int]] = {}
        copies: dict[str, tuple[list[int], list[Item]]] = {}
        for node in coordinator.live_nodes:
            digest = digests[node] = {}
            cells, items = copies[node] = ([], [])
            for item in stores[node].iter_live():
                code = known(item.key)
                if code is None:
                    code = self._learn(item.key)
                cell = code >> 64
                if node not in groups[cell // buckets]:
                    continue  # a leftover copy placement no longer maps here
                digest[cell] = digest.get(cell, 0) + (code & _MASK64) + item.flags
                cells.append(cell)
                items.append(item)
        scanned: set[int] = set().union(*digests.values())
        members_of: dict[int, list[str]] = {}  # group index -> live members
        dirty_cells: list[int] = []
        for cell in scanned:
            index = cell // buckets
            members = members_of.get(index)
            if members is None:
                members = members_of[index] = [
                    n for n in groups[index] if n in digests
                ]
            if len(members) < 2:
                continue  # nobody to reconverge with
            first = digests[members[0]].get(cell, 0) & _MASK64
            for node in members[1:]:
                if digests[node].get(cell, 0) & _MASK64 != first:
                    dirty_cells.append(cell)
                    break
        dirty_cells.sort(key=lambda cell: (groups[cell // buckets], cell % buckets))
        # node -> dirty cell -> the copies the node holds there.
        dirty_set = set(dirty_cells)
        contents: dict[str, dict[int, list[Item]]] = {}
        for node, (cells, items) in copies.items():
            held = contents[node] = {}
            for cell, item in zip(cells, items):
                if cell in dirty_set:
                    listed = held.get(cell)
                    if listed is None:
                        held[cell] = [item]
                    else:
                        listed.append(item)

        repairs = 0
        compared = 0
        dirty = 0
        truncated = False
        repairs_by_node: dict[str, int] = {}
        bytes_by_node: dict[str, int] = {}
        # Per dirty cell: the newest copy of every key a live member
        # holds, and which members (a bit each) already hold that
        # version.  Ties go to the earlier member in preferred order.
        newest: dict[bytes, Item] = {}
        current: dict[bytes, int] = {}
        for cell in dirty_cells:
            dirty += 1
            members = members_of[cell // buckets]
            newest.clear()
            current.clear()
            for position, node in enumerate(members):
                bit = 1 << position
                items = contents[node].get(cell, ())
                compared += len(items)
                for item in items:
                    key = item.key
                    best = newest.get(key)
                    if best is None or item.flags > best.flags:
                        newest[key] = item
                        current[key] = bit
                    elif item.flags == best.flags:
                        current[key] |= bit
            for key in sorted(newest):
                winner = newest[key]
                have = current[key]
                for position, node in enumerate(members):
                    if have >> position & 1:
                        continue  # already holds the newest version
                    if repairs >= self.max_repairs_per_sweep:
                        truncated = True
                        break
                    stores[node].set_absolute(
                        key, winner.value, winner.flags, winner.expire_at
                    )
                    repairs += 1
                    repairs_by_node[node] = repairs_by_node.get(node, 0) + 1
                    bytes_by_node[node] = bytes_by_node.get(node, 0) + len(
                        winner.value
                    )
                if truncated:
                    break
            if truncated:
                break
        self.sweeps += 1
        self.total_repairs += repairs
        self._sweeps_total.inc()
        self._repairs_total.inc(repairs)
        self._dirty_total.inc(dirty)
        return SweepReport(
            buckets_scanned=len(scanned),
            buckets_dirty=dirty,
            keys_compared=compared,
            repairs=repairs,
            truncated=truncated,
            repairs_by_node=repairs_by_node,
            bytes_by_node=bytes_by_node,
        )
