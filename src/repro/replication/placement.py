"""Replica placement: N distinct physical successors, stack-aware.

A key's *preferred list* is the first N distinct physical nodes on the
consistent-hash ring walking clockwise from the key's point (the FAWN-KV
chain).  The paper's density argument packs many stacks into one
enclosure, so a stack is the natural failure domain: the skip rule
refuses to put two replicas on nodes of the same stack while distinct
stacks remain, falling back to distinct nodes only when the topology is
too small (fewer stacks than replicas).

Placement is a pure function of ring membership and the ``exclude`` set,
so re-placement when nodes crash or restart is deterministic: excluding
a down node simply extends the successor walk past it, and readmitting
it restores the exact original preferred list.  The same purity lets a
lookup without ``exclude`` answer from a per-key memo, dropped whenever
the ring's membership generation moves.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable

from repro.errors import ConfigurationError
from repro.kvstore.consistent_hash import ConsistentHashRing

#: Most keys a per-key placement memo holds.  Insertion stops at the cap
#: (as ``hashing._DIGEST_CACHE_MAX`` does for key digests), so a
#: key stream without repeats cannot grow a memo without bound.
MEMO_MAX_KEYS = 1 << 18


def default_stack_of(node: str) -> str:
    """A node's failure domain: the ``stack:`` prefix if the name has
    one (``stack0:core2`` -> ``stack0``), else the node itself."""
    stack, sep, _rest = node.partition(":")
    return stack if sep else node


class ReplicaPlacement:
    """Maps keys to replica sets over a :class:`ConsistentHashRing`."""

    def __init__(
        self,
        ring: ConsistentHashRing,
        n: int,
        stack_of: Callable[[str], str] = default_stack_of,
    ):
        if n < 1:
            raise ConfigurationError("replication factor n must be >= 1")
        self.ring = ring
        self.n = n
        self.stack_of = stack_of
        # key -> preferred list, valid for one ring generation; equal
        # lists share one interned tuple.
        self._memo: dict[bytes, tuple[str, ...]] = {}
        self._groups: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._generation = ring.generation

    def replicas_for(
        self, key: bytes, exclude: Iterable[str] = ()
    ) -> tuple[str, ...]:
        """The key's preferred list: up to N nodes in ring order.

        Nodes in ``exclude`` (e.g. currently-down members) are skipped,
        which extends the walk to the next successors — the
        deterministic re-placement crash handling relies on.  The
        stack-skip rule keeps replica stacks distinct while possible;
        when fewer distinct stacks than replicas exist, the remainder is
        filled with distinct nodes in walk order (never the same node
        twice).  Without ``exclude`` the answer comes from a per-key
        memo that a ring membership change invalidates.
        """
        if exclude:
            return self._walk(key, set(exclude))
        if self.ring.generation != self._generation:
            self._memo.clear()
            self._groups.clear()
            self._generation = self.ring.generation
        group = self._memo.get(key)
        if group is None:
            group = self._walk(key, ())
            group = self._groups.setdefault(group, group)
            if len(self._memo) < MEMO_MAX_KEYS:
                self._memo[key] = group
        return group

    def _walk(self, key: bytes, excluded: Container[str]) -> tuple[str, ...]:
        chosen: list[str] = []
        used_stacks: set[str] = set()
        stack_conflicts: list[str] = []
        for node in self.ring.successors(key):
            if node in excluded:
                continue
            stack = self.stack_of(node)
            if stack in used_stacks:
                stack_conflicts.append(node)
                continue
            chosen.append(node)
            used_stacks.add(stack)
            if len(chosen) == self.n:
                return tuple(chosen)
        for node in stack_conflicts:
            chosen.append(node)
            if len(chosen) == self.n:
                break
        return tuple(chosen)

    def primary_for(self, key: bytes, exclude: Iterable[str] = ()) -> str:
        """The first live preferred replica.

        Raises:
            ConfigurationError: when every node is excluded or the ring
                is empty.
        """
        replicas = self.replicas_for(key, exclude)
        if not replicas:
            raise ConfigurationError("no replica available for key")
        return replicas[0]

    def stacks_for(self, key: bytes, exclude: Iterable[str] = ()) -> tuple[str, ...]:
        """The failure domains the key's replicas land on."""
        return tuple(self.stack_of(node) for node in self.replicas_for(key, exclude))
