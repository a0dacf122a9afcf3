"""Client-side request batching: policy, buffers, and futures.

Production Memcached clients reach wire speed not one RPC at a time but
by *coalescing*: operations destined for the same host accumulate in a
per-host buffer and flush as one multi-op exchange — when the buffer
reaches ``batch_max`` ops, when the oldest buffered op has lingered for
``linger_s`` of simulated time, or when the caller issues an explicit
barrier.  One round trip then carries the whole batch, which is where
the per-request TCP/syscall overhead (the dominant cost for small GETs —
see Fig. 4) gets amortised.

:class:`BatchPolicy` is the frozen knob set (JSON round-trippable so it
can ride on :class:`~repro.sim.run_options.RunOptions` and be content-
addressed by the experiment cache).  :class:`BatchBuffer` is one host's
accumulation buffer; it never reorders operations, so per-key program
order inside a batch is exactly submission order — the property the
differential batch-vs-serial suite pins down.  :class:`BatchFuture` is
the deferred result handed back by the submit API; deduplicated GETs
share one wire op but each submitted future still resolves exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.codec import Serialisable
from repro.errors import ConfigurationError, ProtocolError

#: Hard ceiling on ops per batch, shared by every wire format (the
#: cs6450-style clients cap BatchGet at 1024 keys; oversized counts in a
#: multiget/multiset frame are rejected as malformed).
MAX_BATCH_OPS = 1024

#: Flush reasons, as they appear in telemetry labels and batch records.
FLUSH_SIZE = "size"
FLUSH_LINGER = "linger"
FLUSH_BARRIER = "barrier"
FLUSH_REASONS = (FLUSH_SIZE, FLUSH_LINGER, FLUSH_BARRIER)


@dataclass(frozen=True)
class BatchPolicy(Serialisable):
    """The batching knobs: how big, how long, and whether GETs dedup.

    ``batch_max`` caps ops per flush (1 = every op flushes immediately,
    i.e. serial behaviour over the batch API).  ``linger_s`` bounds how
    long the oldest buffered op may wait, on the *simulated* clock, before
    a flush is forced.  ``dedup_gets`` folds a GET for a key that already
    has an identical in-flight GET in the same buffer — with no
    intervening mutation of that key — onto the earlier wire op.
    """

    batch_max: int = 1
    linger_s: float = 0.0
    dedup_gets: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.batch_max <= MAX_BATCH_OPS:
            raise ConfigurationError(
                f"batch_max must be in [1, {MAX_BATCH_OPS}]"
            )
        if self.linger_s < 0:
            raise ConfigurationError("linger_s cannot be negative")

    @property
    def enabled(self) -> bool:
        """Whether this policy batches at all (more than one op per flush)."""
        return self.batch_max > 1


class BatchFuture:
    """The deferred outcome of one submitted operation.

    Resolves exactly once, at the flush that carries (or fails) its op.
    """

    __slots__ = ("_value", "done")

    def __init__(self) -> None:
        self.done = False
        self._value: Any = None

    def resolve(self, value: Any) -> None:
        if self.done:
            raise ProtocolError("batch future resolved twice")
        self.done = True
        self._value = value

    def result(self) -> Any:
        if not self.done:
            raise ProtocolError(
                "batch future not resolved yet (flush or barrier first)"
            )
        return self._value


@dataclass
class BatchOp:
    """One buffered operation and the futures awaiting its outcome.

    ``futures`` usually holds one entry; deduplicated GETs append theirs
    to the original op's list, so one wire op fans its result out to
    every waiter.
    """

    verb: str  # "get" | "set" | "delete"
    key: bytes
    value: bytes = b""
    flags: int = 0
    expire: float = 0.0
    futures: list[BatchFuture] | None = None

    def __post_init__(self) -> None:
        if self.verb not in ("get", "set", "delete"):
            raise ConfigurationError(f"unbatchable verb {self.verb!r}")
        if self.futures is None:
            self.futures = [BatchFuture()]

    @property
    def future(self) -> BatchFuture:
        return self.futures[0]

    def resolve(self, value: Any) -> None:
        for future in self.futures:
            future.resolve(value)


@dataclass(frozen=True)
class Batch:
    """One flushed batch: the ops, why it flushed, and how long it sat."""

    ops: tuple[BatchOp, ...]
    reason: str
    opened_at: float
    flushed_at: float

    @property
    def age_s(self) -> float:
        return self.flushed_at - self.opened_at

    def __len__(self) -> int:
        return len(self.ops)


class BatchBuffer:
    """One host's accumulation buffer.

    Ops append in submission order and flush in that same order — the
    buffer never reorders, so per-key program order within a batch is
    submission order.  ``append`` returns the batch when its op filled
    the buffer to ``batch_max`` (a size flush); otherwise the caller
    flushes via :meth:`take` on a linger deadline or barrier.
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._ops: list[BatchOp] = []
        self.opened_at: float | None = None
        # Dedup bookkeeping, valid for the current batch only: the last
        # buffered GET per key, invalidated by any later mutation of it.
        self._dedup_gets: dict[bytes, BatchOp] = {}

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def deadline(self) -> float | None:
        """When the linger policy forces a flush (None when empty)."""
        if self.opened_at is None:
            return None
        return self.opened_at + self.policy.linger_s

    def expired(self, now: float) -> bool:
        deadline = self.deadline
        return deadline is not None and now >= deadline

    def append(self, op: BatchOp, now: float) -> Batch | None:
        """Buffer one op; returns a batch if this op triggered a size flush.

        A GET that duplicates an in-flight GET for the same key (with no
        mutation of that key buffered in between) does not occupy a slot:
        its future joins the earlier op's fan-out list.
        """
        if op.verb == "get" and self.policy.dedup_gets:
            earlier = self._dedup_gets.get(op.key)
            if earlier is not None:
                earlier.futures.extend(op.futures)
                return None
        if not self._ops:
            self.opened_at = now
        self._ops.append(op)
        if op.verb == "get":
            self._dedup_gets[op.key] = op
        else:
            # A mutation ends the dedup window for its key: a later GET
            # must observe it, so it becomes a fresh wire op.
            self._dedup_gets.pop(op.key, None)
        if len(self._ops) >= self.policy.batch_max:
            return self.take(FLUSH_SIZE, now)
        return None

    def take(self, reason: str, now: float) -> Batch | None:
        """Drain the buffer into a batch; None when empty."""
        if reason not in FLUSH_REASONS:
            raise ConfigurationError(f"unknown flush reason {reason!r}")
        if not self._ops:
            return None
        batch = Batch(
            ops=tuple(self._ops),
            reason=reason,
            opened_at=self.opened_at if self.opened_at is not None else now,
            flushed_at=now,
        )
        self._ops = []
        self.opened_at = None
        self._dedup_gets = {}
        return batch
