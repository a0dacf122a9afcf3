"""The memcached binary protocol (the 1.4-era second wire format).

Every message is a 24-byte header followed by extras, key, and value:

    offset  field
    0       magic (0x80 request / 0x81 response)
    1       opcode
    2-3     key length
    4       extras length
    5       data type (always 0)
    6-7     vbucket id (request) / status (response)
    8-11    total body length (extras + key + value)
    12-15   opaque (echoed verbatim)
    16-23   CAS

Implemented opcodes cover the data plane Facebook-era clients used:
GET/GETQ, SET/ADD/REPLACE (with flags+expiry extras), DELETE,
INCREMENT/DECREMENT (delta/initial/expiry extras), APPEND/PREPEND,
TOUCH, NOOP, VERSION, FLUSH, QUIT.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from repro.errors import ProtocolError
from repro.kvstore.batching import MAX_BATCH_OPS
from repro.kvstore.store import KVStore, StoreResult

REQUEST_MAGIC = 0x80
RESPONSE_MAGIC = 0x81
HEADER_LENGTH = 24
_HEADER = struct.Struct(">BBHBBHIIQ")


class Opcode(IntEnum):
    GET = 0x00
    SET = 0x01
    ADD = 0x02
    REPLACE = 0x03
    DELETE = 0x04
    INCREMENT = 0x05
    DECREMENT = 0x06
    QUIT = 0x07
    FLUSH = 0x08
    GETQ = 0x09
    NOOP = 0x0A
    VERSION = 0x0B
    APPEND = 0x0E
    PREPEND = 0x0F
    TOUCH = 0x1C
    GAT = 0x1D   # get-and-touch
    GATQ = 0x1E  # quiet get-and-touch
    # Batch extensions (vendor range): one frame, many ops.
    MULTIGET = 0x40
    MULTISET = 0x41
    BATCH = 0x42  # envelope of concatenated inner request frames


class Status(IntEnum):
    NO_ERROR = 0x0000
    KEY_NOT_FOUND = 0x0001
    KEY_EXISTS = 0x0002
    VALUE_TOO_LARGE = 0x0003
    INVALID_ARGUMENTS = 0x0004
    ITEM_NOT_STORED = 0x0005
    DELTA_BADVAL = 0x0006
    OUT_OF_MEMORY = 0x0082
    UNKNOWN_COMMAND = 0x0081


_STORAGE_OPCODES = frozenset({Opcode.SET, Opcode.ADD, Opcode.REPLACE})
_ARITH_OPCODES = frozenset({Opcode.INCREMENT, Opcode.DECREMENT})


@dataclass(frozen=True)
class BinaryMessage:
    """One decoded request or response."""

    magic: int
    opcode: Opcode
    key: bytes = b""
    extras: bytes = b""
    value: bytes = b""
    status: int = 0  # vbucket on requests
    opaque: int = 0
    cas: int = 0

    @property
    def is_request(self) -> bool:
        return self.magic == REQUEST_MAGIC

    @property
    def total_body(self) -> int:
        return len(self.extras) + len(self.key) + len(self.value)


def encode(message: BinaryMessage) -> bytes:
    """Serialise a message to wire bytes."""
    header = _HEADER.pack(
        message.magic,
        int(message.opcode),
        len(message.key),
        len(message.extras),
        0,
        message.status,
        message.total_body,
        message.opaque,
        message.cas,
    )
    return header + message.extras + message.key + message.value


def decode(wire: bytes) -> tuple[BinaryMessage, bytes]:
    """Decode one message off the front of ``wire``.

    Returns ``(message, remainder)``.

    Raises:
        ProtocolError: on bad magic, short input, or unknown opcode.
    """
    if len(wire) < HEADER_LENGTH:
        raise ProtocolError("short binary header")
    (
        magic,
        opcode_raw,
        key_length,
        extras_length,
        data_type,
        status,
        total_body,
        opaque,
        cas,
    ) = _HEADER.unpack(wire[:HEADER_LENGTH])
    if magic not in (REQUEST_MAGIC, RESPONSE_MAGIC):
        raise ProtocolError(f"bad magic byte {magic:#x}")
    if data_type != 0:
        raise ProtocolError(f"unsupported data type {data_type}")
    try:
        opcode = Opcode(opcode_raw)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode_raw:#x}") from None
    if key_length + extras_length > total_body:
        raise ProtocolError("inconsistent body lengths")
    end = HEADER_LENGTH + total_body
    if len(wire) < end:
        raise ProtocolError("incomplete binary body")
    body = wire[HEADER_LENGTH:end]
    extras = body[:extras_length]
    key = body[extras_length : extras_length + key_length]
    value = body[extras_length + key_length :]
    message = BinaryMessage(
        magic=magic, opcode=opcode, key=key, extras=extras, value=value,
        status=status, opaque=opaque, cas=cas,
    )
    return message, wire[end:]


def needs_more_bytes(wire: bytes) -> bool:
    """Whether ``wire`` is a prefix of a message (buffer and retry)."""
    if len(wire) < HEADER_LENGTH:
        return True
    total_body = struct.unpack_from(">I", wire, 8)[0]
    return len(wire) < HEADER_LENGTH + total_body


# --- request builders (client side) ----------------------------------------------


def get_request(key: bytes, opaque: int = 0, quiet: bool = False) -> BinaryMessage:
    return BinaryMessage(
        magic=REQUEST_MAGIC,
        opcode=Opcode.GETQ if quiet else Opcode.GET,
        key=key,
        opaque=opaque,
    )


def set_request(
    key: bytes,
    value: bytes,
    flags: int = 0,
    expiry: int = 0,
    cas: int = 0,
    opcode: Opcode = Opcode.SET,
    opaque: int = 0,
) -> BinaryMessage:
    if opcode not in _STORAGE_OPCODES:
        raise ProtocolError(f"{opcode.name} is not a storage opcode")
    extras = struct.pack(">II", flags, expiry)
    return BinaryMessage(
        magic=REQUEST_MAGIC, opcode=opcode, key=key, extras=extras,
        value=value, cas=cas, opaque=opaque,
    )


def arith_request(
    key: bytes,
    delta: int,
    initial: int = 0,
    expiry: int = 0xFFFFFFFF,
    decrement: bool = False,
    opaque: int = 0,
) -> BinaryMessage:
    extras = struct.pack(">QQI", delta, initial, expiry)
    return BinaryMessage(
        magic=REQUEST_MAGIC,
        opcode=Opcode.DECREMENT if decrement else Opcode.INCREMENT,
        key=key,
        extras=extras,
        opaque=opaque,
    )


def simple_request(opcode: Opcode, key: bytes = b"", opaque: int = 0) -> BinaryMessage:
    return BinaryMessage(magic=REQUEST_MAGIC, opcode=opcode, key=key, opaque=opaque)


# --- batch frames ---------------------------------------------------------------
#
# MULTIGET request value:   u16 count, then per key (u16 keylen, key).
# MULTIGET response value:  u16 found, then per hit
#                           (u16 keylen, key, u32 flags, u32 vallen, value).
# MULTISET request value:   u16 count, then per op
#                           (u16 keylen, key, u32 flags, u32 expiry,
#                            u32 vallen, value).
# MULTISET response value:  u16 count, then u16 status per op, frame order.
# BATCH request value:      u16 count, then that many concatenated inner
#                           *request* frames (full 24-byte-header messages).
# BATCH response value:     u16 responded, then the inner response frames
#                           (quiet inner ops that miss respond nothing).
#
# Oversized counts, truncated bodies, and trailing bytes are rejected with
# INVALID_ARGUMENTS; control opcodes (QUIT/FLUSH/VERSION) and nested batch
# frames are forbidden inside a BATCH envelope.

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: Opcodes that may not ride inside a BATCH envelope: connection/cache
#: control (not per-key data ops) and the batch frames themselves.
FORBIDDEN_IN_BATCH = frozenset(
    {Opcode.QUIT, Opcode.FLUSH, Opcode.VERSION,
     Opcode.BATCH, Opcode.MULTIGET, Opcode.MULTISET}
)


def multiget_request(keys, opaque: int = 0) -> BinaryMessage:
    keys = list(keys)
    if len(keys) > MAX_BATCH_OPS:
        raise ProtocolError(f"multiget of {len(keys)} keys exceeds {MAX_BATCH_OPS}")
    value = bytearray(_U16.pack(len(keys)))
    for key in keys:
        value += _U16.pack(len(key)) + key
    return BinaryMessage(
        magic=REQUEST_MAGIC, opcode=Opcode.MULTIGET, value=bytes(value), opaque=opaque
    )


def multiset_request(ops, opaque: int = 0) -> BinaryMessage:
    """``ops`` is a sequence of ``(key, value, flags, expiry)`` tuples."""
    ops = list(ops)
    if len(ops) > MAX_BATCH_OPS:
        raise ProtocolError(f"multiset of {len(ops)} ops exceeds {MAX_BATCH_OPS}")
    value = bytearray(_U16.pack(len(ops)))
    for key, data, flags, expiry in ops:
        value += _U16.pack(len(key)) + key
        value += _U32.pack(flags) + _U32.pack(int(expiry)) + _U32.pack(len(data))
        value += data
    return BinaryMessage(
        magic=REQUEST_MAGIC, opcode=Opcode.MULTISET, value=bytes(value), opaque=opaque
    )


def batch_request(messages, opaque: int = 0) -> BinaryMessage:
    """Wrap inner request messages in one BATCH envelope frame."""
    messages = list(messages)
    if len(messages) > MAX_BATCH_OPS:
        raise ProtocolError(f"batch of {len(messages)} ops exceeds {MAX_BATCH_OPS}")
    value = bytearray(_U16.pack(len(messages)))
    for message in messages:
        if message.opcode in FORBIDDEN_IN_BATCH:
            raise ProtocolError(f"{message.opcode.name} cannot ride in a batch")
        value += encode(message)
    return BinaryMessage(
        magic=REQUEST_MAGIC, opcode=Opcode.BATCH, value=bytes(value), opaque=opaque
    )


def decode_multiget_response(message: BinaryMessage) -> dict[bytes, tuple[int, bytes]]:
    """Client-side: unpack a MULTIGET response into ``{key: (flags, value)}``."""
    blob = message.value
    try:
        (found,) = _U16.unpack_from(blob, 0)
        offset = 2
        out: dict[bytes, tuple[int, bytes]] = {}
        for _ in range(found):
            (key_length,) = _U16.unpack_from(blob, offset)
            offset += 2
            key = blob[offset : offset + key_length]
            if len(key) != key_length:
                raise ProtocolError("truncated multiget response key")
            offset += key_length
            flags, value_length = struct.unpack_from(">II", blob, offset)
            offset += 8
            value = blob[offset : offset + value_length]
            if len(value) != value_length:
                raise ProtocolError("truncated multiget response value")
            offset += value_length
            out[key] = (flags, value)
    except struct.error:
        raise ProtocolError("truncated multiget response") from None
    if offset != len(blob):
        raise ProtocolError("trailing bytes in multiget response")
    return out


def decode_multiset_response(message: BinaryMessage) -> list[Status]:
    """Client-side: unpack a MULTISET response into per-op statuses."""
    blob = message.value
    try:
        (count,) = _U16.unpack_from(blob, 0)
        statuses = [
            Status(_U16.unpack_from(blob, 2 + 2 * i)[0]) for i in range(count)
        ]
    except (struct.error, ValueError):
        raise ProtocolError("truncated multiset response") from None
    if 2 + 2 * count != len(blob):
        raise ProtocolError("trailing bytes in multiset response")
    return statuses


# --- server execution ----------------------------------------------------------------


class BinaryServer:
    """Executes binary-protocol requests against a :class:`KVStore`."""

    def __init__(self, store: KVStore):
        self.store = store
        self.closed = False
        self.batches = 0
        self.batched_ops = 0

    def handle(self, wire: bytes) -> bytes:
        """Execute every complete request in ``wire``; returns responses."""
        out = bytearray()
        rest = wire
        while rest and not needs_more_bytes(rest):
            request, rest = decode(rest)
            if not request.is_request:
                raise ProtocolError("received a response on the server side")
            response = self.execute(request)
            if response is not None:
                out += encode(response)
        return bytes(out)

    def execute(self, request: BinaryMessage) -> BinaryMessage | None:
        """Execute one request; None for silent (quiet-miss) outcomes."""
        handler = getattr(self, f"_op_{request.opcode.name.lower()}", None)
        if handler is None:  # pragma: no cover - all opcodes are handled
            return self._status(request, Status.UNKNOWN_COMMAND)
        return handler(request)

    # --- helpers ---------------------------------------------------------------

    def _status(
        self,
        request: BinaryMessage,
        status: Status,
        extras: bytes = b"",
        value: bytes = b"",
        cas: int = 0,
    ) -> BinaryMessage:
        return BinaryMessage(
            magic=RESPONSE_MAGIC,
            opcode=request.opcode,
            status=int(status),
            extras=extras,
            value=value,
            opaque=request.opaque,
            cas=cas,
        )

    # --- opcode handlers ------------------------------------------------------------

    def _op_get(self, request: BinaryMessage) -> BinaryMessage:
        item = self.store.get(request.key)
        if item is None:
            return self._status(request, Status.KEY_NOT_FOUND)
        extras = struct.pack(">I", item.flags)
        return self._status(
            request, Status.NO_ERROR, extras=extras, value=item.value, cas=item.cas
        )

    def _op_getq(self, request: BinaryMessage) -> BinaryMessage | None:
        item = self.store.get(request.key)
        if item is None:
            return None  # quiet GET: misses are silent
        extras = struct.pack(">I", item.flags)
        return self._status(
            request, Status.NO_ERROR, extras=extras, value=item.value, cas=item.cas
        )

    def _store_op(self, request: BinaryMessage) -> BinaryMessage:
        if len(request.extras) != 8:
            return self._status(request, Status.INVALID_ARGUMENTS)
        flags, expiry = struct.unpack(">II", request.extras)
        store = self.store
        if request.cas:
            result = store.cas(
                request.key, request.value, request.cas, flags, float(expiry)
            )
        elif request.opcode == Opcode.SET:
            result = store.set(request.key, request.value, flags, float(expiry))
        elif request.opcode == Opcode.ADD:
            result = store.add(request.key, request.value, flags, float(expiry))
        else:
            result = store.replace(request.key, request.value, flags, float(expiry))
        status = self._RESULT_STATUS.get(result, Status.ITEM_NOT_STORED)
        cas = 0
        if status is Status.NO_ERROR:
            stored = self.store.table.find(request.key)
            cas = stored.cas if stored is not None else 0
        return self._status(request, status, cas=cas)

    _op_set = _store_op
    _op_add = _store_op
    _op_replace = _store_op

    def _op_delete(self, request: BinaryMessage) -> BinaryMessage:
        result = self.store.delete(request.key)
        if result is StoreResult.DELETED:
            return self._status(request, Status.NO_ERROR)
        return self._status(request, Status.KEY_NOT_FOUND)

    def _arith_op(self, request: BinaryMessage) -> BinaryMessage:
        if len(request.extras) != 20:
            return self._status(request, Status.INVALID_ARGUMENTS)
        delta, initial, expiry = struct.unpack(">QQI", request.extras)
        decrement = request.opcode == Opcode.DECREMENT
        try:
            if decrement:
                value = self.store.decr(request.key, delta)
            else:
                value = self.store.incr(request.key, delta)
        except Exception:
            return self._status(request, Status.DELTA_BADVAL)
        if value is None:
            if expiry == 0xFFFFFFFF:
                return self._status(request, Status.KEY_NOT_FOUND)
            # Binary-protocol semantics: seed with the initial value.
            self.store.set(request.key, str(initial).encode(), expire=float(expiry))
            value = initial
        return self._status(
            request, Status.NO_ERROR, value=struct.pack(">Q", value)
        )

    _op_increment = _arith_op
    _op_decrement = _arith_op

    def _concat_op(self, request: BinaryMessage) -> BinaryMessage:
        if request.opcode == Opcode.APPEND:
            result = self.store.append(request.key, request.value)
        else:
            result = self.store.prepend(request.key, request.value)
        if result is StoreResult.STORED:
            return self._status(request, Status.NO_ERROR)
        return self._status(request, Status.ITEM_NOT_STORED)

    _op_append = _concat_op
    _op_prepend = _concat_op

    def _gat_op(self, request: BinaryMessage) -> BinaryMessage | None:
        """Get-and-touch: fetch the value and refresh its expiry."""
        quiet = request.opcode == Opcode.GATQ
        if len(request.extras) != 4:
            return self._status(request, Status.INVALID_ARGUMENTS)
        (expiry,) = struct.unpack(">I", request.extras)
        item = self.store.get(request.key)
        if item is None:
            return None if quiet else self._status(request, Status.KEY_NOT_FOUND)
        self.store.touch(request.key, float(expiry))
        extras = struct.pack(">I", item.flags)
        return self._status(
            request, Status.NO_ERROR, extras=extras, value=item.value, cas=item.cas
        )

    _op_gat = _gat_op
    _op_gatq = _gat_op

    def _op_touch(self, request: BinaryMessage) -> BinaryMessage:
        if len(request.extras) != 4:
            return self._status(request, Status.INVALID_ARGUMENTS)
        (expiry,) = struct.unpack(">I", request.extras)
        result = self.store.touch(request.key, float(expiry))
        if result is StoreResult.TOUCHED:
            return self._status(request, Status.NO_ERROR)
        return self._status(request, Status.KEY_NOT_FOUND)

    _RESULT_STATUS = {
        StoreResult.STORED: Status.NO_ERROR,
        StoreResult.NOT_STORED: Status.ITEM_NOT_STORED,
        StoreResult.EXISTS: Status.KEY_EXISTS,
        StoreResult.NOT_FOUND: Status.KEY_NOT_FOUND,
        StoreResult.OUT_OF_MEMORY: Status.OUT_OF_MEMORY,
    }

    def _op_multiget(self, request: BinaryMessage) -> BinaryMessage:
        """One frame, many keys, one batched read-path resolution."""
        blob = request.value
        try:
            (count,) = _U16.unpack_from(blob, 0)
        except struct.error:
            return self._status(request, Status.INVALID_ARGUMENTS)
        if count > MAX_BATCH_OPS:
            return self._status(request, Status.INVALID_ARGUMENTS)
        keys = []
        offset = 2
        try:
            for _ in range(count):
                (key_length,) = _U16.unpack_from(blob, offset)
                offset += 2
                key = blob[offset : offset + key_length]
                if len(key) != key_length or key_length == 0:
                    return self._status(request, Status.INVALID_ARGUMENTS)
                offset += key_length
                keys.append(key)
        except struct.error:
            return self._status(request, Status.INVALID_ARGUMENTS)
        if offset != len(blob):
            return self._status(request, Status.INVALID_ARGUMENTS)
        items = self.store.get_many(keys)
        found = bytearray()
        hits = 0
        for key, item in zip(keys, items):
            if item is None:
                continue
            hits += 1
            found += _U16.pack(len(key)) + key
            found += _U32.pack(item.flags) + _U32.pack(len(item.value))
            found += item.value
        self.batches += 1
        self.batched_ops += len(keys)
        return self._status(
            request, Status.NO_ERROR, value=_U16.pack(hits) + bytes(found)
        )

    def _op_multiset(self, request: BinaryMessage) -> BinaryMessage:
        """One frame, many stores, per-op statuses in frame order."""
        blob = request.value
        try:
            (count,) = _U16.unpack_from(blob, 0)
        except struct.error:
            return self._status(request, Status.INVALID_ARGUMENTS)
        if count > MAX_BATCH_OPS:
            return self._status(request, Status.INVALID_ARGUMENTS)
        ops = []
        offset = 2
        try:
            for _ in range(count):
                (key_length,) = _U16.unpack_from(blob, offset)
                offset += 2
                key = blob[offset : offset + key_length]
                if len(key) != key_length or key_length == 0:
                    return self._status(request, Status.INVALID_ARGUMENTS)
                offset += key_length
                flags, expiry, value_length = struct.unpack_from(">III", blob, offset)
                offset += 12
                value = blob[offset : offset + value_length]
                if len(value) != value_length:
                    return self._status(request, Status.INVALID_ARGUMENTS)
                offset += value_length
                ops.append((key, value, flags, expiry))
        except struct.error:
            return self._status(request, Status.INVALID_ARGUMENTS)
        if offset != len(blob):
            return self._status(request, Status.INVALID_ARGUMENTS)
        # Frame fully validated before any store mutates: a malformed
        # multiset never half-applies.
        statuses = bytearray()
        for key, value, flags, expiry in ops:
            result = self.store.set(key, value, flags, float(expiry))
            statuses += _U16.pack(
                int(self._RESULT_STATUS.get(result, Status.ITEM_NOT_STORED))
            )
        self.batches += 1
        self.batched_ops += len(ops)
        return self._status(
            request, Status.NO_ERROR, value=_U16.pack(len(ops)) + bytes(statuses)
        )

    def _op_batch(self, request: BinaryMessage) -> BinaryMessage:
        """A BATCH envelope: decode and validate every inner frame, then
        execute them in order.  Any structural defect — truncated body,
        oversized count, trailing bytes, forbidden or nested opcode —
        rejects the whole envelope before a single op runs."""
        blob = request.value
        try:
            (count,) = _U16.unpack_from(blob, 0)
        except struct.error:
            return self._status(request, Status.INVALID_ARGUMENTS)
        if count > MAX_BATCH_OPS:
            return self._status(request, Status.INVALID_ARGUMENTS)
        rest = blob[2:]
        inner_requests = []
        for _ in range(count):
            if needs_more_bytes(rest):
                return self._status(request, Status.INVALID_ARGUMENTS)
            try:
                inner, rest = decode(rest)
            except ProtocolError:
                return self._status(request, Status.INVALID_ARGUMENTS)
            if not inner.is_request or inner.opcode in FORBIDDEN_IN_BATCH:
                return self._status(request, Status.INVALID_ARGUMENTS)
            inner_requests.append(inner)
        if rest:
            return self._status(request, Status.INVALID_ARGUMENTS)
        responses = bytearray()
        responded = 0
        for inner in inner_requests:
            response = self.execute(inner)
            if response is not None:  # quiet inner misses stay silent
                responses += encode(response)
                responded += 1
        self.batches += 1
        self.batched_ops += len(inner_requests)
        return self._status(
            request,
            Status.NO_ERROR,
            value=_U16.pack(responded) + bytes(responses),
        )

    def _op_noop(self, request: BinaryMessage) -> BinaryMessage:
        return self._status(request, Status.NO_ERROR)

    def _op_version(self, request: BinaryMessage) -> BinaryMessage:
        from repro.kvstore.server_loop import VERSION_STRING

        return self._status(request, Status.NO_ERROR, value=VERSION_STRING.encode())

    def _op_flush(self, request: BinaryMessage) -> BinaryMessage:
        self.store.flush_all()
        return self._status(request, Status.NO_ERROR)

    def _op_quit(self, request: BinaryMessage) -> BinaryMessage:
        self.closed = True
        return self._status(request, Status.NO_ERROR)
