"""The memcached ASCII protocol: parsing and rendering.

Only the classic text protocol is implemented (the paper runs Memcached
1.4, where it is the default).  Commands are parsed from complete request
blobs — one command line plus, for storage commands, the data block — and
responses are rendered to the exact bytes a client would see, so the wire
payload sizes used by the network model are computed from real framing.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ProtocolError
from repro.kvstore.batching import MAX_BATCH_OPS

_CRLF = b"\r\n"
#: Bytes a key may hold: printable ASCII without space (33..126).
_KEY_BYTES = bytes(range(33, 127))
#: memcached's flags are an unsigned 32-bit client opaque.
_MAX_FLAGS = (1 << 32) - 1

STORAGE_VERBS = frozenset({"set", "add", "replace", "append", "prepend", "cas"})
RETRIEVAL_VERBS = frozenset({"get", "gets"})
SIMPLE_VERBS = frozenset(
    {"delete", "incr", "decr", "touch", "flush_all", "version", "stats", "quit"}
)
#: Batch frames.  ``get``/``gets`` already carry multiple keys (the ASCII
#: multiget); ``mset`` is the storage-side counterpart: a count header
#: followed by that many ``<key> <flags> <exptime> <bytes>`` sub-blocks.
BATCH_VERBS = frozenset({"mset"})


class Command(NamedTuple):
    """A parsed client command (an immutable tuple of its fields)."""

    verb: str
    keys: tuple[bytes, ...] = ()
    flags: int = 0
    exptime: float = 0.0
    data: bytes = b""
    cas: int = 0
    delta: int = 0
    noreply: bool = False
    # Batch frames (mset) carry their per-op payloads here; each
    # subcommand is a plain storage Command executed in frame order.
    subcommands: tuple["Command", ...] = ()

    @property
    def key(self) -> bytes:
        if not self.keys:
            raise ProtocolError(f"{self.verb} carries no key")
        return self.keys[0]


class Response(NamedTuple):
    """A server response: a status line and optional value blocks."""

    status: str
    values: tuple[tuple[bytes, int, bytes, int | None], ...] = ()
    # each value: (key, flags, data, cas-or-None)


# The request parsers test and raise inline instead of calling this, so
# that a message is formatted only when a request is rejected.
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _parse_int(token: bytes, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(f"bad {what}: {token!r}") from None


def _parse_flags(token: bytes) -> int:
    flags = _parse_int(token, "flags")
    if not 0 <= flags <= _MAX_FLAGS:
        raise ProtocolError(f"flags out of range: {flags}")
    return flags


def _check_key(key: bytes) -> bytes:
    if not 0 < len(key) <= 250:
        raise ProtocolError(f"bad key length {len(key)}")
    if key.translate(None, _KEY_BYTES):
        raise ProtocolError("keys must be printable ASCII without spaces")
    return key


def parse_command(blob: bytes) -> tuple[Command, bytes]:
    """Parse one command off the front of ``blob``.

    Returns ``(command, remainder)`` so a connection buffer can be drained
    by repeated calls.

    Raises:
        ProtocolError: on malformed input or an incomplete data block.
    """
    end = blob.find(_CRLF)
    if end < 0:
        raise ProtocolError("no CRLF-terminated command line")
    line = blob[:end]
    rest = blob[end + 2 :]
    parts = line.split()
    if not parts:
        raise ProtocolError("empty command line")
    verb = parts[0].decode("ascii", "replace").lower()

    if verb in STORAGE_VERBS:
        return _parse_storage(verb, parts, rest)
    if verb in RETRIEVAL_VERBS:
        if len(parts) < 2:
            raise ProtocolError(f"{verb} needs at least one key")
        return Command(verb, tuple(map(_check_key, parts[1:]))), rest
    if verb == "delete":
        if len(parts) not in (2, 3):
            raise ProtocolError("delete <key> [noreply]")
        noreply = len(parts) == 3 and parts[2] == b"noreply"
        return Command(verb=verb, keys=(_check_key(parts[1]),), noreply=noreply), rest
    if verb in ("incr", "decr"):
        if len(parts) not in (3, 4):
            raise ProtocolError(f"{verb} <key> <delta> [noreply]")
        delta = _parse_int(parts[2], "delta")
        if delta < 0:
            raise ProtocolError("delta must be unsigned")
        noreply = len(parts) == 4 and parts[3] == b"noreply"
        return (
            Command(verb=verb, keys=(_check_key(parts[1]),), delta=delta, noreply=noreply),
            rest,
        )
    if verb == "touch":
        if len(parts) not in (3, 4):
            raise ProtocolError("touch <key> <exptime> [noreply]")
        exptime = _parse_int(parts[2], "exptime")
        noreply = len(parts) == 4 and parts[3] == b"noreply"
        return (
            Command(
                verb=verb, keys=(_check_key(parts[1]),), exptime=float(exptime), noreply=noreply
            ),
            rest,
        )
    if verb == "stats":
        # "stats" takes an optional topic ("slabs", "items", ...).
        if len(parts) > 2:
            raise ProtocolError("stats [topic]")
        keys = (_check_key(parts[1]),) if len(parts) == 2 else ()
        return Command(verb=verb, keys=keys), rest
    if verb == "verbosity":
        if len(parts) not in (2, 3):
            raise ProtocolError("verbosity <level> [noreply]")
        level = _parse_int(parts[1], "verbosity level")
        noreply = len(parts) == 3 and parts[2] == b"noreply"
        return Command(verb=verb, delta=level, noreply=noreply), rest
    if verb in ("flush_all", "version", "quit"):
        return Command(verb=verb), rest
    if verb == "mset":
        return _parse_mset(parts, rest)
    raise ProtocolError(f"unknown verb {verb!r}")


def _parse_mset(parts: list[bytes], rest: bytes) -> tuple[Command, bytes]:
    """``mset <n>`` followed by n ``<key> <flags> <exptime> <bytes>`` blocks.

    Each sub-block carries a data payload exactly like ``set``; the
    response is n bare status lines in frame order (no END trailer), so
    a batched client sees byte-identical per-op outcomes to n serial
    sets.  A zero-op frame is valid and produces an empty response.
    """
    if len(parts) != 2:
        raise ProtocolError("mset <count>")
    count = _parse_int(parts[1], "mset count")
    if not 0 <= count <= MAX_BATCH_OPS:
        raise ProtocolError(f"mset count out of range: {count}")
    subcommands = []
    for _ in range(count):
        end = rest.find(_CRLF)
        if end < 0:
            raise ProtocolError("incomplete data block")
        sub_parts = rest[:end].split()
        if len(sub_parts) != 4:
            raise ProtocolError("mset sub-block: <key> <flags> <exptime> <bytes>")
        key = _check_key(sub_parts[0])
        flags = _parse_flags(sub_parts[1])
        exptime = _parse_int(sub_parts[2], "exptime")
        length = _parse_int(sub_parts[3], "bytes")
        if length < 0:
            raise ProtocolError("negative data length")
        body_start = end + 2
        if len(rest) < body_start + length + 2:
            raise ProtocolError("incomplete data block")
        data = rest[body_start : body_start + length]
        if rest[body_start + length : body_start + length + 2] != _CRLF:
            raise ProtocolError("data block not CRLF-terminated")
        rest = rest[body_start + length + 2 :]
        subcommands.append(
            Command(
                verb="set",
                keys=(key,),
                flags=flags,
                exptime=float(exptime),
                data=data,
            )
        )
    return Command(verb="mset", subcommands=tuple(subcommands)), rest


def _parse_storage(verb: str, parts: list[bytes], rest: bytes) -> tuple[Command, bytes]:
    base_args = 5 if verb != "cas" else 6
    if len(parts) not in (base_args, base_args + 1):
        raise ProtocolError(
            f"{verb} <key> <flags> <exptime> <bytes>"
            + (" <cas>" if verb == "cas" else "")
            + " [noreply]"
        )
    key = _check_key(parts[1])
    flags = _parse_flags(parts[2])
    exptime = _parse_int(parts[3], "exptime")
    length = _parse_int(parts[4], "bytes")
    if length < 0:
        raise ProtocolError("negative data length")
    cas = _parse_int(parts[5], "cas id") if verb == "cas" else 0
    noreply = len(parts) == base_args + 1 and parts[base_args] == b"noreply"
    if len(rest) < length + 2:
        raise ProtocolError("incomplete data block")
    data = rest[:length]
    if rest[length : length + 2] != _CRLF:
        raise ProtocolError("data block not CRLF-terminated")
    remainder = rest[length + 2 :]
    return (
        Command(
            verb=verb,
            keys=(key,),
            flags=flags,
            exptime=float(exptime),
            data=data,
            cas=cas,
            noreply=noreply,
        ),
        remainder,
    )


def render_command(command: Command) -> bytes:
    """Serialise a command back to wire bytes (client side)."""
    verb = command.verb
    if verb in STORAGE_VERBS:
        line = b"%s %s %d %d %d" % (
            verb.encode(),
            command.key,
            command.flags,
            int(command.exptime),
            len(command.data),
        )
        if verb == "cas":
            line += b" %d" % command.cas
        if command.noreply:
            line += b" noreply"
        return line + _CRLF + command.data + _CRLF
    if verb in RETRIEVAL_VERBS:
        return verb.encode() + b" " + b" ".join(command.keys) + _CRLF
    if verb == "mset":
        out = bytearray(b"mset %d" % len(command.subcommands) + _CRLF)
        for sub in command.subcommands:
            out += b"%s %d %d %d" % (
                sub.key,
                sub.flags,
                int(sub.exptime),
                len(sub.data),
            )
            out += _CRLF + sub.data + _CRLF
        return bytes(out)
    if verb == "delete":
        line = b"delete " + command.key
    elif verb in ("incr", "decr"):
        line = b"%s %s %d" % (verb.encode(), command.key, command.delta)
    elif verb == "touch":
        line = b"touch %s %d" % (command.key, int(command.exptime))
    else:
        line = verb.encode()
    if command.noreply:
        line += b" noreply"
    return line + _CRLF


def render_response(response: Response) -> bytes:
    """Serialise a response to wire bytes (server side)."""
    out = bytearray()
    for key, flags, data, cas in response.values:
        if cas is None:
            out += b"VALUE %s %d %d" % (key, flags, len(data))
        else:
            out += b"VALUE %s %d %d %d" % (key, flags, len(data), cas)
        out += _CRLF + data + _CRLF
    if response.status:
        out += response.status.encode() + _CRLF
    return bytes(out)


def reply_len(status: str, key_len: int = 0, value_len: int | None = None) -> int:
    """``len(render_response(...))`` for a reply of one flags-0, CAS-free
    ``value_len``-byte value under a ``key_len``-byte key (no value when
    ``value_len`` is None), then the ``status`` line."""
    length = len(status) + 2
    if value_len is not None:
        # b"VALUE <key> 0 <value_len>\r\n<data>\r\n"
        length += 13 + key_len + len(str(value_len)) + value_len
    return length


def _parse_values(
    blob: bytes,
) -> tuple[list[tuple[bytes, int, bytes, int | None]], bytes]:
    """Peel the leading ``VALUE`` blocks off ``blob``; returns
    ``(values, rest)`` with ``rest`` starting at the status line."""
    values: list[tuple[bytes, int, bytes, int | None]] = []
    rest = blob
    while rest.startswith(b"VALUE "):
        end = rest.find(_CRLF)
        _require(end >= 0, "unterminated VALUE line")
        parts = rest[:end].split()
        _require(len(parts) in (4, 5), "bad VALUE line")
        key = parts[1]
        flags = _parse_int(parts[2], "flags")
        length = _parse_int(parts[3], "bytes")
        cas = _parse_int(parts[4], "cas id") if len(parts) == 5 else None
        body_start = end + 2
        _require(len(rest) >= body_start + length + 2, "truncated VALUE data")
        data = rest[body_start : body_start + length]
        _require(
            rest[body_start + length : body_start + length + 2] == _CRLF,
            "VALUE data not CRLF-terminated",
        )
        values.append((key, flags, data, cas))
        rest = rest[body_start + length + 2 :]
    return values, rest


def parse_response(blob: bytes) -> Response:
    """Parse a complete server response (client side).

    Raises:
        ProtocolError: on malformed or truncated responses.
    """
    values, rest = _parse_values(blob)
    end = rest.find(_CRLF)
    if end < 0 and not values:
        raise ProtocolError("no status line in response")
    status = rest[:end].decode("ascii", "replace") if end >= 0 else ""
    return Response(status=status, values=tuple(values))


def parse_one_response(blob: bytes) -> tuple[Response, bytes]:
    """Parse one response off the front of a coalesced response stream.

    A batched exchange returns many responses back to back — VALUE
    blocks terminated by ``END`` for retrievals, one bare status line
    per mutation.  This peels exactly one (zero or more VALUE blocks
    plus a single status line) and returns ``(response, remainder)`` so
    a flushing client can walk the stream op by op.

    Raises:
        ProtocolError: on malformed or truncated responses.
    """
    values, rest = _parse_values(blob)
    end = rest.find(_CRLF)
    _require(end >= 0, "no status line in response")
    status = rest[:end].decode("ascii", "replace")
    return Response(status=status, values=tuple(values)), rest[end + 2 :]
