"""Wire protocol: length-prefixed frames carrying ``Message``.

Every byte that crosses a connection in the live runtime — in-process
socketpair streams and real TCP alike — is one *frame*:

    +--------+---------+----------+------------------+
    | magic  | version | flags    | body length (u32)|   8-byte header
    | 2 B    | 1 B     | 1 B      | big-endian       |
    +--------+---------+----------+------------------+
    | body: one Message, encoded per version + flags |
    +------------------------------------------------+

Two codecs share the framing, selected by the header's version byte:

* **v1 (JSON)** — the body is the UTF-8 JSON encoding of
  :class:`repro.net.message.Message`.  Payloads must be JSON values;
  ``bytes`` are carried via a tagged ``{"__b64__": ...}`` wrapper and
  tuples become lists (the only lossy conversion — documented, and
  irrelevant to the runtime, which uses dict payloads).  v1 frames
  always carry ``flags == 0``.
* **v2 (binary)** — a hand-rolled struct layout.  The *generic* body
  (``flags == 0``) is one byte of message kind, six signed 64-bit
  integer fields (``src dst version hops origin request_id``), a
  u16-length-prefixed UTF-8 file name, then the payload as a tagged
  tree (see ``_enc_value``).  The encodable value set is identical to
  v1's (JSON scalars + bytes, string dict keys, finite floats), so the
  two codecs round-trip the same messages — property-tested in
  ``tests/test_runtime.py``.

**Fixed-layout fast lane (within v2).**  The ~90% message kinds on the
runtime's hot path — GET requests, ACK confirmations, and GET_REPLY
responses — have rigid payload shapes, so v2 senders may emit them as
struct-packed fixed layouts that bypass the tagged-value encoder
entirely.  The header's flags byte names the layout:

    ========  =================  =====================================
    flags     layout             applies when
    ========  =================  =====================================
    0         generic            any message (the only v1 value)
    1         FIXED_GET          kind GET, payload is None or a short
                                 list of small ints (the §4 remaining-
                                 subtree ids; ≤255 entries, each 0–255)
    2         FIXED_ACK          kind ACK, payload is None
    3         FIXED_GET_REPLY    kind GET_REPLY, payload is exactly
                                 {"payload": None|str|bytes,
                                  "server": int64}
    4         FIXED_OVERLOAD     kind OVERLOAD, payload is exactly
                                 {"shed_by": int64, "redirect": int64}
    ========  =================  =====================================

    A FIXED_GET body is the common struct + file name, optionally
    followed by a one-byte count and that many u8 subtree ids; no
    trailer decodes as ``payload=None``.  Forwarded GETs carry the
    remaining-subtree list in their payload, so without the trailer
    every forwarded hop would fall back to the tagged-value encoder —
    the trailer keeps the entire §4 routing path on the fixed lane.

A fixed-layout frame decodes to the *exact same* ``Message`` the
generic v2 body would produce (property-tested).  A v2 receiver
understands all five flag values, so fixed and generic frames mix
frame by frame on one connection — an ineligible message simply falls
back to ``flags == 0``.

**One ``bytes`` per frame.**  :meth:`FrameEncoder.add` builds each
frame once, as the immutable ``bytes`` the transport is handed: a
fixed-layout frame is one ``struct.pack`` over the header and every
fixed field, followed by the name and the trailer or value bytes; any
other frame is its body prefixed with a packed header.  A connection
writes in the call that added the frame (write-through), so a lone
frame goes to the transport as the object ``add`` built, with no copy;
only a paused transport lets frames accumulate, and they are joined in
order on resume.  :class:`FrameConnection` — the protocol every
connection runs, data plane and scale-out control link alike — is the
decode dual: the chunk one ``recv()`` returned is sliced, inside
``data_received``, into as many complete frames as it holds, each
header checked inline and each body decoded in one pass straight off a
``memoryview`` (leaf strings/bytes are copied out, so decoded messages
never alias the buffer).

**Carried body.**  A message decoded from a v2 *generic* frame keeps
that frame's body (``Message.__dict__[WIRE_BODY]``, not a field), and
``Message.forwarded`` hands it to the copy it returns.  ``src``, ``dst``
and ``hops`` — all ``forwarded`` changes — sit at fixed offsets of the
generic body, so :meth:`FrameEncoder.add` copies the carried bytes and
packs those three fields over them: every child of an UPDATE fan-out
costs a ~100-byte copy, not a walk of the payload tree.  The bytes are
dropped, and the message encoded in full, whenever they could be wrong:
a message built any other way (``fast_message``, ``replace``, ``reply``)
never has them; a v1 target takes the JSON body; a message the fixed
lane accepts takes the fixed lane; and a field ``struct`` rejects drops
the copy, so the full encode raises the usual error.  Fixed-layout
frames carry nothing: their encode is already one ``pack``, and a copy
per frame costs what the shorter encode would save.

**One codec per link kind.**  Nothing is negotiated: a connection's
codec is fixed when it is made (:attr:`FrameConnection.version`).
Every data-plane connection — node to node and client to node — sends
and accepts binary v2, fixed lane on; the scale-out control link sends
and accepts JSON v1, whose generic body carries its free-form dict
payloads.  A frame of the other codec is a :class:`FrameError` naming
its version, exactly as an unknown version is.  :func:`decode_message`
takes either codec.

Decoding is hardened: bad magic, unknown wire version, unknown flags,
oversized or truncated frames, malformed bodies, unknown message kinds
or payload tags, and wrongly-typed fields each raise a precise error
rather than crashing a server task.  :class:`FrameError` covers the
framing layer (the connection is unusable afterwards —
resynchronisation is not attempted); :class:`WireDecodeError` covers a
syntactically valid frame with a bad body (the connection may
continue).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import math
import struct
from time import perf_counter
from typing import Any, Callable

from ..net.message import WIRE_BODY, Message, MessageKind, fast_message

__all__ = [
    "WIRE_VERSION",
    "WIRE_VERSION_BINARY",
    "MAX_FRAME",
    "FRAME_GENERIC",
    "FRAME_GET",
    "FRAME_ACK",
    "FRAME_GET_REPLY",
    "FRAME_OVERLOAD",
    "WireError",
    "FrameError",
    "WireDecodeError",
    "FrameEncoder",
    "FrameConnection",
    "WRITE_HIGH_WATER",
    "message_to_dict",
    "message_from_dict",
    "encode_message",
    "decode_message",
]

MAGIC = b"LL"
WIRE_VERSION = 1
"""The JSON codec — the scale-out control link's."""
WIRE_VERSION_BINARY = 2
"""The struct-packed binary codec — the data plane's."""
_VERSIONS = (WIRE_VERSION, WIRE_VERSION_BINARY)
HEADER = struct.Struct(">2sBBI")
MAX_FRAME = 1 << 20
"""Ceiling on body size (1 MiB): a decode-bomb guard."""

FRAME_GENERIC = 0
"""Flags value: the generic body for the frame's wire version."""
FRAME_GET = 1
"""Flags value: fixed-layout GET (payload None), v2 only."""
FRAME_ACK = 2
"""Flags value: fixed-layout ACK (payload None), v2 only."""
FRAME_GET_REPLY = 3
"""Flags value: fixed-layout GET_REPLY, v2 only."""
FRAME_OVERLOAD = 4
"""Flags value: fixed-layout OVERLOAD shed reply, v2 only."""

class WireError(Exception):
    """Base class for everything the wire layer can reject."""


class FrameError(WireError):
    """Framing-level violation: the byte stream itself is broken."""


class WireDecodeError(WireError):
    """A well-framed body that does not decode to a valid Message."""


# -- v1 payload codec (JSON) ---------------------------------------------

def _encode_payload(value: Any) -> Any:
    """JSON-safe transform: bytes → tagged base64, tuples → lists."""
    if isinstance(value, bytes):
        return {"__b64__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (list, tuple)):
        return [_encode_payload(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise WireDecodeError(
                    f"payload object keys must be strings, got {key!r}"
                )
            out[key] = _encode_payload(val)
        return out
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise WireDecodeError(f"payload of type {type(value).__name__} is not wire-safe")


def _decode_payload(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__b64__"}:
            tag = value["__b64__"]
            if not isinstance(tag, str):
                raise WireDecodeError("__b64__ tag must be a string")
            try:
                return base64.b64decode(tag.encode("ascii"), validate=True)
            except (binascii.Error, ValueError) as exc:
                raise WireDecodeError(f"bad base64 payload: {exc}") from None
        return {k: _decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_payload(v) for v in value]
    return value


# -- message <-> dict ----------------------------------------------------

_INT_FIELDS = ("src", "dst", "version", "hops", "origin", "request_id")


def message_to_dict(msg: Message) -> dict[str, Any]:
    """The JSON-object form of one message."""
    return {
        "kind": msg.kind.value,
        "src": msg.src,
        "dst": msg.dst,
        "file": msg.file,
        "payload": _encode_payload(msg.payload),
        "version": msg.version,
        "hops": msg.hops,
        "origin": msg.origin,
        "request_id": msg.request_id,
    }


def message_from_dict(data: Any) -> Message:
    """Validate and rebuild a message from its JSON-object form."""
    if not isinstance(data, dict):
        raise WireDecodeError(
            f"frame body must be a JSON object, got {type(data).__name__}"
        )
    try:
        kind = MessageKind(data["kind"])
    except KeyError:
        raise WireDecodeError("frame body missing 'kind'") from None
    except ValueError:
        raise WireDecodeError(f"unknown message kind {data['kind']!r}") from None
    fields: dict[str, Any] = {"kind": kind}
    for name in _INT_FIELDS:
        value = data.get(name, 0 if name not in ("origin",) else -1)
        if isinstance(value, bool) or not isinstance(value, int):
            raise WireDecodeError(f"field {name!r} must be an integer, got {value!r}")
        fields[name] = value
    file = data.get("file", "")
    if not isinstance(file, str):
        raise WireDecodeError(f"field 'file' must be a string, got {file!r}")
    fields["file"] = file
    fields["payload"] = _decode_payload(data.get("payload"))
    if "src" not in data or "dst" not in data:
        raise WireDecodeError("frame body missing 'src'/'dst'")
    return Message(**fields)


# -- v2 body codec (binary) ----------------------------------------------
#
# Generic body: kind code (u8), the six int fields as signed 64-bit, and
# the file-name length (u16), followed by the UTF-8 name bytes and the
# tagged payload tree.  Kind codes are the append-only definition order
# of MessageKind — new kinds must be appended to the enum, never
# reordered, or old binaries would misread each other's frames.

_KIND_BY_CODE: tuple[MessageKind, ...] = tuple(MessageKind)
_CODE_BY_KIND: dict[MessageKind, int] = {k: i for i, k in enumerate(_KIND_BY_CODE)}

_S_FIXED = struct.Struct(">B6qH")
_S_Q = struct.Struct(">q")
_S_D = struct.Struct(">d")
_S_U32 = struct.Struct(">I")

#: Patching a carried generic body: ``src`` and ``dst`` are adjacent, and
#: these are their and ``hops``' offsets from the start of the body.
_S_SRC_DST = struct.Struct(">2q")
_SRC_AT = 1
_HOPS_AT = _SRC_AT + 3 * 8

#: Fixed layouts: the six int fields + name length (GET/ACK), plus one
#: extra i64 (the serving node) for GET_REPLY, and two extra i64s
#: (shedding node + redirect hint) for OVERLOAD.  The ``_F_*`` twins
#: put the frame header in front, so one ``pack`` builds both.
_S_FL_COMMON = struct.Struct(">6qH")
_S_FL_REPLY = struct.Struct(">7qH")
_S_FL_OVERLOAD = struct.Struct(">8qH")
_F_COMMON = struct.Struct(">2sBBI6qH")
_F_REPLY = struct.Struct(">2sBBI7qH")
_F_OVERLOAD = struct.Struct(">2sBBI8qH")
_S_REPLY_VALUE = struct.Struct(">BI")

#: Enum members by module global: on Python 3.11 ``MessageKind.GET``
#: goes through the enum's class-attribute machinery, several times the
#: cost of a global load, and the fixed lane tests the kind per frame.
_GET, _ACK = MessageKind.GET, MessageKind.ACK
_GET_REPLY, _OVERLOAD = MessageKind.GET_REPLY, MessageKind.OVERLOAD
#: ``(kind, body layout)`` by fixed-layout flags value.
_FIXED_BY_FLAGS = (
    None, (_GET, _S_FL_COMMON), (_ACK, _S_FL_COMMON),
    (_GET_REPLY, _S_FL_REPLY), (_OVERLOAD, _S_FL_OVERLOAD),
)

_T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT = 0, 1, 2, 3, 4
_T_STR, _T_BYTES, _T_LIST, _T_DICT, _T_BIGINT = 5, 6, 7, 8, 9

#: GET_REPLY fixed-layout payload-value kinds.
_FLP_NONE, _FLP_STR, _FLP_BYTES = 0, 1, 2

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _enc_value(buf: bytearray, value: Any) -> None:
    """Append one tagged payload value to ``buf``.

    Accepts exactly the v1-encodable set so the codecs stay equivalent:
    None/bool/int/finite float/str/bytes, lists (tuples become lists),
    and dicts with string keys.
    """
    if value is None:
        buf.append(_T_NONE)
    elif value is True:
        buf.append(_T_TRUE)
    elif value is False:
        buf.append(_T_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            buf.append(_T_INT)
            buf += _S_Q.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            buf.append(_T_BIGINT)
            buf += _S_U32.pack(len(raw))
            buf += raw
    elif isinstance(value, float):
        if not math.isfinite(value):
            # json.dumps(allow_nan=False) rejects these too: keep the
            # encodable sets identical across codecs.
            raise WireDecodeError("non-finite float is not wire-safe")
        buf.append(_T_FLOAT)
        buf += _S_D.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        buf += _S_U32.pack(len(raw))
        buf += raw
    elif isinstance(value, bytes):
        buf.append(_T_BYTES)
        buf += _S_U32.pack(len(value))
        buf += value
    elif isinstance(value, (list, tuple)):
        buf.append(_T_LIST)
        buf += _S_U32.pack(len(value))
        for item in value:
            _enc_value(buf, item)
    elif isinstance(value, dict):
        buf.append(_T_DICT)
        buf += _S_U32.pack(len(value))
        for key, val in value.items():
            if not isinstance(key, str):
                raise WireDecodeError(
                    f"payload object keys must be strings, got {key!r}"
                )
            raw = key.encode("utf-8")
            buf += _S_U32.pack(len(raw))
            buf += raw
            _enc_value(buf, val)
    else:
        raise WireDecodeError(
            f"payload of type {type(value).__name__} is not wire-safe"
        )


def _need(body, pos: int, count: int) -> None:
    if pos + count > len(body):
        raise WireDecodeError(
            f"truncated binary payload: need {count} bytes at offset {pos}, "
            f"have {len(body) - pos}"
        )


def _dec_str(body, pos: int) -> tuple[str, int]:
    _need(body, pos, 4)
    (length,) = _S_U32.unpack_from(body, pos)
    pos += 4
    _need(body, pos, length)
    try:
        # bytes() copies the slice out of the (possibly reused) buffer,
        # so decoded strings never alias it.
        text = bytes(body[pos:pos + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad UTF-8 in binary payload: {exc}") from None
    return text, pos + length


def _dec_value(body, pos: int) -> tuple[Any, int]:
    _need(body, pos, 1)
    tag = body[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        _need(body, pos, 8)
        return _S_Q.unpack_from(body, pos)[0], pos + 8
    if tag == _T_FLOAT:
        _need(body, pos, 8)
        return _S_D.unpack_from(body, pos)[0], pos + 8
    if tag == _T_STR:
        return _dec_str(body, pos)
    if tag == _T_BYTES:
        _need(body, pos, 4)
        (length,) = _S_U32.unpack_from(body, pos)
        pos += 4
        _need(body, pos, length)
        return bytes(body[pos:pos + length]), pos + length
    if tag == _T_LIST:
        _need(body, pos, 4)
        (count,) = _S_U32.unpack_from(body, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _dec_value(body, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        _need(body, pos, 4)
        (count,) = _S_U32.unpack_from(body, pos)
        pos += 4
        out: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _dec_str(body, pos)
            out[key], pos = _dec_value(body, pos)
        return out, pos
    if tag == _T_BIGINT:
        _need(body, pos, 4)
        (length,) = _S_U32.unpack_from(body, pos)
        pos += 4
        _need(body, pos, length)
        return (
            int.from_bytes(bytes(body[pos:pos + length]), "big", signed=True),
            pos + length,
        )
    raise WireDecodeError(f"unknown binary payload tag {tag}")


def _encode_body_v2(buf: bytearray, msg: Message) -> None:
    """Append the generic v2 body of ``msg`` to ``buf``."""
    code = _CODE_BY_KIND[msg.kind]
    try:
        name = msg.file.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None
    if len(name) > 0xFFFF:
        raise WireDecodeError(f"file name of {len(name)} bytes exceeds 65535")
    try:
        buf += _S_FIXED.pack(
            code, msg.src, msg.dst, msg.version, msg.hops, msg.origin,
            msg.request_id, len(name),
        )
    except struct.error as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None
    buf += name
    try:
        _enc_value(buf, msg.payload)
    except UnicodeEncodeError as exc:
        raise WireDecodeError(f"message is not wire-encodable: {exc}") from None


def _fixed_frame(msg: Message) -> bytes | None:
    """The whole fixed-layout frame for ``msg``, header included.

    ``None`` when the message fits no fixed layout — the caller falls
    back to the generic body on the same connection.  One ``pack``
    covers the header and every fixed field; a field ``struct`` rejects
    (an int outside i64) is a fallback too.
    """
    kind = msg.kind
    tail = b""
    if kind is _GET or kind is _ACK:
        # The six int fields plus the file name, nothing else — except
        # a GET's optional u8 count + remaining-subtree ids trailer.
        payload = msg.payload
        if payload is not None:
            if (kind is _ACK or type(payload) is not list
                    or not 0 < len(payload) <= 255):
                return None
            try:
                # bytes() validates every element at C speed (bools
                # coerce to their int value, which compares equal).
                tail = bytes((len(payload), *payload))
            except (TypeError, ValueError):
                return None
    elif kind is _GET_REPLY or kind is _OVERLOAD:
        payload = msg.payload
        if type(payload) is not dict or len(payload) != 2:
            return None
        try:
            if kind is _GET_REPLY:
                first, data = payload["server"], payload["payload"]
                second = 0
            else:
                first, second = payload["shed_by"], payload["redirect"]
        except KeyError:
            return None
        # type-is checks: exact int excludes bool, and an int subclass
        # falling back to the generic codec is always still correct.
        if type(first) is not int or type(second) is not int:
            return None
        if kind is _GET_REPLY:
            if data is None:
                value_kind, raw = _FLP_NONE, b""
            elif type(data) is str:
                try:
                    value_kind, raw = _FLP_STR, data.encode()
                except UnicodeEncodeError:
                    return None
            elif type(data) is bytes:
                value_kind, raw = _FLP_BYTES, data
            else:
                return None
            tail = _S_REPLY_VALUE.pack(value_kind, len(raw)) + raw
    else:
        return None
    try:
        name = msg.file.encode()
    except UnicodeEncodeError:
        return None
    size = len(name)
    if size > 0xFFFF:
        return None
    try:
        if kind is _GET_REPLY:
            head = _F_REPLY.pack(
                MAGIC, WIRE_VERSION_BINARY, FRAME_GET_REPLY,
                _S_FL_REPLY.size + size + len(tail), msg.src, msg.dst,
                msg.version, msg.hops, msg.origin, msg.request_id, first, size,
            )
        elif kind is _OVERLOAD:
            head = _F_OVERLOAD.pack(
                MAGIC, WIRE_VERSION_BINARY, FRAME_OVERLOAD,
                _S_FL_OVERLOAD.size + size, msg.src, msg.dst, msg.version,
                msg.hops, msg.origin, msg.request_id, first, second, size,
            )
        else:
            head = _F_COMMON.pack(
                MAGIC, WIRE_VERSION_BINARY,
                FRAME_GET if kind is _GET else FRAME_ACK,
                _S_FL_COMMON.size + size + len(tail), msg.src, msg.dst,
                msg.version, msg.hops, msg.origin, msg.request_id, size,
            )
    except struct.error:
        return None
    return head + name + tail


def _decode_body_v2(body) -> Message:
    if len(body) < _S_FIXED.size:
        raise WireDecodeError(
            f"binary body of {len(body)} bytes is shorter than the fixed part"
        )
    code, src, dst, version, hops, origin, request_id, name_len = (
        _S_FIXED.unpack_from(body, 0)
    )
    if code >= len(_KIND_BY_CODE):
        raise WireDecodeError(f"unknown message kind code {code}")
    _need(body, _S_FIXED.size, name_len)
    pos = _S_FIXED.size + name_len
    try:
        file = str(body[_S_FIXED.size:pos], "utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad UTF-8 file name: {exc}") from None
    payload, pos = _dec_value(body, pos)
    if pos != len(body):
        raise WireDecodeError(
            f"{len(body) - pos} trailing bytes after binary payload"
        )
    msg = fast_message(
        _KIND_BY_CODE[code], src, dst, file, payload,
        version, hops, origin, request_id,
    )
    msg.__dict__[WIRE_BODY] = bytes(body)
    return msg


def _decode_body_fixed(flags: int, body) -> Message:
    """Decode one fixed-layout v2 body (flags 1..4) in a single pass."""
    size = len(body)
    kind, layout = _FIXED_BY_FLAGS[flags]
    start = layout.size
    if size < start:
        raise WireDecodeError(
            f"fixed {kind.name} body of {size} bytes is too short"
        )
    fields = layout.unpack_from(body, 0)
    pos = start + fields[-1]
    if pos > size:
        raise WireDecodeError(
            f"truncated fixed {kind.name} file name: need {fields[-1]} "
            f"bytes, have {size - start}"
        )
    try:
        file = str(body[start:pos], "utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad UTF-8 file name: {exc}") from None
    payload: Any = None
    if flags == FRAME_GET_REPLY:
        if pos + 5 > size:
            raise WireDecodeError("truncated fixed GET_REPLY payload header")
        value_kind, length = _S_REPLY_VALUE.unpack_from(body, pos)
        pos += 5
        end = pos + length
        if end > size:
            raise WireDecodeError(
                f"truncated fixed GET_REPLY payload: need {length} bytes, "
                f"have {size - pos}"
            )
        if value_kind == _FLP_STR:
            try:
                data: Any = str(body[pos:end], "utf-8")
            except UnicodeDecodeError as exc:
                raise WireDecodeError(
                    f"bad UTF-8 in fixed GET_REPLY payload: {exc}"
                ) from None
        elif value_kind == _FLP_BYTES:
            data = bytes(body[pos:end])
        elif value_kind != _FLP_NONE:
            raise WireDecodeError(
                f"unknown fixed GET_REPLY payload kind {value_kind}"
            )
        elif length:
            raise WireDecodeError("fixed GET_REPLY None payload carries bytes")
        else:
            data = None
        payload = {"payload": data, "server": fields[6]}
        pos = end
    elif flags == FRAME_OVERLOAD:
        payload = {"shed_by": fields[6], "redirect": fields[7]}
    elif pos != size and flags == FRAME_GET:
        count = body[pos]
        pos += 1
        if count == 0 or pos + count != size:
            raise WireDecodeError(
                f"bad fixed GET subtree trailer ({count} ids, "
                f"{size - pos} bytes)"
            )
        payload = list(body[pos:size])
        pos = size
    if pos != size:
        raise WireDecodeError(
            f"{size - pos} trailing bytes after fixed {kind.name} body"
        )
    src, dst, version, hops, origin, request_id = fields[:6]
    return fast_message(
        kind, src, dst, file, payload, version, hops, origin, request_id,
    )


# -- frame encoder (write side) ------------------------------------------

class FrameEncoder:
    """Frame builder: each frame is built once, as the ``bytes`` written.

    :meth:`add` builds a complete frame — one ``pack`` over header and
    fields on the fixed lane, header + body otherwise — and queues it.
    :meth:`flush_to` hands the transport a lone frame as the very object
    :meth:`add` built, and joins several (only a paused connection
    queues more than one) in order.  Frames are immutable, so the
    transport never holds a view of a buffer that gets reused, and a
    rejected message raises before anything is queued.

    ``fixed=False`` pins the encoder to generic bodies (the pre-fast-lane
    wire format).
    """

    __slots__ = ("fixed", "_frames")

    def __init__(self, fixed: bool = True) -> None:
        self.fixed = fixed
        self._frames: list[bytes] = []

    def add(self, msg: Message, version: int = WIRE_VERSION) -> int:
        """Build and queue one frame; returns its size in bytes."""
        frame = None
        if version == WIRE_VERSION_BINARY:
            if self.fixed:
                frame = _fixed_frame(msg)
            if frame is None:
                # A forwarded message still carrying the generic body it
                # was decoded from differs from it in src, dst and hops
                # only: copy and patch instead of encoding again.
                body = msg.__dict__.get(WIRE_BODY)
                if body is not None:
                    body = bytearray(body)
                    try:
                        _S_SRC_DST.pack_into(body, _SRC_AT, msg.src, msg.dst)
                        _S_Q.pack_into(body, _HOPS_AT, msg.hops)
                    except struct.error:
                        body = None  # the full encode names the field
                if body is None:
                    body = bytearray()
                    _encode_body_v2(body, msg)
        elif version == WIRE_VERSION:
            try:
                body = json.dumps(
                    message_to_dict(msg), separators=(",", ":"),
                    allow_nan=False,
                ).encode("utf-8")
            except (TypeError, ValueError) as exc:
                raise WireDecodeError(
                    f"message is not wire-encodable: {exc}"
                ) from None
        else:
            raise FrameError(f"unsupported wire version {version}")
        if frame is None:
            frame = HEADER.pack(MAGIC, version, FRAME_GENERIC, len(body)) + body
        if len(frame) - HEADER.size > MAX_FRAME:
            raise FrameError(
                f"frame body of {len(frame) - HEADER.size} bytes exceeds {MAX_FRAME}"
            )
        self._frames.append(frame)
        return len(frame)

    @property
    def pending(self) -> int:
        """Frames added since the last reset/flush."""
        return len(self._frames)

    @property
    def pending_bytes(self) -> int:
        """Bytes queued since the last reset/flush."""
        return sum(map(len, self._frames))

    def take_bytes(self) -> bytes:
        """All pending frames as one ``bytes`` (a lone frame as built)."""
        frames = self._frames
        data = frames[0] if len(frames) == 1 else b"".join(frames)
        frames.clear()
        return data

    def reset(self) -> None:
        self._frames.clear()

    def flush_to(self, writer: asyncio.WriteTransport) -> int:
        """Write all pending frames in one call; returns the byte count."""
        if not self._frames:
            return 0
        data = self.take_bytes()
        writer.write(data)
        return len(data)


# -- frame decoder helpers -----------------------------------------------

def _check_header(
    header, offset: int, versions: tuple[int, ...] = _VERSIONS
) -> tuple[int, int, int]:
    """Validate an 8-byte header; return ``(version, flags, length)``."""
    magic, version, flags, length = HEADER.unpack_from(header, offset)
    if magic != MAGIC:
        raise FrameError(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if version not in versions:
        raise FrameError(f"unsupported wire version {version}")
    if not FRAME_GENERIC <= flags <= FRAME_OVERLOAD:
        raise FrameError(f"unknown frame flags {flags}")
    if length > MAX_FRAME:
        raise FrameError(f"frame body of {length} bytes exceeds {MAX_FRAME}")
    return version, flags, length


def _decode_body(version: int, flags: int, body) -> Message:
    if version == WIRE_VERSION_BINARY:
        if flags != FRAME_GENERIC:
            return _decode_body_fixed(flags, body)
        return _decode_body_v2(body)
    if flags != FRAME_GENERIC:
        raise WireDecodeError(
            f"v1 frames carry no fixed layouts (flags {flags})"
        )
    try:
        data = json.loads(bytes(body).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireDecodeError(f"malformed frame body: {exc}") from None
    return message_from_dict(data)


def encode_message(msg: Message, version: int = WIRE_VERSION,
                   fixed: bool = True) -> bytes:
    """One complete frame (header + body) for ``msg`` at ``version``.

    The convenience byte-string form of :class:`FrameEncoder` — tests
    and one-shot callers; hot paths hold an encoder and flush it whole.
    """
    encoder = FrameEncoder(fixed=fixed)
    encoder.add(msg, version)
    return encoder.take_bytes()


def decode_message(frame: bytes) -> Message:
    """Decode one complete frame, of either codec, from a byte string."""
    if len(frame) < HEADER.size:
        raise FrameError(f"truncated header: {len(frame)} bytes")
    version, flags, length = _check_header(frame, 0)
    body = memoryview(frame)[HEADER.size:]
    if len(body) != length:
        raise FrameError(f"body length {len(body)} does not match header {length}")
    return _decode_body(version, flags, body)


# -- connection ----------------------------------------------------------

WRITE_HIGH_WATER = 1 << 16
"""The one write watermark (64 KiB): a transport buffered beyond it
pauses its :class:`FrameConnection` until it drains below it."""


class FrameConnection(asyncio.Protocol):
    """One framed connection: frames decoded where the bytes land.

    **Read side.**  ``data_received`` slices every complete frame out of
    the chunk the transport hands it — straight off the chunk when no
    partial frame is buffered, so only a trailing fragment is ever
    copied — checking each header inline and handing fixed-layout
    bodies straight to their one-pass decoder, and passes the batch to
    ``on_frames(conn, frames, errors)``: ``frames`` is the list of
    decoded messages, ``errors`` counts well-framed bodies that failed
    to decode (skipped; framing stays aligned).  Decoded messages never
    alias the buffer.  Broken framing — a frame of the other codec
    included — or EOF inside a frame, sets :attr:`error` to the
    :class:`FrameError` and closes the connection.  With no
    ``on_frames`` (a send-only peer stream) inbound bytes are dropped.

    **Write side.**  Write-through: :meth:`add` builds the frame in the
    connection's :class:`FrameEncoder` and :meth:`flush`, which the
    caller makes next, hands that very ``bytes`` to the transport — one
    write per frame, in the call that made it.  While the transport is
    over its high-water mark (:attr:`paused`) frames stay in the
    encoder, :meth:`drained` suspends, and ``resume_writing`` writes
    them all, joined in order, at once.

    ``on_lost(conn)`` fires once, when the connection stops being
    usable: peer EOF, a framing or socket error, or :meth:`close`.

    ``version`` is the connection's one codec, both ways: binary v2
    (the data plane, the default) or JSON v1 (the control link).
    """

    def __init__(
        self,
        on_frames: Callable[["FrameConnection", list, int], None] | None = None,
        on_lost: Callable[["FrameConnection"], None] | None = None,
        *,
        version: int = WIRE_VERSION_BINARY,
    ) -> None:
        self.encoder = FrameEncoder()
        self.version = version
        self.transport: asyncio.Transport | None = None
        self.closed = False
        self.paused = False
        self.error: FrameError | None = None
        self.decode_seconds = 0.0
        """Wall time spent slicing + decoding since the owner last
        zeroed it (the bench's ``decode`` stage)."""
        self._on_frames = on_frames
        self._on_lost = on_lost
        self._buf = bytearray()
        self._drain_waiters: list[asyncio.Future] = []
        self._close_waiter: asyncio.Future | None = None

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)

    def data_received(self, data: bytes) -> None:
        on_frames = self._on_frames
        if on_frames is None or self.closed:
            return
        t0 = perf_counter()
        buf = self._buf
        if buf:
            buf += data
            data = buf
        header_size = HEADER.size
        unpack_header = HEADER.unpack_from
        expect = self.version
        size = len(data)
        frames: list[Message] = []
        errors = 0
        pos = 0
        failure = None
        mv = memoryview(data)
        try:
            while size - pos >= header_size:
                magic, version, flags, length = unpack_header(mv, pos)
                if (magic != MAGIC or version != expect
                        or flags > FRAME_OVERLOAD or length > MAX_FRAME):
                    _check_header(mv, pos, (expect,))  # raises
                start = pos + header_size
                end = start + length
                if end > size:
                    break
                # The body slice goes straight into the call: a view bound
                # to a local would still be exported at ``mv.release()``.
                try:
                    if flags and version == WIRE_VERSION_BINARY:
                        frames.append(_decode_body_fixed(flags, mv[start:end]))
                    else:
                        frames.append(_decode_body(version, flags, mv[start:end]))
                except WireDecodeError:
                    errors += 1
                pos = end
            if data is not buf and pos < size:
                buf += mv[pos:]
        except FrameError as exc:
            failure = exc
        finally:
            mv.release()
        if data is buf and pos:
            del buf[:pos]
        self.decode_seconds += perf_counter() - t0
        if frames or errors:
            on_frames(self, frames, errors)
        if failure is not None:
            self._fail(failure)

    def eof_received(self) -> None:
        if self._buf:
            self._fail(
                FrameError(f"connection closed mid-frame ({len(self._buf)} bytes)")
            )
        else:
            self._lost()  # the transport closes itself on a falsy return

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()
        self._wake_drainers()

    def connection_lost(self, exc: Exception | None) -> None:
        self._lost()
        self.transport = None  # the socket is closed
        if self._close_waiter is not None and not self._close_waiter.done():
            self._close_waiter.set_result(None)

    # -- write side ---------------------------------------------------------

    def add(self, msg: Message) -> None:
        """Build one frame, in :attr:`version`, into the encoder;
        :meth:`flush` writes it.

        Raises :class:`WireError` on an unencodable message (nothing is
        queued, the connection stays usable) and
        ``ConnectionError`` on a closed connection.  Encoding and
        writing are split so the bench's ``encode`` stage never absorbs
        a write syscall.
        """
        if self.closed:
            raise ConnectionError("connection is closed")
        self.encoder.add(msg, self.version)

    def flush(self) -> None:
        """Write every pending frame now, unless paused or closed."""
        if not self.closed and not self.paused:
            self.encoder.flush_to(self.transport)

    async def drained(self) -> None:
        """Return once the transport is below its high-water mark;
        ``ConnectionResetError`` when the connection is (or gets) lost."""
        if self.paused and not self.closed:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter
        if self.closed:
            raise ConnectionResetError("connection lost")

    def _wake_drainers(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- lifecycle ----------------------------------------------------------

    def _fail(self, error: FrameError) -> None:
        self.error = error
        self._lost()
        self.transport.close()

    def _lost(self) -> None:
        """No more I/O: wake writers, tell the owner — exactly once.

        Pending frames stay countable in :attr:`encoder` (a retiring
        sender reverses its in-flight ledger by them)."""
        if self.closed:
            return
        self.closed = True
        self._wake_drainers()
        if self._on_lost is not None:
            self._on_lost(self)

    def close(self) -> asyncio.Future:
        """Drop pending frames and close; the returned future resolves
        once the socket is closed (the peer sees EOF no later than its
        next loop iteration), so ``await conn.close()`` is a full close
        and a caller that cannot wait may ignore it."""
        if self._close_waiter is None:
            self._close_waiter = asyncio.get_running_loop().create_future()
            self._lost()
            self.encoder.reset()
            if self.transport is None:
                self._close_waiter.set_result(None)
            else:
                self.transport.close()
        return self._close_waiter

