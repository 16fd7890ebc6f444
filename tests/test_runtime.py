"""Tests for the live asyncio runtime (``repro.runtime``).

Fast, timer-free pieces (the wire codec, its property tests, and one
small sequential conformance smoke) run in tier-1.  Tests that boot
full clusters with real timers and bursts carry the ``runtime`` marker
and run via ``pytest -m runtime`` (CI's dedicated smoke job).
"""

import asyncio
import gc
import socket
import struct
import warnings
import weakref
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.subtree import subtree_children_list
from repro.net.message import WIRE_BODY, Message, MessageKind, fast_message
from repro.node.membership import StatusWord
from repro.runtime import (
    ClientError,
    LiveCluster,
    LoadGenerator,
    RuntimeClient,
    RuntimeConfig,
    WorkloadShape,
    WorkloadSpec,
    diff_states,
    percentile,
    replay_oplog,
    run_conformance,
)
from repro.runtime import LatencyHistogram
from repro.runtime import wire as wire_module
from repro.runtime.addressing import dial_node
from repro.runtime.client import LoadReport
from repro.runtime.host import NodeHost
from repro.runtime.node import CLIENT, NodeServer
from repro.runtime.scaleout.control import ControlLink
from repro.runtime.wire import (
    FRAME_ACK,
    FRAME_GENERIC,
    FRAME_GET,
    FRAME_GET_REPLY,
    FRAME_OVERLOAD,
    HEADER,
    MAGIC,
    MAX_FRAME,
    WIRE_VERSION,
    FrameConnection,
    FrameEncoder,
    FrameError,
    WireDecodeError,
    WireError,
    decode_message,
    encode_message,
)

# ---------------------------------------------------------------------------
# wire codec: round trips
# ---------------------------------------------------------------------------

wire_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
    st.binary(max_size=40),
)
wire_payloads = st.recursive(
    wire_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=4),
    ),
    max_leaves=12,
)
messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    src=st.integers(min_value=-2, max_value=2**31 - 1),
    dst=st.integers(min_value=-2, max_value=2**31 - 1),
    file=st.text(max_size=60),
    payload=wire_payloads,
    version=st.integers(min_value=0, max_value=2**31 - 1),
    hops=st.integers(min_value=0, max_value=1000),
    origin=st.integers(min_value=-1, max_value=2**31 - 1),
    request_id=st.integers(min_value=0, max_value=2**31 - 1),
)


def _tuples_to_lists(value):
    if isinstance(value, tuple):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, list):
        return [_tuples_to_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _tuples_to_lists(v) for k, v in value.items()}
    return value


class TestWireRoundTrip:
    @settings(max_examples=120)
    @given(messages)
    def test_encode_decode_is_identity(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_tuple_payload_round_trips_as_list(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=(1, (2, 3)))
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == [1, [2, 3]]

    def test_bytes_payload_survives(self):
        # No payload shape is reserved: next to real bytes, a dict that
        # looks like a bytes tag stays a dict.
        payload = {"data": bytes(range(256)), "tagged": {"__b64__": "aGk="}}
        msg = Message(kind=MessageKind.INSERT, src=-1, dst=3, file="x",
                      payload=payload)
        assert decode_message(encode_message(msg)).payload == payload


# ---------------------------------------------------------------------------
# the binary codec: generic body
# ---------------------------------------------------------------------------

class TestBinaryCodec:
    @settings(max_examples=120)
    @given(messages)
    def test_binary_encode_decode_is_identity(self, msg):
        assert decode_message(encode_message(msg, fixed=False)) == msg

    @pytest.mark.parametrize("kind", list(MessageKind))
    def test_every_kind_round_trips_through_both_codecs(self, kind):
        """Both body codecs of the one wire version: the fixed lane
        where it applies, and the generic body."""
        msg = Message(
            kind=kind, src=3, dst=12, file="every-kind.dat",
            payload={"n": [1, 2.5, None, b"\x00\xff"], "s": "text"},
            version=4, hops=2, origin=3, request_id=991,
        )
        for fixed in (True, False):
            assert decode_message(encode_message(msg, fixed=fixed)) == msg

    def test_binary_tuple_payload_round_trips_as_list(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=(1, (2, 3)))
        decoded = decode_message(encode_message(msg))
        assert decoded.payload == [1, [2, 3]]

    def test_binary_is_smaller_for_runtime_shaped_messages(self):
        """The fixed lane is strictly smaller than the generic body for
        the reply shape every GET ends in."""
        msg = Message(
            kind=MessageKind.GET_REPLY, src=3, dst=9, file="bench-00.dat",
            payload={"payload": "x" * 64, "server": 3},
            version=4, hops=3, origin=9, request_id=12345,
        )
        small = encode_message(msg)
        big = encode_message(msg, fixed=False)
        assert len(small) < len(big)

    def test_huge_int_payload_round_trips(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1,
                      payload={"big": 1 << 200, "neg": -(1 << 200)})
        assert decode_message(encode_message(msg)) == msg


# ---------------------------------------------------------------------------
# golden frames: the data plane's bytes, pinned
# ---------------------------------------------------------------------------

_GOLDEN_FIELDS = dict(src=3, dst=12, file="golden.dat", version=4, hops=2,
                      origin=3, request_id=991)


class TestGoldenFrames:
    """Data-plane frames, byte for byte: every fixed layout (GET with
    and without its subtree trailer, ACK, GET_REPLY with a str and a
    bytes value, OVERLOAD) and one generic UPDATE.  A change here is a
    change of the wire format."""

    @pytest.mark.parametrize("msg, frame", [
        pytest.param(
            Message(kind=MessageKind.GET, **_GOLDEN_FIELDS),
            "4c4c02010000003c0000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000a676f6c64656e"
            "2e646174",
            id="fixed-get",
        ),
        pytest.param(
            Message(kind=MessageKind.GET, payload=[1, 5, 7], **_GOLDEN_FIELDS),
            "4c4c0201000000400000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000a676f6c64656e"
            "2e64617403010507",
            id="fixed-get-subtrees",
        ),
        pytest.param(
            Message(kind=MessageKind.ACK, **_GOLDEN_FIELDS),
            "4c4c02020000003c0000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000a676f6c64656e"
            "2e646174",
            id="fixed-ack",
        ),
        pytest.param(
            Message(kind=MessageKind.GET_REPLY, **_GOLDEN_FIELDS,
                    payload={"payload": "value", "server": 12}),
            "4c4c02030000004e0000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000000000000000c"
            "000a676f6c64656e2e646174010000000576616c7565",
            id="fixed-reply-str",
        ),
        pytest.param(
            Message(kind=MessageKind.GET_REPLY, **_GOLDEN_FIELDS,
                    payload={"payload": b"\x00\xff", "server": 12}),
            "4c4c02030000004b0000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000000000000000c"
            "000a676f6c64656e2e646174020000000200ff",
            id="fixed-reply-bytes",
        ),
        pytest.param(
            Message(kind=MessageKind.OVERLOAD, **_GOLDEN_FIELDS,
                    payload={"shed_by": 12, "redirect": 5}),
            "4c4c02040000004c0000000000000003000000000000000c0000000000000004"
            "0000000000000002000000000000000300000000000003df000000000000000c"
            "0000000000000005000a676f6c64656e2e646174",
            id="fixed-overload",
        ),
        pytest.param(
            Message(kind=MessageKind.UPDATE, **_GOLDEN_FIELDS, payload={
            "text": "x", "n": [1, 2.5, None, True, b"\x01"], "big": -(1 << 70),
        }),
            "4c4c020000000089050000000000000003000000000000000c00000000000000"
            "040000000000000002000000000000000300000000000003df000a676f6c6465"
            "6e2e64617408000000030000000474657874050000000178000000016e070000"
            "0005030000000000000001044004000000000000000106000000010100000003"
            "6269670900000009c00000000000000000",
            id="generic-update",
        ),
    ])
    def test_encode_is_byte_identical_and_decodes_back(self, msg, frame):
        frame = bytes.fromhex(frame)
        assert encode_message(msg) == frame
        assert decode_message(frame) == msg


class TestBinaryHardening:
    def _v2_frame(self, **kwargs):
        # fixed=False: these tests corrupt specific *generic*-codec body
        # offsets, so keep the frame off the fixed-layout fast lane.
        return encode_message(
            Message(kind=MessageKind.GET, src=0, dst=1, file="abc", **kwargs), fixed=False,
        )

    def _reframe(self, body: bytes) -> bytes:
        return HEADER.pack(MAGIC, WIRE_VERSION, 0, len(body)) + body

    def test_data_connection_rejects_a_v1_frame(self):
        """An unknown version byte — 1 included, the retired JSON
        codec's — is broken framing, named by its version, and closes
        the connection after the frames before it are delivered."""
        good = Message(kind=MessageKind.GET, src=0, dst=1, file="abc")
        frame = encode_message(good)
        v1 = frame[:2] + bytes([1]) + frame[3:]
        with pytest.raises(FrameError, match="unsupported wire version 1"):
            decode_message(v1)
        conn, out, _errors = _feed([frame + v1])
        assert out == [good] and isinstance(conn.error, FrameError)
        assert str(conn.error) == "unsupported wire version 1"
        assert conn.closed and conn.transport.closed

    def test_unknown_kind_code_is_a_decode_error(self):
        body = bytearray(self._v2_frame()[HEADER.size:])
        body[0] = 200
        with pytest.raises(WireDecodeError, match="kind code"):
            decode_message(self._reframe(bytes(body)))

    def test_truncated_binary_payload_is_a_decode_error(self):
        body = self._v2_frame(payload={"key": "value"})[HEADER.size:-3]
        with pytest.raises(WireDecodeError, match="truncated"):
            decode_message(self._reframe(body))

    def test_unknown_payload_tag_is_a_decode_error(self):
        body = bytearray(self._v2_frame(payload=None)[HEADER.size:])
        body[-1] = 250  # the payload's single tag byte
        with pytest.raises(WireDecodeError, match="unknown binary payload tag"):
            decode_message(self._reframe(bytes(body)))

    def test_bad_utf8_file_name_is_a_decode_error(self):
        body = bytearray(self._v2_frame()[HEADER.size:])
        body[-4:-1] = b"\xff\xfe\xfd"  # the 3 name bytes precede the tag
        with pytest.raises(WireDecodeError, match="UTF-8"):
            decode_message(self._reframe(bytes(body)))

    def test_trailing_bytes_are_a_decode_error(self):
        body = self._v2_frame(payload=None)[HEADER.size:] + b"\x00"
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_message(self._reframe(body))

    @settings(max_examples=80)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_binary_bodies_never_crash_the_decoder(self, blob):
        try:
            decode_message(self._reframe(blob))
        except (FrameError, WireDecodeError):
            pass  # precise rejection is the contract; crashing is not


# ---------------------------------------------------------------------------
# fixed-layout fast lane: equivalence with generic v2, hardening
# ---------------------------------------------------------------------------

_i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

fixed_gets_and_acks = st.builds(
    Message,
    kind=st.sampled_from([MessageKind.GET, MessageKind.ACK]),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.none(),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_routed_gets = st.builds(
    Message,
    kind=st.just(MessageKind.GET),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.lists(
        st.integers(min_value=0, max_value=255), min_size=1, max_size=16
    ),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_replies = st.builds(
    Message,
    kind=st.just(MessageKind.GET_REPLY),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.fixed_dictionaries({
        "payload": st.one_of(
            st.none(), st.text(max_size=40), st.binary(max_size=40)
        ),
        "server": _i64,
    }),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_overloads = st.builds(
    Message,
    kind=st.just(MessageKind.OVERLOAD),
    src=_i64, dst=_i64, file=st.text(max_size=40),
    payload=st.fixed_dictionaries({
        "shed_by": _i64,
        "redirect": _i64,
    }),
    version=_i64, hops=_i64, origin=_i64, request_id=_i64,
)
fixed_eligible = st.one_of(
    fixed_gets_and_acks, fixed_routed_gets, fixed_replies, fixed_overloads
)

_FLAG_FOR_KIND = {
    MessageKind.GET: FRAME_GET,
    MessageKind.ACK: FRAME_ACK,
    MessageKind.GET_REPLY: FRAME_GET_REPLY,
    MessageKind.OVERLOAD: FRAME_OVERLOAD,
}


class TestFixedLayouts:
    """The struct-packed GET/ACK/GET_REPLY lane inside wire v2."""

    def _fixed_reframe(self, flags: int, body: bytes) -> bytes:
        return HEADER.pack(MAGIC, WIRE_VERSION, flags, len(body)) + body

    @settings(max_examples=120)
    @given(fixed_eligible)
    def test_fixed_decodes_identical_to_generic_v2(self, msg):
        generic = encode_message(msg, fixed=False)
        fixed = encode_message(msg)
        assert fixed[3] == _FLAG_FOR_KIND[msg.kind]  # the lane is taken
        assert generic[3] == FRAME_GENERIC
        assert decode_message(fixed) == decode_message(generic) == msg

    @settings(max_examples=80)
    @given(fixed_eligible)
    def test_fixed_is_never_larger_than_generic(self, msg):
        fixed = encode_message(msg)
        generic = encode_message(msg, fixed=False)
        assert len(fixed) <= len(generic)

    @pytest.mark.parametrize("msg", [
        Message(kind=MessageKind.GET, src=0, dst=1, payload={"x": 1}),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[]),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[256]),
        Message(kind=MessageKind.GET, src=0, dst=1, payload=[1, "a"]),
        Message(kind=MessageKind.ACK, src=0, dst=1, payload=[1]),
        Message(kind=MessageKind.ACK, src=0, dst=1, payload={}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None, "server": True}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": None, "server": 1 << 70}),
        Message(kind=MessageKind.GET_REPLY, src=0, dst=1,
                payload={"payload": 7, "server": 1}),
        Message(kind=MessageKind.INSERT, src=0, dst=1, payload=None),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1, payload=None),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1, payload={}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": 3, "extra": 0}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": True, "redirect": 3}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": "n3"}),
        Message(kind=MessageKind.OVERLOAD, src=0, dst=1,
                payload={"shed_by": 2, "redirect": 1 << 70}),
    ])
    def test_ineligible_messages_fall_back_to_generic(self, msg):
        frame = encode_message(msg)
        assert frame[3] == FRAME_GENERIC
        assert decode_message(frame) == msg

    def test_bool_subtree_ids_coerce_to_equal_ints(self):
        # bytes() validates the trailer at C speed; bools ride through
        # as their int value, which compares equal end to end.
        msg = Message(kind=MessageKind.GET, src=0, dst=1, payload=[True, 0])
        frame = encode_message(msg)
        assert frame[3] == FRAME_GET
        decoded = decode_message(frame)
        assert decoded == msg and decoded.payload == [1, 0]

    def test_truncated_fixed_body_is_a_decode_error(self):
        with pytest.raises(WireDecodeError, match="too short"):
            decode_message(self._fixed_reframe(FRAME_GET, b"\x00" * 8))

    def test_truncated_overload_body_is_a_decode_error(self):
        with pytest.raises(WireDecodeError, match="OVERLOAD.*too short"):
            decode_message(self._fixed_reframe(FRAME_OVERLOAD, b"\x00" * 16))

    def test_overload_trailing_bytes_are_a_decode_error(self):
        msg = Message(kind=MessageKind.OVERLOAD, src=0, dst=1, file="f",
                      payload={"shed_by": 4, "redirect": -1})
        body = encode_message(msg)[HEADER.size:]
        with pytest.raises(WireDecodeError, match="trailing.*OVERLOAD"):
            decode_message(self._fixed_reframe(FRAME_OVERLOAD, body + b"\x00"))

    @settings(max_examples=80)
    @given(fixed_overloads)
    def test_overload_round_trips_on_both_codecs(self, msg):
        # The fixed lane and the generic body carry the same message.
        fixed = encode_message(msg)
        assert fixed[3] == FRAME_OVERLOAD
        generic = encode_message(msg, fixed=False)
        assert generic[3] == FRAME_GENERIC
        assert decode_message(fixed) == decode_message(generic) == msg

    def test_ack_trailing_bytes_are_a_decode_error(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        body = encode_message(msg)[HEADER.size:]
        with pytest.raises(WireDecodeError, match="trailing"):
            decode_message(self._fixed_reframe(FRAME_ACK, body + b"\x00"))

    def test_bad_subtree_trailer_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET, src=0, dst=1, file="f",
                      payload=[1, 2])
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-3] = 9  # count byte claims 9 ids; only 2 follow
        with pytest.raises(WireDecodeError, match="subtree trailer"):
            decode_message(self._fixed_reframe(FRAME_GET, bytes(body)))

    def test_unknown_reply_payload_kind_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="f",
                      payload={"payload": None, "server": 2})
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-5] = 77  # the value-kind byte before the u32 length
        with pytest.raises(WireDecodeError, match="payload kind"):
            decode_message(self._fixed_reframe(FRAME_GET_REPLY, bytes(body)))

    def test_reply_none_payload_with_bytes_is_a_decode_error(self):
        msg = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="f",
                      payload={"payload": b"x", "server": 2})
        body = bytearray(encode_message(msg)[HEADER.size:])
        body[-6] = 0  # retag the 1-byte payload as None, bytes still follow
        with pytest.raises(WireDecodeError, match="carries bytes"):
            decode_message(self._fixed_reframe(FRAME_GET_REPLY, bytes(body)))

    @settings(max_examples=80)
    @given(st.integers(min_value=1, max_value=4),
           st.binary(min_size=0, max_size=64))
    def test_random_fixed_bodies_never_crash_the_decoder(self, flags, blob):
        try:
            decode_message(self._fixed_reframe(flags, blob))
        except (FrameError, WireDecodeError):
            pass


# ---------------------------------------------------------------------------
# zero-copy frame encoder / reader: buffer reuse and hardening
# ---------------------------------------------------------------------------

class TestFrameEncoder:
    def test_buffer_matches_per_message_encodes(self):
        msgs = [
            Message(kind=MessageKind.GET, src=0, dst=i, file=f"f-{i}")
            for i in range(5)
        ]
        enc = FrameEncoder()
        for m in msgs:
            enc.add(m)
        assert enc.pending == 5
        singles = [encode_message(m) for m in msgs]
        assert enc.pending_bytes == sum(map(len, singles))
        assert enc.take_bytes() == b"".join(singles)

    def test_rejected_message_rolls_back_the_buffer(self):
        good = Message(kind=MessageKind.GET, src=0, dst=1, file="ok")
        bad = Message(kind=MessageKind.INSERT, src=0, dst=1,
                      payload={"obj": object()})
        enc = FrameEncoder()
        enc.add(good)
        with pytest.raises(WireError):
            enc.add(bad)
        assert enc.pending == 1  # the bad frame left no partial bytes
        enc.add(good)
        blob = enc.take_bytes()
        assert blob == encode_message(good) * 2

    def test_encoder_is_reusable_after_flush(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        enc = FrameEncoder()
        enc.add(msg)
        first = enc.take_bytes()
        assert enc.pending == 0 and enc.pending_bytes == 0
        enc.add(msg)
        assert enc.take_bytes() == first


# The pack-into encoder the one-pack frames replaced (a scratch
# ``bytearray``: header placeholder, body appended field by field, header
# packed into the placeholder last).  It is the reference the frames
# ``FrameEncoder.add`` builds must match byte for byte.
_REF_COMMON = struct.Struct(">6qH")
_REF_REPLY = struct.Struct(">7qH")
_REF_OVERLOAD = struct.Struct(">8qH")
_REF_I64 = (-(1 << 63), (1 << 63) - 1)


def _reference_fixed(buf: bytearray, msg: Message) -> int:
    kind = msg.kind
    low, high = _REF_I64
    if kind is MessageKind.GET:
        sids = msg.payload
        trailer = None
        if sids is not None:
            if type(sids) is not list or not 0 < len(sids) <= 255:
                return FRAME_GENERIC
            try:
                trailer = bytes(sids)
            except (TypeError, ValueError):
                return FRAME_GENERIC
        layout, extra, flags = _REF_COMMON, (), FRAME_GET
    elif kind is MessageKind.ACK:
        if msg.payload is not None:
            return FRAME_GENERIC
        layout, extra, flags = _REF_COMMON, (), FRAME_ACK
    elif kind in (MessageKind.GET_REPLY, MessageKind.OVERLOAD):
        payload = msg.payload
        if type(payload) is not dict or len(payload) != 2:
            return FRAME_GENERIC
        keys = (("server",) if kind is MessageKind.GET_REPLY
                else ("shed_by", "redirect"))
        try:
            extra = tuple(payload[key] for key in keys)
            data = payload["payload"] if kind is MessageKind.GET_REPLY else None
        except KeyError:
            return FRAME_GENERIC
        if any(type(v) is not int or not low <= v <= high for v in extra):
            return FRAME_GENERIC
        if kind is MessageKind.GET_REPLY:
            if data is None:
                value_kind, raw = 0, b""
            elif type(data) is str:
                try:
                    value_kind, raw = 1, data.encode("utf-8")
                except UnicodeEncodeError:
                    return FRAME_GENERIC
            elif type(data) is bytes:
                value_kind, raw = 2, data
            else:
                return FRAME_GENERIC
            layout, flags = _REF_REPLY, FRAME_GET_REPLY
        else:
            layout, flags = _REF_OVERLOAD, FRAME_OVERLOAD
    else:
        return FRAME_GENERIC
    try:
        name = msg.file.encode("utf-8")
    except UnicodeEncodeError:
        return FRAME_GENERIC
    if len(name) > 0xFFFF:
        return FRAME_GENERIC
    try:
        buf += layout.pack(
            msg.src, msg.dst, msg.version, msg.hops, msg.origin,
            msg.request_id, *extra, len(name),
        )
    except struct.error:
        return FRAME_GENERIC
    buf += name
    if flags == FRAME_GET and trailer is not None:
        buf.append(len(trailer))
        buf += trailer
    elif flags == FRAME_GET_REPLY:
        buf.append(value_kind)
        buf += struct.pack(">I", len(raw))
        buf += raw
    return flags


def _reference_frame(msg: Message, fixed: bool) -> bytes:
    """One v2 frame, built the pack-into way; raises what ``add`` raises."""
    buf = bytearray(HEADER.size)
    flags = _reference_fixed(buf, msg) if fixed else FRAME_GENERIC
    if flags == FRAME_GENERIC:
        body = msg.__dict__.get(WIRE_BODY)
        if body is not None:
            buf += body
            try:
                struct.pack_into(">2q", buf, HEADER.size + 1, msg.src, msg.dst)
                struct.pack_into(">q", buf, HEADER.size + 25, msg.hops)
            except struct.error:
                del buf[HEADER.size:]
                body = None
        if body is None:
            wire_module._encode_body_v2(buf, msg)
    HEADER.pack_into(buf, 0, MAGIC, WIRE_VERSION, flags,
                     len(buf) - HEADER.size)
    return bytes(buf)


def _outcome(build):
    """What ``build()`` returns, or the class of the wire error it raises."""
    try:
        return build()
    except WireError as exc:
        return type(exc)


# One past either i64 bound makes ``struct`` reject a field: the fixed
# lane falls back, and the generic body raises.
_edge_i64 = st.integers(min_value=-(2**63) - 1, max_value=2**63)
_edge_names = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "n" * 0xFFFF, "n" * 0x10000, "é" * 0x8000, "x\ud800"]),
)
_sid = st.integers(min_value=0, max_value=255)
_get_payloads = st.one_of(
    st.none(),
    st.lists(_sid, min_size=1, max_size=4),
    st.lists(st.one_of(_sid, st.booleans(), st.sampled_from([256, -1, "a", 1.0])),
             min_size=1, max_size=3),
    st.tuples(_sid), st.just({"x": 1}),
)
_reply_values = st.one_of(
    st.none(), st.text(max_size=8), st.binary(max_size=8),
    st.sampled_from(["x\ud800", 7, 1.5, [1], {"k": None}]),
)
_odd_ints = st.one_of(_edge_i64, st.sampled_from([True, "n3", 2.0]))
_reply_payloads = st.one_of(
    st.fixed_dictionaries({"payload": _reply_values, "server": _odd_ints}),
    st.fixed_dictionaries({"payload": _reply_values}),
    st.fixed_dictionaries({"payload": _reply_values, "server": _edge_i64,
                           "extra": st.none()}),
    st.none(), st.just([1, 2]),
)
_overload_payloads = st.one_of(
    st.fixed_dictionaries({"shed_by": _odd_ints, "redirect": _odd_ints}),
    st.fixed_dictionaries({"shed_by": _edge_i64}),
    st.none(), st.just({}),
)


def _lane_messages(kind, payloads):
    return st.builds(
        Message, kind=st.just(kind), src=_edge_i64, dst=_edge_i64,
        file=_edge_names, payload=payloads, version=_edge_i64,
        hops=_edge_i64, origin=_edge_i64, request_id=_edge_i64,
    )


lane_messages = st.one_of(
    fixed_eligible,
    _lane_messages(MessageKind.GET, _get_payloads),
    _lane_messages(MessageKind.ACK, st.one_of(st.none(), st.just([1]))),
    _lane_messages(MessageKind.GET_REPLY, _reply_payloads),
    _lane_messages(MessageKind.OVERLOAD, _overload_payloads),
    messages,
)


def _lane_edges():
    """The named edges, one field at a time on otherwise valid frames."""
    base = dict(src=3, dst=7, file="f", version=1, hops=2, origin=3,
                request_id=9)
    payloads = {
        MessageKind.GET: None,
        MessageKind.ACK: None,
        MessageKind.GET_REPLY: {"payload": "v", "server": 5},
        MessageKind.OVERLOAD: {"shed_by": 2, "redirect": 4},
    }
    bounds = (-(2**63), 2**63 - 1, -(2**63) - 1, 2**63)
    for kind, payload in payloads.items():
        for field in ("src", "dst", "version", "hops", "origin", "request_id"):
            for value in bounds:
                yield Message(kind=kind, payload=payload, **{**base, field: value})
        for name in ("", "n" * 0xFFFF, "n" * 0x10000, "é" * 0x8000, "x\ud800"):
            yield Message(kind=kind, payload=payload, **{**base, "file": name})
    for count in (0, 1, 255, 256):
        yield Message(kind=MessageKind.GET, payload=[7] * count, **base)
    for value in (None, "text", "x\ud800", b"\x00\xff", 7, 1.5, [1]):
        yield Message(kind=MessageKind.GET_REPLY, **base,
                      payload={"payload": value, "server": 5})
    for value in (*bounds, True):
        yield Message(kind=MessageKind.GET_REPLY, **base,
                      payload={"payload": None, "server": value})
        yield Message(kind=MessageKind.OVERLOAD, **base,
                      payload={"shed_by": value, "redirect": 4})
        yield Message(kind=MessageKind.OVERLOAD, **base,
                      payload={"shed_by": 2, "redirect": value})


class TestOnePackFrames:
    """``FrameEncoder.add`` emits exactly the reference encoder's bytes,
    and rejects exactly what it rejects, on every lane."""

    @staticmethod
    def _built(msg: Message, fixed: bool) -> bytes:
        encoder = FrameEncoder(fixed=fixed)
        size = encoder.add(msg)
        frame = encoder.take_bytes()
        assert size == len(frame) and encoder.pending == 0
        return frame

    def _check(self, msg: Message, fixed: bool):
        """Assert both encoders agree; return the reference's outcome."""
        want = _outcome(lambda: _reference_frame(msg, fixed))
        assert _outcome(lambda: self._built(msg, fixed)) == want, (msg, fixed)
        return want

    @pytest.mark.parametrize("fixed", [True, False])
    def test_named_edges_match_the_pack_into_reference(self, fixed):
        lanes = set()
        for msg in _lane_edges():
            frame = self._check(msg, fixed)
            lanes.add(frame if isinstance(frame, type) else frame[3])
        # Every fixed lane, the generic lane and a rejection were hit.
        expected = {FRAME_GENERIC, WireDecodeError}
        if fixed:
            expected |= {FRAME_GET, FRAME_ACK, FRAME_GET_REPLY, FRAME_OVERLOAD}
        assert lanes == expected

    @settings(max_examples=300, deadline=None)
    @given(lane_messages, st.booleans())
    def test_frames_match_the_pack_into_reference(self, msg, fixed):
        self._check(msg, fixed)

    @settings(max_examples=150, deadline=None)
    @given(messages, _edge_i64, _edge_i64, st.sampled_from([0, 2**63 - 1]),
           st.booleans())
    def test_carried_frames_match_the_reference(self, msg, src, dst, hops, fixed):
        got = decode_message(
            encode_message(replace(msg, hops=hops), fixed=False)
        )
        hop = got.forwarded(src, dst)
        assert WIRE_BODY in hop.__dict__
        self._check(hop, fixed)


def _fixed_frame(flags: int, ints: int, name: bytes = b"f", tail: bytes = b"",
                 name_len: int | None = None) -> bytes:
    """A hand-built fixed-layout frame: ``ints`` i64 fields, the u16 name
    length (``name_len`` overrides it), the name and ``tail``."""
    body = struct.pack(
        f">{ints}qH", *range(ints), len(name) if name_len is None else name_len
    ) + name + tail
    return HEADER.pack(MAGIC, WIRE_VERSION, flags, len(body)) + body


class TestMalformedFixedBodies:
    @pytest.mark.parametrize("frame", [
        pytest.param(HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GET, 8)
                     + bytes(8), id="short-get"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 6), id="short-reply"),
        pytest.param(_fixed_frame(FRAME_OVERLOAD, 7), id="short-overload"),
        pytest.param(_fixed_frame(FRAME_ACK, 6, b"abc", name_len=10),
                     id="truncated-name"),
        pytest.param(_fixed_frame(FRAME_GET, 6, b"\xff\xfe"), id="bad-utf8-name"),
        pytest.param(_fixed_frame(FRAME_ACK, 6, tail=b"\x00"), id="ack-trailing"),
        pytest.param(_fixed_frame(FRAME_OVERLOAD, 8, tail=b"\x00"),
                     id="overload-trailing"),
        pytest.param(_fixed_frame(FRAME_GET, 6, tail=b"\x00"), id="zero-trailer"),
        pytest.param(_fixed_frame(FRAME_GET, 6, tail=b"\x09\x01\x02"),
                     id="overlong-trailer"),
        pytest.param(_fixed_frame(FRAME_GET, 6, tail=b"\x01\x01\x02"),
                     id="bytes-after-trailer"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=b"\x01\x00"),
                     id="truncated-value-header"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=b"\x02\x00\x00\x00\x05ab"),
                     id="truncated-value"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=b"\x01\x00\x00\x00\x02\xff\xfe"),
                     id="bad-utf8-value"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=b"\x00\x00\x00\x00\x01x"),
                     id="none-payload-carries-bytes"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=b"\x4d\x00\x00\x00\x00"),
                     id="unknown-value-kind"),
        pytest.param(_fixed_frame(FRAME_GET_REPLY, 7, tail=bytes(6)),
                     id="reply-trailing"),
    ])
    def test_is_counted_and_the_connection_goes_on(self, frame):
        with pytest.raises(WireDecodeError):
            decode_message(frame)
        before = Message(kind=MessageKind.GET, src=0, dst=1, file="a")
        after = Message(kind=MessageKind.GET_REPLY, src=1, dst=0, file="b",
                        payload={"payload": "v", "server": 1})
        blob = (encode_message(before) + frame
                + encode_message(after))
        for chunks in ([blob], [blob[i:i + 5] for i in range(0, len(blob), 5)]):
            conn, out, errors = _feed(chunks)
            assert conn.error is None
            assert out == [before, after] and errors == 1


class _FakeTransport:
    """What a `FrameConnection` touches on its transport, no socket."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def write(self, data):
        self.written += data

    def close(self):
        self.closed = True


def _feed(chunks, eof=True, **kwargs):
    """Hand ``chunks`` to a fresh connection's ``data_received``, one
    call each; returns ``(connection, [message], errors)``."""
    out, errors = [], [0]

    def on_frames(_conn, frames, errs):
        out.extend(frames)
        errors[0] += errs

    conn = FrameConnection(on_frames, **kwargs)
    conn.connection_made(_FakeTransport())
    for chunk in chunks:
        conn.data_received(chunk)
    if eof and not conn.closed:
        conn.eof_received()
    return conn, out, errors[0]


class TestFrameReader:
    """The read side of `FrameConnection` (decode inside ``data_received``)."""

    def _drain(self, blob: bytes, chunk: int):
        """Feed ``blob`` in ``chunk``-sized slices; decode to exhaustion."""
        conn, out, errors = _feed(
            blob[i:i + chunk] for i in range(0, len(blob), chunk)
        )
        if conn.error is not None:
            raise conn.error
        return out, errors

    @settings(max_examples=40)
    @given(st.lists(messages, min_size=1, max_size=6),
           st.integers(min_value=1, max_value=64))
    def test_batch_decode_survives_any_chunking(self, msgs, chunk):
        blob = b"".join(encode_message(m) for m in msgs)
        out, errors = self._drain(blob, chunk)
        assert out == msgs and errors == 0

    def test_corrupt_body_is_counted_and_skipped(self):
        msgs = [
            Message(kind=MessageKind.GET, src=0, dst=i, file=f"f-{i}")
            for i in range(3)
        ]
        frames = [
            bytearray(encode_message(m, fixed=False))
            for m in msgs
        ]
        frames[1][-1] = 250  # the payload's single tag byte: unknown tag
        out, errors = self._drain(b"".join(bytes(f) for f in frames), chunk=7)
        assert out == [msgs[0], msgs[2]] and errors == 1

    def test_corrupt_overload_body_is_counted_and_skipped(self):
        before = Message(kind=MessageKind.GET, src=0, dst=1, file="a")
        bad = Message(kind=MessageKind.OVERLOAD, src=2, dst=1, file="b",
                      payload={"shed_by": 2, "redirect": 5})
        after = Message(kind=MessageKind.GET, src=0, dst=3, file="c")
        frames = [
            bytearray(encode_message(m))
            for m in (before, bad, after)
        ]
        assert frames[1][3] == FRAME_OVERLOAD
        frames[1].append(0)  # trailing byte after the fixed body
        frames[1][4:8] = len(frames[1][HEADER.size:]).to_bytes(4, "big")
        out, errors = self._drain(b"".join(bytes(f) for f in frames), chunk=9)
        assert out == [before, after] and errors == 1

    def test_mid_frame_truncation_is_a_frame_error(self):
        blob = encode_message(
            Message(kind=MessageKind.GET, src=0, dst=1, file="f"))[:-2]
        with pytest.raises(FrameError, match="mid-frame"):
            self._drain(blob, chunk=5)

    def test_decoded_messages_never_alias_the_reuse_buffer(self):
        first = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="a",
                        payload={"payload": b"\x01" * 32, "server": 7})
        second = Message(kind=MessageKind.GET_REPLY, src=0, dst=1, file="b",
                         payload={"payload": b"\xff" * 32, "server": 8})

        # Split mid-frame so both decodes slice from the connection's
        # own buffer, which the second overwrites after the first.
        blob1 = encode_message(first)
        blob2 = encode_message(second)
        _conn, out, _errors = _feed(
            [blob1[:10], blob1[10:] + blob2[:10], blob2[10:]]
        )
        got_first, got_second = out
        assert got_first == first  # still intact: leaves were copied out
        assert got_second == second


def _broken(frame: bytes) -> bytes:
    """``frame`` with one byte appended to its body and the header's
    length to match: well framed, and it does not decode."""
    body = frame[HEADER.size:] + b"\x00"
    return frame[:4] + len(body).to_bytes(4, "big") + body


#: (message, lane) pairs: ``fixed`` only where the fixed lane applies.
lane_frames = st.one_of(
    st.tuples(messages, st.just("generic")),
    st.tuples(fixed_eligible, st.sampled_from(["generic", "fixed"])),
)


class TestFrameConnection:
    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(lane_frames, st.booleans()), min_size=1, max_size=6),
        st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=8),
        st.data(),
    )
    def test_any_chunking_decodes_like_one_shot(self, specs, sizes, data):
        """However the byte stream is cut, ``data_received`` yields the
        messages and decode-error count of one-shot decode; cut short
        inside a frame, it reports a ``FrameError`` after delivering
        every frame that was complete.  Generic and fixed frames mix
        on one stream."""

        def decodable(prefix):
            return [msg for (msg, _lane), broken in prefix if not broken]

        def chunked(raw: bytes):
            pos, turn = 0, 0
            while pos < len(raw):
                step = sizes[turn % len(sizes)]
                yield raw[pos:pos + step]
                pos, turn = pos + step, turn + 1

        frames = []
        for (msg, lane), broken in specs:
            frame = encode_message(msg, fixed=lane == "fixed")
            frames.append(_broken(frame) if broken else frame)
        blob = b"".join(frames)
        whole, out_whole, errors_whole = _feed([blob])
        assert whole.error is None and whole.closed
        assert out_whole == decodable(specs)
        assert errors_whole == sum(broken for _spec, broken in specs)
        conn, out, errors = _feed(chunked(blob))
        assert conn.error is None
        assert (out, errors) == (out_whole, errors_whole)

        cut = data.draw(st.integers(min_value=1, max_value=len(blob) - 1))
        ends = [sum(map(len, frames[:i + 1])) for i in range(len(frames))]
        conn, out, errors = _feed(chunked(blob[:cut]))
        assert out == decodable(specs[:sum(end <= cut for end in ends)])
        if cut in ends:
            assert conn.error is None
        else:
            assert isinstance(conn.error, FrameError)
            assert "mid-frame" in str(conn.error)
            assert conn.transport.closed

    def test_framing_damage_closes_after_delivering_what_decoded(self):
        good = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        lost = []
        conn = FrameConnection(lambda *_a: None, lost.append)
        conn.connection_made(_FakeTransport())
        conn.data_received(encode_message(good) + b"XX\x02\x00")
        conn.data_received(b"\x00\x00\x00\x00")
        assert isinstance(conn.error, FrameError) and "magic" in str(conn.error)
        assert conn.closed and conn.transport.closed and lost == [conn]
        with pytest.raises(ConnectionError):
            conn.add(good)

    def test_paused_transport_keeps_frames_in_the_encoder(self):
        """Backpressure: while the transport is over its high-water
        mark nothing is written, ``drained()`` suspends, and on
        ``resume_writing`` every frame leaves once, in order."""
        msgs = [
            Message(kind=MessageKind.GET, src=-1, dst=i, file=f"f-{i}")
            for i in range(5)
        ]

        async def run():
            conn = FrameConnection()
            transport = _FakeTransport()
            conn.connection_made(transport)
            conn.add(msgs[0])
            conn.flush()  # not paused: written now
            assert conn.encoder.pending == 0 and transport.written
            await asyncio.wait_for(conn.drained(), 1.0)  # not paused: no wait
            conn.pause_writing()
            for msg in msgs[1:]:
                conn.add(msg)
                conn.flush()
            waiter = asyncio.ensure_future(conn.drained())
            await asyncio.sleep(0.01)
            assert conn.encoder.pending == 4 and not waiter.done()
            before = len(transport.written)
            conn.flush()  # an explicit flush does not jump the pause
            assert len(transport.written) == before
            conn.resume_writing()
            await asyncio.wait_for(waiter, 1.0)
            assert conn.encoder.pending == 0
            return bytes(transport.written)

        written = asyncio.run(run())
        _conn, out, errors = _feed([written])
        assert out == msgs and errors == 0

    @pytest.mark.parametrize("header", [
        pytest.param(HEADER.pack(b"XX", WIRE_VERSION, FRAME_GENERIC, 0),
                     id="magic"),
        pytest.param(HEADER.pack(MAGIC, 0, FRAME_GENERIC, 0), id="version-0"),
        pytest.param(HEADER.pack(MAGIC, 3, FRAME_GENERIC, 0), id="version-3"),
        pytest.param(HEADER.pack(MAGIC, WIRE_VERSION, FRAME_OVERLOAD + 1, 0),
                     id="flags-5"),
        pytest.param(HEADER.pack(MAGIC, WIRE_VERSION, 255, 0),
                     id="flags-255"),
        pytest.param(HEADER.pack(MAGIC, WIRE_VERSION, FRAME_GET,
                                 MAX_FRAME + 1), id="oversized"),
    ])
    def test_a_bad_header_fails_as_decode_message_does(self, header):
        """The inline header check of ``data_received`` raises the very
        ``FrameError`` ``decode_message`` does, after the frames before."""
        good = Message(kind=MessageKind.ACK, src=0, dst=1, file="f")
        frame = encode_message(good)
        with pytest.raises(FrameError) as raised:
            decode_message(header)
        conn, out, errors = _feed([frame + header + frame])
        assert out == [good] and errors == 0
        assert str(conn.error) == str(raised.value) and conn.closed

    def test_a_lone_frame_is_written_as_built_and_a_backlog_in_one_write(self):
        """Unpaused, ``flush()`` hands the transport the very ``bytes``
        ``add`` built, on every lane.  Frames added while paused leave
        on ``resume_writing`` in one write, in order."""
        writes = []
        transport = _FakeTransport()
        transport.write = writes.append
        conn = FrameConnection()
        conn.connection_made(transport)
        lanes = [
            Message(kind=MessageKind.GET, src=-1, dst=1, file="f"),
            Message(kind=MessageKind.INSERT, src=-1, dst=1, file="f",
                    payload={"v": 1}),
            Message(kind=MessageKind.GET_REPLY, src=1, dst=-1, file="f",
                    payload={"payload": "v", "server": 1}),
        ]
        for msg in lanes:
            conn.add(msg)
            (built,) = conn.encoder._frames
            conn.flush()
            assert writes[-1] is built and conn.encoder.pending == 0
        conn.pause_writing()
        for msg in lanes:
            conn.add(msg)
            conn.flush()
        assert len(writes) == len(lanes) and conn.encoder.pending == len(lanes)
        conn.resume_writing()
        assert len(writes) == len(lanes) + 1
        assert writes[-1] == b"".join(
            encode_message(msg) for msg in lanes
        )

    def test_partial_socket_write_does_not_pin_the_scratch_buffer(self):
        """A real socket with a 4 kB send buffer and a peer that is not
        reading takes partial writes.  On Python 3.12+ the transport
        keeps what it was handed, and when that was views of the
        encoder's ``bytearray`` the recycling ``del buf[:]`` raised
        ``BufferError``.  Every frame must arrive, in order."""
        msg = Message(kind=MessageKind.INSERT, src=0, dst=1, file="f",
                      payload=b"x" * 3000)

        async def run():
            ours, theirs = socket.socketpair()
            ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            for sock in (ours, theirs):
                sock.setblocking(False)
            loop = asyncio.get_running_loop()
            _t, conn = await loop.create_connection(FrameConnection, sock=ours)
            sent = 0
            while not conn.paused:
                assert sent < 1000, "the transport never paused"
                conn.add(msg)
                conn.flush()
                sent += 1
            conn.add(msg)
            conn.flush()  # paused: stays in the encoder until resume
            got = []
            _t, peer = await loop.create_connection(
                lambda: FrameConnection(lambda _c, frames, _e: got.extend(frames)),
                sock=theirs,
            )
            try:
                for _ in range(2000):
                    if len(got) > sent:
                        break
                    await asyncio.sleep(0.001)
            finally:
                await conn.close()
                await peer.close()
            return sent + 1, got

        sent, got = asyncio.run(asyncio.wait_for(run(), timeout=30.0))
        assert got == [msg] * sent

    def test_drained_wakes_with_an_error_when_the_connection_is_lost(self):
        async def run():
            conn = FrameConnection()
            conn.connection_made(_FakeTransport())
            conn.pause_writing()
            waiter = asyncio.ensure_future(conn.drained())
            await asyncio.sleep(0)
            conn.connection_lost(None)
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(waiter, 1.0)
            await asyncio.wait_for(conn.close(), 1.0)  # already closed

        asyncio.run(run())

    def test_started_coroutine_runs_now_and_finishes_on_a_task_if_it_waits(self):
        """`NodeServer._start` (how ``data_received`` sheds through the
        host's async ``send``): synchronous up to the first suspension,
        then a tracked task that leaves ``_tasks`` when it ends."""

        async def run():
            cluster = await LiveCluster.start(RuntimeConfig(m=2, seed=5))
            try:
                node = cluster.nodes[0]
                before = len(node._tasks)
                gate = asyncio.get_running_loop().create_future()
                log = []

                async def quick():
                    log.append("quick")

                async def waits():
                    log.append("started")
                    assert await gate == "go"
                    await asyncio.sleep(0)
                    log.append("finished")

                node._start(quick())
                assert log == ["quick"] and len(node._tasks) == before
                node._start(waits())
                assert log == ["quick", "started"]
                assert len(node._tasks) == before + 1
                gate.set_result("go")
                await asyncio.sleep(0.01)
                assert log[-1] == "finished" and len(node._tasks) == before
            finally:
                await cluster.shutdown()

        asyncio.run(asyncio.wait_for(run(), timeout=30.0))

    def test_connections_leave_no_task_and_no_entry_behind(self):
        """100 connect/close rounds against one node: its task set and
        connection set are back where they started (a reader task per
        accepted connection used to pile up until shutdown)."""

        async def run():
            cluster = await LiveCluster.start(RuntimeConfig(m=2, seed=5))
            try:
                node = cluster.nodes[1]
                boot = await RuntimeClient(cluster, 1).connect()
                await boot.insert("loop.dat", "x")
                await boot.close()
                await cluster.drain()
                await asyncio.sleep(0)
                start = (len(node._tasks), len(node._conns))
                for _ in range(100):
                    client = await RuntimeClient(cluster, 1).connect()
                    assert len(node._conns) == start[1] + 1
                    assert (await client.get("loop.dat")).ok
                    await client.close()
                    await asyncio.sleep(0)  # the node sees the EOF
                return start, (len(node._tasks), len(node._conns))
            finally:
                await cluster.shutdown()

        start, end = asyncio.run(asyncio.wait_for(run(), timeout=30.0))
        assert end == start


def _peek(conn: FrameConnection) -> bytes:
    """The bytes waiting unread in ``conn``'s socket, left for its owner
    (read through a duplicate descriptor with ``MSG_PEEK``)."""
    fd = conn.transport.get_extra_info("socket").fileno()
    with socket.fromfd(fd, socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        try:
            return sock.recv(1 << 16, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return b""


class TestWriteThrough:
    """Every sender writes a frame in the call that made it: when the
    call returns on an unpaused connection its encoder is empty and the
    frame already waits in the far socket, with no loop iteration in
    between."""

    def test_cluster_send(self):
        msg = Message(kind=MessageKind.ACK, src=0, dst=1, file="f", request_id=7)

        async def run():
            cluster = await LiveCluster.start(RuntimeConfig(m=2, seed=5))
            try:
                await cluster.send(0, msg)
                sink = cluster._peer_conns[(0, 1)]
                (far,) = cluster.nodes[1]._conns
                return sink.paused, sink.encoder.pending, _peek(far)
            finally:
                await cluster.shutdown()

        paused, pending, waiting = asyncio.run(asyncio.wait_for(run(), 30.0))
        assert not paused and pending == 0
        assert decode_message(waiting) == msg

    def test_client_request_future(self):
        msg = fast_message(MessageKind.GET, CLIENT, 1, "absent.dat", request_id=9)

        async def run():
            cluster = await LiveCluster.start(RuntimeConfig(m=2, seed=5))
            try:
                client = await RuntimeClient(cluster, 1).connect()
                (far,) = cluster.nodes[1]._conns
                future = client.request_future(msg, 5.0)
                conn = client._conn
                state = conn.paused, conn.encoder.pending, _peek(far)
                reply = await future
                await client.close()
                return state, reply
            finally:
                await cluster.shutdown()

        (paused, pending, waiting), reply = asyncio.run(asyncio.wait_for(run(), 30.0))
        assert not paused and pending == 0
        assert decode_message(waiting) == msg
        assert reply.kind is MessageKind.GET_FAULT  # and it was served

    def test_control_link_cast(self):
        async def handle(op, body):
            return None

        async def run():
            loop = asyncio.get_running_loop()
            a, b = ControlLink(handle, "a"), ControlLink(handle, "b")
            for link, sock in zip((a, b), socket.socketpair()):
                sock.setblocking(False)
                await loop.create_connection(lambda link=link: link.conn, sock=sock)
            a.cast("note", n=1)
            state = a.conn.paused, a.conn.encoder.pending, _peek(b.conn)
            await a.close()
            await b.close()
            return state

        paused, pending, waiting = asyncio.run(asyncio.wait_for(run(), 30.0))
        assert not paused and pending == 0
        assert decode_message(waiting).payload == {"op": "note", "n": 1}


class TestDialNode:
    def test_a_cancelled_socketpair_dial_leaks_no_socket(self):
        """Cancelled at any of its suspensions (a node shutting down
        cancels a handler that was dialling a peer), an in-process dial
        closes both ends of its socketpair."""

        async def run():
            for steps in range(1, 8):
                dial = asyncio.ensure_future(
                    dial_node(None, FrameConnection, attach=FrameConnection)
                )
                for _ in range(steps):
                    await asyncio.sleep(0)
                if dial.done():
                    await dial.result().close()
                    continue
                dial.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await dial
            await asyncio.sleep(0.01)  # closing transports finish closing

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(run())
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


# ---------------------------------------------------------------------------
# inline dispatch: frames served inside data_received, in arrival order
# ---------------------------------------------------------------------------

def _rebuilt(msg: Message) -> Message:
    """The same nine fields on a message that never saw the wire."""
    return fast_message(
        msg.kind, msg.src, msg.dst, msg.file, msg.payload, msg.version,
        msg.hops, msg.origin, msg.request_id,
    )


_pids = st.integers(min_value=-2, max_value=2**31 - 1)


class TestCarriedBody:
    """A message decoded from a v2 generic-lane frame keeps the body it
    came in; ``forwarded`` hands it on and ``FrameEncoder.add`` copies
    and patches it instead of encoding the message again."""

    @pytest.fixture
    def full_encodes(self, monkeypatch):
        """Counts calls of the generic v2 body encoder."""
        calls = []
        encode = wire_module._encode_body_v2

        def counted(buf, msg):
            calls.append(msg)
            encode(buf, msg)

        monkeypatch.setattr(wire_module, "_encode_body_v2", counted)
        return calls

    @settings(max_examples=120)
    @given(messages, _pids, _pids, st.integers(1, 40), st.booleans())
    def test_forwarded_frame_is_the_fresh_encode(self, msg, src, dst, cut, fixed):
        frame = encode_message(msg, fixed=False)
        _conn, out, _errors = _feed([frame[:cut], frame[cut:]])
        (got,) = out
        hop = got.forwarded(src, dst)
        fresh = _rebuilt(hop)
        assert hop == fresh and WIRE_BODY not in fresh.__dict__
        encoder = FrameEncoder(fixed=fixed)
        encoder.add(hop)
        patched = encoder.take_bytes()
        assert patched == encode_message(fresh, fixed=fixed)
        assert decode_message(patched) == hop

    def test_the_body_is_copied_not_encoded_again(self, full_encodes):
        update = Message(kind=MessageKind.UPDATE, src=3, dst=7, file="doc",
                         payload={"text": "x" * 40}, version=9, origin=3)
        got = decode_message(encode_message(update))
        assert len(full_encodes) == 1
        encoder = FrameEncoder()
        for child in (1, 2, 4):
            encoder.add(got.forwarded(7, child))
        assert len(full_encodes) == 1  # three children, no further encode
        # Any other derivation drops the bytes and is encoded in full.
        for derived in (replace(got, dst=5), _rebuilt(got), got.reply(MessageKind.ACK)):
            assert WIRE_BODY not in derived.__dict__
        encoder.add(replace(got, dst=5))
        assert len(full_encodes) == 2

    def test_a_field_struct_rejects_falls_back_and_rolls_back(self, full_encodes):
        update = Message(kind=MessageKind.UPDATE, src=3, dst=7, file="doc",
                         payload=["p"], version=2)
        got = decode_message(encode_message(update))
        last_hop = decode_message(
            encode_message(replace(update, hops=2**63 - 1))
        )
        encoder = FrameEncoder()
        encoder.add(got.forwarded(7, 1))
        before = encoder.pending_bytes
        for bad in (got.forwarded(2**70, 1), got.forwarded(7, -(2**70)),
                    last_hop.forwarded(7, 1)):
            assert WIRE_BODY in bad.__dict__
            full_encodes.clear()
            with pytest.raises(WireDecodeError):
                encoder.add(bad)
            assert full_encodes == [bad]  # the full encode named the field
            assert (encoder.pending, encoder.pending_bytes) == (1, before)
        encoder.add(got.forwarded(7, 2))
        assert encoder.take_bytes() == b"".join(
            encode_message(_rebuilt(got.forwarded(7, child)))
            for child in (1, 2)
        )

    @settings(max_examples=60)
    @given(fixed_eligible)
    def test_fixed_lane_frames_carry_nothing(self, eligible):
        got = decode_message(encode_message(eligible))
        assert WIRE_BODY not in got.__dict__
        assert WIRE_BODY not in got.forwarded(1, 2).__dict__

    @settings(max_examples=60)
    @given(messages)
    def test_equality_repr_and_dict_form_ignore_the_body(self, msg):
        got = decode_message(encode_message(msg, fixed=False))
        assert WIRE_BODY in got.__dict__
        plain = _rebuilt(got)
        assert got == plain and plain == got
        assert repr(got) == repr(plain)
        assert asdict(got) == asdict(plain)


class _StubHost(NodeHost):
    """A `NodeHost` with no sockets: ``send`` logs the request it was
    asked to carry — one call per dispatched peer GET — and, for the
    request ids in ``gates``, waits there until the test opens the gate."""

    def __init__(self, m: int = 3, **config) -> None:
        super().__init__(RuntimeConfig(m=m, seed=3, **config))
        self.word = StatusWord.full(m)
        self.order: list[int] = []
        self.done: list[int] = []
        self.gates: dict[int, asyncio.Event] = {}
        self.failing: set[int] = set()
        self.claim_ok = True

    async def send(self, src, msg):
        rid = msg.request_id
        self.order.append(rid)
        if rid in self.failing:
            raise RuntimeError(f"send of {rid} blew up")
        if rid in self.gates:
            await self.gates[rid].wait()
        self.done.append(rid)

    def msg_enqueued(self, pid, src=CLIENT):
        pass

    def holders(self, name):
        return set()

    async def catalog_claim(self, name, entry, payload):
        return self.claim_ok

    async def catalog_advance(self, name, payload):
        return 1

    async def decide_replication(self, name, holder, seed, rates):
        return None

    async def record_removal(self, name, pid):
        pass


def _peer_get(rid: int, src: int = 5) -> bytes:
    """A forwarded GET for a file nobody holds: the node routes it on
    or faults it, and either way makes exactly one ``host.send``."""
    return encode_message(
        Message(kind=MessageKind.GET, src=src, dst=2, file=f"nofile-{rid}",
                origin=6, request_id=rid))


class _ClosableTransport(_FakeTransport):
    """Reports its close to the protocol, as a socket transport does —
    ``NodeServer.shutdown`` waits for that."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol

    def close(self):
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)


def _attached(node: NodeServer, count: int = 1) -> list[FrameConnection]:
    conns = [node.attach() for _ in range(count)]
    for conn in conns:
        conn.connection_made(_ClosableTransport(conn))
    return conns


async def _settle(turns: int = 8) -> None:
    for _ in range(turns):
        await asyncio.sleep(0)


class TestInlineDispatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.one_of(
            # (connection, glue onto the previous chunk, handler suspends)
            st.tuples(st.integers(0, 2), st.booleans(), st.booleans()),
            st.just("open-a-gate"),
        ),
        min_size=1, max_size=24,
    ))
    def test_dispatch_order_is_arrival_order(self, steps):
        """Any interleaving of arrivals over three connections, chunks
        of one or several frames, handlers that suspend inside
        ``host.send`` and gates opening in between: handlers start in
        arrival order, each runs exactly once, and the node reports
        itself active until the last suspended one has ended."""

        async def run():
            host = _StubHost()
            node = NodeServer(2, host)
            node.start()
            conns = _attached(node, 3)
            await _settle()
            arrived: list[int] = []
            chunk: tuple[int, list[int]] | None = None

            def land():
                nonlocal chunk
                if chunk is not None:
                    index, rids = chunk
                    conns[index].data_received(b"".join(map(_peer_get, rids)))
                    arrived.extend(rids)
                    chunk = None

            async def observe():
                land()
                assert host.order == arrived[:len(host.order)]
                if len(host.done) < len(arrived):
                    assert node.active
                await _settle(2)

            for rid, step in enumerate(steps):
                if step == "open-a-gate":
                    await observe()
                    closed = [g for g in host.gates.values() if not g.is_set()]
                    if closed:
                        closed[0].set()
                    continue
                index, glue, suspends = step
                if suspends:
                    host.gates[rid] = asyncio.Event()
                if chunk is not None and glue and chunk[0] == index:
                    chunk[1].append(rid)
                else:
                    await observe()
                    chunk = (index, [rid])
            await observe()
            for gate in host.gates.values():
                gate.set()
            await _settle(4 * len(steps) + 8)
            assert host.order == arrived
            assert sorted(host.done) == arrived
            assert not node.active
            await node.shutdown()

        asyncio.run(asyncio.wait_for(run(), timeout=30.0))

    def test_frames_before_start_queue_and_are_served_in_order(self):
        """The worker's boot ordering: its node accepts connections
        before ``start()`` (the book has not arrived; a forward now
        would dial an empty book and mark a live peer dead), so early
        frames must wait in the inbox.  Once the consumer is parked, a
        frame is served inside the call that delivered it."""

        async def run():
            host = _StubHost()
            node = NodeServer(2, host)
            (conn,) = _attached(node)
            conn.data_received(_peer_get(1) + _peer_get(2))
            conn.data_received(_peer_get(3))
            await _settle()
            assert host.order == [] and node.inbox.qsize() == 3 and node.active
            node.start()
            await _settle()
            assert host.order == [1, 2, 3] and not node.active
            conn.data_received(_peer_get(4))
            assert host.order == [1, 2, 3, 4]  # no loop iteration in between
            assert not node.active
            await node.shutdown()

        asyncio.run(asyncio.wait_for(run(), timeout=30.0))

    def test_a_handler_that_raises_inline_is_counted_and_contained(self):
        async def run():
            host = _StubHost()
            host.failing.add(1)
            node = NodeServer(2, host)
            node.start()
            (conn,) = _attached(node)
            await _settle()
            conn.data_received(_peer_get(1))  # must not raise: asyncio
            # closes the transport of a protocol whose callback does
            assert host.counters.get("handler_errors") == 1
            assert not conn.closed and not node.active
            conn.data_received(_peer_get(2))
            assert host.order == [1, 2] and host.done == [2]
            await node.shutdown()

        asyncio.run(asyncio.wait_for(run(), timeout=30.0))

    def test_a_retired_node_dispatches_nothing_and_hands_back_queued_gets(self):
        """What `LiveCluster._retire_node` relies on: with a handler
        suspended, later arrivals are in the inbox, so
        ``drain_lost_gets`` finds the peer GETs to bounce; after
        ``shutdown()`` no arrival is dispatched, inline or otherwise."""

        async def run():
            host = _StubHost()
            host.gates[1] = asyncio.Event()
            node = NodeServer(2, host)
            node.start()
            (conn,) = _attached(node)
            await _settle()
            conn.data_received(_peer_get(1))
            assert host.order == [1] and node.active  # parked on the gate
            conn.data_received(_peer_get(2) + _peer_get(3, src=CLIENT))
            node.deliver_local(Message(
                kind=MessageKind.GET, src=4, dst=2, file="nofile-4",
                origin=6, request_id=4,
            ))
            await _settle()
            assert host.order == [1] and node.inbox.qsize() == 3
            lost = node.drain_lost_gets()
            assert [msg.request_id for msg in lost] == [2, 4]
            await node.shutdown()
            host.gates[1].set()
            late = Message(kind=MessageKind.GET, src=5, dst=2, file="nofile-5",
                           origin=6, request_id=5)
            node._on_frames(conn, [late], 0)
            node.deliver_local(late)
            await _settle()
            assert host.order == [1] and host.done == []

        asyncio.run(asyncio.wait_for(run(), timeout=30.0))

    def test_a_refused_claim_is_the_already_inserted_error(self):
        """An INSERT asks the coordinator once: a claim it refuses is
        the client's ERROR, and no copy is stored or sent."""

        async def run():
            host = _StubHost()
            host.claim_ok = False
            node = NodeServer(2, host)
            node.start()
            (conn,) = _attached(node)
            await _settle()
            conn.data_received(encode_message(
                Message(kind=MessageKind.INSERT, src=CLIENT, dst=2, file="dup",
                        payload="p", request_id=9)))
            await _settle()
            written = bytes(conn.transport.written)
            await node.shutdown()
            return written, node, host

        written, node, host = asyncio.run(asyncio.wait_for(run(), timeout=30.0))
        _conn, out, _errors = _feed([written])
        [reply] = out
        assert reply.kind is MessageKind.ERROR and reply.request_id == 9
        assert "already inserted" in reply.payload["reason"]
        assert "dup" not in node.store and host.order == []


class _PlacingHost(_StubHost):
    """A `_StubHost` that keeps every frame it was asked to send and
    answers placement decisions from ``decide``."""

    def __init__(self) -> None:
        super().__init__()
        self.sent: list[Message] = []
        self.decide = None  # async (name) -> target, or None: no target

    async def send(self, src, msg):
        self.sent.append(msg)

    async def decide_replication(self, name, holder, seed, rates):
        return None if self.decide is None else await self.decide(name)


def _frame(kind: MessageKind, version: int = 1, **fields) -> Message:
    base = dict(src=5, dst=0, file="f", payload="v", version=version,
                origin=5, request_id=1)
    base.update(fields)
    return Message(kind=kind, **base)


class TestPlacedSet:
    """A holder's UPDATE fan-out goes to the children it placed a copy
    on, and to its whole children list whenever that set is unknown."""

    @staticmethod
    def _holder():
        """A node at the file's root position, and its children list."""
        host = _PlacingHost()
        pid = host.psi_of("f")
        node = NodeServer(pid, host)
        children = list(subtree_children_list(
            host.tree(pid), node.b, pid, node.word
        ))
        return host, node, pid, children

    @staticmethod
    async def _store(node, pid, how):
        if how == "insert":  # a remote home receiving its copy
            await node._dispatch(_frame(MessageKind.INSERT, dst=pid), None)
        elif how == "entry-insert":  # the entry node is itself the home
            await node._dispatch(
                _frame(MessageKind.INSERT, src=CLIENT, dst=pid, origin=-1), None
            )
        else:
            await node._dispatch(_frame(
                getattr(MessageKind, how.upper()), src=-2, dst=pid,
                payload={"payload": "v"},
            ), None)
        assert "f" in node.store

    @staticmethod
    async def _fan_out(host, node, pid, version) -> list[int]:
        host.sent.clear()
        await node._dispatch(
            _frame(MessageKind.UPDATE, version=version, dst=pid, src=7), None
        )
        assert node.store.get("f", count_access=False).version == version
        return [m.dst for m in host.sent if m.kind is MessageKind.UPDATE]

    @pytest.mark.parametrize("how", ["insert", "entry-insert", "replicate"])
    def test_a_stored_copy_starts_known_empty(self, how):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, how)
            assert len(children) >= 2
            assert await self._fan_out(host, node, pid, 2) == []

        asyncio.run(run())

    def test_fan_out_goes_to_placed_children_only(self):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, "insert")
            picks = iter([children[1], children[0], None])

            async def decide(name):
                return next(picks)

            host.decide = decide
            for _ in range(3):
                await node._replicate_decision("f", seed=1)
            assert await self._fan_out(host, node, pid, 2) == children[:2]
            # REMOVE drops the copy and its set: the next UPDATE discards.
            await node._dispatch(_frame(MessageKind.REMOVE, src=-2, dst=pid), None)
            host.sent.clear()
            await node._dispatch(
                _frame(MessageKind.UPDATE, version=3, dst=pid, src=7), None
            )
            assert host.sent == [] and host.counters["update_discards"] == 1

        asyncio.run(run())

    def test_transfer_makes_the_set_unknown(self):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, "insert")
            await self._store(node, pid, "transfer")
            assert await self._fan_out(host, node, pid, 2) == children

        asyncio.run(run())

    def test_a_word_change_makes_every_set_unknown(self):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, "insert")
            outsider = next(p for p in range(8) if p != pid and p not in children)
            await node._dispatch(_frame(
                MessageKind.REGISTER_DEAD, src=-2, dst=pid, payload={"pid": outsider},
            ), None)
            now = list(subtree_children_list(
                host.tree(pid), node.b, pid, node.word
            ))
            assert await self._fan_out(host, node, pid, 2) == now
            # A decision after the change does not make the set known.
            async def decide(name):
                return now[0]

            host.decide = decide
            await node._replicate_decision("f", seed=1)
            assert await self._fan_out(host, node, pid, 3) == now

        asyncio.run(run())

    def test_a_decision_in_flight_fans_out_to_the_whole_list(self):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, "insert")
            gate = asyncio.Event()

            async def decide(name):
                await gate.wait()
                return children[2]

            host.decide = decide
            deciding = asyncio.ensure_future(node._replicate_decision("f", seed=1))
            await _settle()
            assert await self._fan_out(host, node, pid, 2) == children
            gate.set()
            assert await deciding == children[2]
            assert await self._fan_out(host, node, pid, 3) == [children[2]]

        asyncio.run(run())

    def test_a_failed_decide_makes_the_set_unknown(self):
        async def run():
            host, node, pid, children = self._holder()
            await self._store(node, pid, "insert")

            async def decide(name):
                raise ConnectionError("control link closed")

            host.decide = decide
            assert await node._replicate_decision("f", seed=1) is None
            assert await self._fan_out(host, node, pid, 2) == children

        asyncio.run(run())


class TestSweeperStart:
    """A node starts its load sweeper only when the config gives the
    sweeper a trigger; a 20 ms tick with nothing to trip on is idle cost."""

    @pytest.mark.parametrize("config, sweeps", [
        ({}, False),
        ({"inbox_limit": 8, "service_time": 0.004, "cooldown": 0.5}, False),
        ({"capacity": 60.0}, True),
        ({"slo_budget": 0.05}, True),
        ({"idle_timeout": 1.0}, True),
        ({"inflight_limit": 8}, True),
    ])
    def test_a_sweeper_starts_only_when_it_can_fire(self, config, sweeps):
        async def run():
            host = _StubHost(**config)
            node = NodeServer(2, host)
            node.start()
            names = {task.get_name() for task in node._tasks}
            await node.shutdown()
            return host.config.needs_sweeper, names

        needs, names = asyncio.run(asyncio.wait_for(run(), timeout=30.0))
        assert needs is sweeps
        assert ("sweep:2" in names) is sweeps and "node:2" in names


# ---------------------------------------------------------------------------
# latency histograms and shape distance
# ---------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_round_trips_through_dict_form(self):
        hist = LatencyHistogram()
        for latency in (0.0005, 0.004, 0.004, 0.25, 9999.0):
            hist.record(latency)
        assert hist.total == 5
        data = hist.as_dict()
        import json as _json
        _json.dumps(data)  # strict JSON: the overflow bound must not leak inf
        back = LatencyHistogram.from_dict(data)
        assert back.counts == hist.counts and back.total == hist.total
        assert hist.shape_distance(back) == 0.0

    def test_shift_increases_distance(self):
        base, shifted, far = (LatencyHistogram() for _ in range(3))
        for _ in range(100):
            base.record(0.004)
            shifted.record(0.008)
            far.record(0.064)
        assert base.shape_distance(base) == 0.0
        d_near = base.shape_distance(shifted)
        d_far = base.shape_distance(far)
        assert 0.0 < d_near < d_far
        assert base.shape_distance(shifted) == shifted.shape_distance(base)

    def test_empty_histogram_distance_is_infinite(self):
        empty, full = LatencyHistogram(), LatencyHistogram()
        full.record(0.01)
        assert empty.shape_distance(full) == float("inf")
        assert full.shape_distance(empty) == float("inf")

    def test_extreme_latencies_land_in_end_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(1e9)
        assert hist.total == 2
        assert hist.counts[0] == 1 and hist.counts[-1] == 1


# ---------------------------------------------------------------------------
# wire codec: hardening against corrupt frames
# ---------------------------------------------------------------------------

class TestWireHardening:
    def _frame(self, **kwargs):
        return encode_message(
            Message(kind=MessageKind.GET, src=0, dst=1, file="f", **kwargs)
        )

    def test_bad_magic_is_a_frame_error(self):
        frame = b"XX" + self._frame()[2:]
        with pytest.raises(FrameError, match="magic"):
            decode_message(frame)

    def test_unknown_wire_version_is_a_frame_error(self):
        frame = self._frame()
        frame = frame[:2] + bytes([99]) + frame[3:]
        with pytest.raises(FrameError, match="version"):
            decode_message(frame)

    def test_oversized_length_is_a_frame_error(self):
        header = HEADER.pack(MAGIC, WIRE_VERSION, 0, 1 << 30)
        with pytest.raises(FrameError, match="exceeds"):
            decode_message(header)

    def test_truncated_header_is_a_frame_error(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_message(self._frame()[:5])

    def test_truncated_body_is_a_frame_error(self):
        with pytest.raises(FrameError, match="does not match"):
            decode_message(self._frame()[:-3])

    @settings(max_examples=80)
    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash_the_decoder(self, blob):
        try:
            decode_message(blob)
        except (FrameError, WireDecodeError):
            pass  # precise rejection is the contract; crashing is not


class TestOpenLoopMemory:
    """`run_open_loop` holds a fire only while it is in flight: a
    settled reply and its future are garbage before the window ends."""

    def test_settled_fires_are_released_during_the_window(self):
        async def run():
            cluster = await LiveCluster.start(RuntimeConfig(m=3, seed=11))
            try:
                files = [f"mem-{i}" for i in range(3)]
                boot = await RuntimeClient(cluster, 0).connect()
                for name in files:
                    await boot.insert(name, name)
                await boot.close()
                await cluster.drain()
                gen = LoadGenerator(cluster, files, seed=11)
                loop = asyncio.get_running_loop()
                fires = []  # (weakref to the fire, [when it settled])
                fire_nowait = gen._fire_nowait

                def tracked(report, loop):
                    fire = fire_nowait(report, loop)
                    settled = []
                    fire.add_done_callback(lambda _f: settled.append(loop.time()))
                    fires.append((weakref.ref(fire), settled))
                    return fire

                gen._fire_nowait = tracked
                checked = alive = 0

                async def probe():
                    nonlocal checked, alive
                    while True:
                        await asyncio.sleep(0.05)
                        now = loop.time()
                        for ref, settled in fires:
                            if settled and now - settled[0] >= 0.1:
                                checked += 1
                                alive += ref() is not None

                prober = loop.create_task(probe())
                try:
                    report = await gen.run_open_loop(rps=300, duration=0.8)
                finally:
                    prober.cancel()
                await gen.close()
                return report, len(fires), checked, alive
            finally:
                await cluster.shutdown()

        report, fired, checked, alive = asyncio.run(asyncio.wait_for(run(), 30.0))
        assert checked > 0, "no fire settled 100 ms before a probe"
        assert alive == 0, f"{alive} of {checked} probes found a settled fire alive"
        assert report.conserved and report.requests == fired


class _ClientOnlyCluster:
    """What a `LoadGenerator` and its clients touch on a cluster —
    membership, its epoch, a dial — over socket-free transports."""

    def __init__(self, pids):
        self.nodes = dict.fromkeys(pids)
        self.word = SimpleNamespace(epoch=0)
        self.conns = []

    def count_client_send(self, pid):
        pass

    async def open_connection(self, pid, factory):
        conn = factory()
        conn.connection_made(_FakeTransport())
        self.conns.append(conn)
        return conn


class TestLostTerminal:
    """A request whose connection drops is a churn loss, not a timeout,
    even while the entry is still listed in `cluster.nodes`: in the
    fleet that view can lag the reset."""

    @pytest.mark.parametrize("path", ["no-task", "task"])
    def test_a_dropped_connection_is_a_churn_loss(self, path):
        cluster = _ClientOnlyCluster([0])

        async def run():
            gen = LoadGenerator(cluster, ["f"], seed=0)
            loop = asyncio.get_running_loop()
            report = LoadReport()
            if path == "no-task":
                gen._clients[0] = await RuntimeClient(cluster, 0).connect()
            fire = gen._fire_nowait(report, loop)
            assert isinstance(fire, asyncio.Task) == (path == "task")
            while not (cluster.conns and cluster.conns[0].transport.written):
                await asyncio.sleep(0)  # the task path dials, then writes
            (conn,) = cluster.conns
            conn.connection_lost(None)  # the entry reset the connection
            await fire
            await gen.close()
            return report

        report = asyncio.run(asyncio.wait_for(run(), 10.0))
        assert 0 in cluster.nodes
        assert (report.requests, report.churn_lost, report.timeouts) == (1, 1, 0)
        assert report.conserved


def test_percentile_interpolates():
    assert percentile([], 0.5) == 0.0
    assert percentile([5.0], 0.99) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


class TestLoadReportQuantiles:
    """p50/p99 come from one ``statistics.quantiles`` pass, not two
    full sorts per property access — and must agree with the reference
    :func:`percentile` interpolation."""

    def _report(self, latencies):
        from repro.runtime.client import LoadReport

        return LoadReport(
            requests=len(latencies), completed=len(latencies),
            duration=1.0, latencies=list(latencies),
        )

    @settings(max_examples=60)
    @given(st.lists(st.floats(min_value=1e-6, max_value=10.0), max_size=200))
    def test_quantiles_match_reference_percentile(self, latencies):
        report = self._report(latencies)
        assert report.p50 == pytest.approx(percentile(latencies, 0.50))
        assert report.p99 == pytest.approx(percentile(latencies, 0.99))

    def test_cache_invalidates_when_samples_arrive(self):
        report = self._report([1.0, 2.0, 3.0])
        first = report.p99
        report.latencies.extend([100.0] * 50)
        assert report.p99 > first

    def test_empty_and_singleton_reports(self):
        assert self._report([]).p50 == 0.0
        assert self._report([]).p99 == 0.0
        assert self._report([0.25]).p50 == 0.25
        assert self._report([0.25]).p99 == 0.25


# ---------------------------------------------------------------------------
# tier-1 conformance smoke: one small scenario, both models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [0, 1])
def test_conformance_smoke(b):
    spec = WorkloadSpec(m=3, b=b, seed=0, files=3, ops=12)
    report = asyncio.run(run_conformance(spec))
    assert report.ok, report.render()
    assert report.files == 3


# ---------------------------------------------------------------------------
# live-cluster tests (runtime marker: real timers, bursts, TCP)
# ---------------------------------------------------------------------------

@pytest.mark.runtime
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("b", [0, 1])
def test_oracle_conformance_across_seeds(seed, b):
    """ISSUE acceptance: >= 3 seeds, both §3 and §4 models."""
    spec = WorkloadSpec(m=4, b=b, seed=seed, files=5, ops=30)
    report = asyncio.run(run_conformance(spec))
    assert report.ok, report.render()


@pytest.mark.runtime
def test_pipelined_service_matches_oracle():
    """Pipelined service (``batch_max > 1`` with a ``service_time``:
    served GETs wait out their latency together on the due-time queue)
    changes scheduling, not outcomes: the oracle replay still agrees."""
    spec = WorkloadSpec(m=4, b=1, seed=3, files=5, ops=30)
    config = RuntimeConfig(m=4, b=1, seed=3, batch_max=32, service_time=0.001)
    report = asyncio.run(run_conformance(spec, config=config))
    assert report.ok, report.render()


def test_conformance_rejects_mismatched_config():
    from repro.core.errors import ConfigurationError

    spec = WorkloadSpec(m=4, b=1, seed=3, files=2, ops=4)
    config = RuntimeConfig(m=4, b=1, seed=4)
    with pytest.raises(ConfigurationError):
        asyncio.run(run_conformance(spec, config=config))


@pytest.mark.runtime
def test_idle_replica_decays_with_conformant_removal():
    """Counter-based removal, live: replicas whose access counters sit
    still past ``idle_timeout`` are REMOVEd via the wire, the decision
    lands in the oplog, and the oracle replay (which drives
    ``remove_replica``) agrees with the final placement."""

    async def run():
        config = RuntimeConfig(
            m=4, b=1, seed=21, capacity=25.0, service_time=0.001,
            inflight_limit=8, idle_timeout=0.25,
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"cold-{i}" for i in range(4)]
            boot = await RuntimeClient(cluster, 0).connect()
            for name in files:
                await boot.insert(name, name)
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(
                cluster, files, WorkloadShape(kind="zipf", s=1.5), seed=21
            )
            await gen.run_open_loop(rps=300, duration=1.0)
            await gen.close()
            assert cluster.replicas_created() > 0, "burst never replicated"
            # Traffic stops; counters freeze; decay kicks in at the
            # sweep after idle_timeout.
            deadline = asyncio.get_running_loop().time() + 3.0
            while not any(rec.kind == "remove" for rec in cluster.oplog):
                assert asyncio.get_running_loop().time() < deadline, \
                    "no idle replica decayed within 3s"
                await asyncio.sleep(0.05)
            await cluster.quiesce()
            removes = [rec for rec in cluster.oplog if rec.kind == "remove"]
            assert removes
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            report = diff_states(cluster, system)
            assert report.ok, report.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_live_cluster_serves_seeded_burst():
    async def run():
        config = RuntimeConfig(
            m=4, b=1, seed=17, capacity=25.0, service_time=0.001,
            inflight_limit=8,
        )
        cluster = await LiveCluster.start(config)
        try:
            files = [f"burst-{i}" for i in range(5)]
            boot = await RuntimeClient(cluster, 2).connect()
            for name in files:
                await boot.insert(name, name.upper())
            await boot.close()
            await cluster.drain()
            gen = LoadGenerator(
                cluster, files, WorkloadShape(kind="zipf", s=1.5), seed=17
            )
            report = await gen.run_open_loop(rps=300, duration=1.0)
            await gen.close()
            await cluster.quiesce()
            assert report.timeouts == 0
            assert report.completed >= 0.99 * report.requests
            assert report.p99 < 1.0
            served = sum(report.served_by_node.values())
            assert served >= report.completed
            assert cluster.replicas_created() > 0
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            conformance = diff_states(cluster, system)
            assert conformance.ok, conformance.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_silent_crash_is_discovered_and_rerouted():
    """§3 FINDLIVENODE at the message level: a GET mid-flight hits an
    unannounced dead node; the sender discovers the death through the
    failed send, marks it in its own word, and reroutes."""

    async def run():
        config = RuntimeConfig(m=4, b=0, seed=5)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, 0).connect()
            insert = await boot.insert("target.dat", "precious")
            await boot.close()
            await cluster.drain()
            homes = insert.payload["homes"]
            home = homes[0]
            tree = cluster.tree(cluster.psi("target.dat"))
            # Entry whose first routing hop is a live non-holder.
            from repro.core.routing import first_alive_ancestor

            entry = hop = None
            for pid in sorted(cluster.nodes):
                if pid == home:
                    continue
                nxt = first_alive_ancestor(tree, pid, cluster.word)
                if nxt is not None and nxt != home:
                    entry, hop = pid, nxt
                    break
            assert entry is not None, "topology has no 2-hop route"
            # The intermediate dies silently: no REGISTER_DEAD circulates.
            await cluster.crash(hop, announce=False)
            assert cluster.nodes[entry].word.is_live(hop)  # still believed live
            client = await RuntimeClient(cluster, entry).connect()
            outcome = await client.get("target.dat", timeout=5.0)
            await client.close()
            assert outcome.ok, outcome
            assert outcome.payload == "precious"
            # The failed send taught the entry node about the death.
            assert not cluster.nodes[entry].word.is_live(hop)
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_get_migrates_once_past_a_silently_dead_home():
    """§4 at the message level, ``b = 2``: a subtree's home dies
    unannounced.  A GET entering that subtree climbs to it, the failed
    send marks it dead in the sender's own word, the decision taken
    again finds the subtree's copy gone, and the GET migrates — once —
    to the next subtree's home, which serves it."""
    from repro.core.subtree import SubtreeView, subtree_of_pid

    async def run():
        config = RuntimeConfig(m=4, b=2, seed=5)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, 0).connect()
            insert = await boot.insert("target.dat", "precious")
            await boot.close()
            await cluster.drain()
            homes = insert.payload["homes"]
            assert len(homes) == 4
            tree = cluster.tree(cluster.psi("target.dat"))
            home = homes[0]
            sid = subtree_of_pid(tree, home, 2)
            view = SubtreeView(tree, 2, sid)
            entry = view.members()[-1]  # subtree VID 0: two hops below
            assert view.parent(view.parent(entry)) == home
            await cluster.crash(home, announce=False)
            client = await RuntimeClient(cluster, entry).connect()
            outcome = await client.get("target.dat", timeout=5.0)
            await client.close()
            await cluster.drain()
            assert outcome.ok and outcome.payload == "precious", outcome
            # Served by the next subtree in migration order, after one
            # migration; the node that tried the dead home learned of it.
            assert outcome.server in homes
            assert subtree_of_pid(tree, outcome.server, 2) == (sid + 1) % 4
            assert cluster.counters.get("migrations", 0) == 1
            assert not cluster.nodes[view.parent(entry)].word.is_live(home)
            assert cluster.counters.get("handler_errors", 0) == 0
            await cluster.announce_crash(home)
            await cluster.drain()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_update_broadcast_splices_a_silently_dead_child():
    """§3 on the write path, ``b = 1``: a holder's child dies unannounced
    between two UPDATEs.  The first broadcast's failed send marks it dead
    in the holder's own word — and the copy below it misses that version;
    the second broadcast takes the children list of the *changed* word,
    which splices in the dead child's live children."""
    from repro.core.subtree import subtree_children_list

    async def run():
        config = RuntimeConfig(m=4, b=1, seed=5)
        cluster = await LiveCluster.start(config)
        try:
            client = await RuntimeClient(cluster, 0).connect()
            insert = await client.insert("doc", "v1")
            home = insert.payload["homes"][0]
            tree = cluster.tree(cluster.psi("doc"))
            # A chain of copies: home -> child -> grandchild.
            await cluster.trigger_overload(home, "doc", seed=1)
            await cluster.drain()
            child = cluster.oplog[-1].target
            await cluster.trigger_overload(child, "doc", seed=2)
            await cluster.drain()
            grandchild = cluster.oplog[-1].target
            assert child in subtree_children_list(tree, 1, home, cluster.word)
            assert grandchild in subtree_children_list(tree, 1, child, cluster.word)
            assert len({0, home, child, grandchild}) == 4

            def held(pid):
                copy = cluster.nodes[pid].store.get("doc", count_access=False)
                return copy.version, copy.payload

            await cluster.crash(child, announce=False)
            holder = cluster.nodes[home]
            assert holder.word.is_live(child)  # nobody was told
            assert (await client.update("doc", "v2")).ok
            await cluster.drain()
            assert not holder.word.is_live(child)  # the failed send told it
            assert held(home) == (2, "v2")
            assert held(grandchild) == (1, "v1")  # below the dead child: missed
            assert (await client.update("doc", "v3")).ok
            await cluster.drain()
            assert grandchild in subtree_children_list(tree, 1, home, holder.word)
            assert held(grandchild) == (3, "v3")

            await cluster.announce_crash(child)
            await cluster.drain()
            await client.close()
            assert cluster.counters.get("handler_errors", 0) == 0
            versions = cluster.version_map()
            for name, holders in cluster.placement().items():
                for pid in holders:
                    assert held(pid)[0] == versions[name] == 3, (name, pid)
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            conformance = diff_states(cluster, system)
            assert conformance.ok, conformance.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


async def _place_chain(cluster, name: str, links: int, seed: int) -> list[int]:
    """Replicate ``name`` from its home down a chain of ``links``
    copies, each placed by the previous one's decision, plus one more
    copy off the home.  Returns the chain, home first."""
    chain = sorted(cluster.holders(name))[:1]
    for i in range(links):
        await cluster.trigger_overload(chain[-1], name, seed=seed + i)
        await cluster.drain()
        assert cluster.oplog[-1].kind == "replicate"
        chain.append(cluster.oplog[-1].target)
    await cluster.trigger_overload(chain[0], name, seed=seed + links)
    await cluster.drain()
    assert None not in chain and cluster.oplog[-1].target is not None
    return chain


async def _update_all(client, names: list[str], rounds: int, tag: str) -> None:
    for i in range(rounds):
        for name in names:
            assert (await client.update(name, f"{tag}{i}:{name}")).ok


def _assert_coherent_and_conformant(cluster, config) -> None:
    versions = cluster.version_map()
    stale = [
        (name, pid)
        for name, holders in cluster.placement().items()
        for pid in holders
        if cluster.nodes[pid].store.get(name, count_access=False).version
        != versions[name]
    ]
    assert not stale
    assert cluster.counters.get("handler_errors", 0) == 0
    system = replay_oplog(cluster.oplog, config, cluster.initial_live)
    system.check_invariants()
    conformance = diff_states(cluster, system)
    assert conformance.ok, conformance.render()


@pytest.mark.runtime
def test_updates_to_a_placed_chain_discard_no_frame():
    """Every copy was placed by its broadcast parent, so each holder's
    placed set is exact: the UPDATEs reach every holder and no node
    without a copy is sent one."""

    async def run():
        config = RuntimeConfig(m=5, seed=11)
        cluster = await LiveCluster.start(config)
        try:
            client = await RuntimeClient(cluster, 3).connect()
            names = ["doc", "memo", "note"]
            for name in names:
                assert (await client.insert(name, f"v1:{name}")).ok
            await cluster.drain()
            chain = await _place_chain(cluster, "doc", links=3, seed=1)
            await _place_chain(cluster, "memo", links=1, seed=9)
            assert len(set(chain)) == 4
            await _update_all(client, names, rounds=4, tag="w")
            await cluster.drain()
            await client.close()
            assert cluster.counters.get("update_discards", 0) == 0
            await cluster.quiesce()
            _assert_coherent_and_conformant(cluster, config)
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_placed_sets_survive_an_announced_crash_and_a_join_mid_script():
    """Churn changes every node's word, so every placed set is forgotten
    and fan-outs take the whole children list again: the UPDATEs after
    a mid-chain holder's announced crash and its rejoin still reach
    every holder."""

    async def run():
        config = RuntimeConfig(m=5, seed=12)
        cluster = await LiveCluster.start(config)
        try:
            client = await RuntimeClient(cluster, 3).connect()
            names = ["doc", "memo"]
            for name in names:
                assert (await client.insert(name, f"v1:{name}")).ok
            await cluster.drain()
            chain = await _place_chain(cluster, "doc", links=3, seed=1)
            await _update_all(client, names, rounds=2, tag="a")
            await cluster.drain()
            assert cluster.counters.get("update_discards", 0) == 0
            victim = chain[1]
            assert victim != 3
            await cluster.crash(victim)
            await _update_all(client, names, rounds=2, tag="b")
            await cluster.drain()
            _assert_coherent_and_conformant(cluster, config)
            await cluster.join(victim)
            await _update_all(client, names, rounds=2, tag="c")
            await cluster.drain()
            _assert_coherent_and_conformant(cluster, config)
            await client.close()
            await cluster.quiesce()
            _assert_coherent_and_conformant(cluster, config)
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_a_target_the_holder_cannot_see_makes_its_set_unknown():
    """A non-holder child of the home dies unannounced.  The coordinator
    already counts it dead and places the next copy on one of its
    children, which the home's own word does not list as a child: the
    home forgets its placed set, so its UPDATE goes to the whole list,
    the failed send marks the dead child, and the next UPDATE reaches
    the copy below it (as it did before placed sets)."""

    async def run():
        config = RuntimeConfig(m=4, seed=5)
        cluster = await LiveCluster.start(config)
        try:
            home = cluster.psi("doc")
            client = await RuntimeClient(cluster, home).connect()
            assert (await client.insert("doc", "v1")).ok
            await cluster.drain()
            tree = cluster.tree(home)
            own = list(subtree_children_list(tree, 0, home, cluster.word))
            dead = [p for p in own if subtree_children_list(tree, 0, p, cluster.word)][-1]
            for seed in range(own.index(dead)):
                await cluster.trigger_overload(home, "doc", seed=seed)
                await cluster.drain()
            assert "doc" not in cluster.nodes[dead].store
            await cluster.crash(dead, announce=False)
            for seed in range(10, 10 + len(own) + 4):
                await cluster.trigger_overload(home, "doc", seed=seed)
                await cluster.drain()
                hidden = cluster.oplog[-1].target
                if hidden not in own:
                    break
            assert hidden is not None and hidden not in own
            for version in (2, 3):
                assert (await client.update("doc", f"v{version}")).ok
                await cluster.drain()
            assert not cluster.nodes[home].word.is_live(dead)
            kept = cluster.nodes[hidden].store.get("doc", count_access=False)
            assert kept.version == 3
            await cluster.announce_crash(dead)
            await client.close()
            await cluster.quiesce()
            _assert_coherent_and_conformant(cluster, config)
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_corrupt_frame_does_not_kill_the_connection():
    """Decode hardening end to end: a malformed body on a live peer
    connection is counted and skipped; the next frame still serves."""

    async def run():
        cluster = await LiveCluster.start(RuntimeConfig(m=3, b=0, seed=1))
        try:
            boot = await RuntimeClient(cluster, 0).connect()
            await boot.insert("ok.dat", "fine")
            await cluster.drain()
            # Hand-deliver a well-framed but bogus body on the same wire:
            # a v2 generic frame naming no message kind.
            frame = bytearray(encode_message(
                Message(kind=MessageKind.INSERT, src=-1, dst=0, file="x"), fixed=False,
            ))
            frame[HEADER.size] = 200
            assert boot._conn is not None
            boot._conn.transport.write(bytes(frame))
            outcome = await boot.get("ok.dat")
            assert outcome.ok and outcome.payload == "fine"
            assert cluster.counters.get("wire_decode_errors", 0) >= 1
            await boot.close()
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_tcp_loopback_serves_the_same_protocol():
    async def run():
        cluster = await LiveCluster.start(
            RuntimeConfig(m=3, b=1, seed=2, tcp=True)
        )
        try:
            assert len(cluster.addresses) == len(cluster.nodes)
            client = await RuntimeClient(cluster, 4).connect()
            await client.insert("tcp.dat", b"\x00\x01binary\xff")
            got = await client.get("tcp.dat")
            assert got.ok and got.payload == b"\x00\x01binary\xff"
            upd = await client.update("tcp.dat", b"v2")
            assert upd.version == 2
            got = await client.get("tcp.dat")
            assert got.version == 2 and got.payload == b"v2"
            await client.close()
            await cluster.quiesce()
            system = replay_oplog(
                cluster.oplog, cluster.config, cluster.initial_live
            )
            assert diff_states(cluster, system).ok
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_duplicate_insert_is_refused_by_the_claim():
    """A second INSERT of a name, through another entry node, is the
    client's ``already inserted`` error; the oplog holds one insert."""

    async def run():
        cluster = await LiveCluster.start(RuntimeConfig(m=3, b=1, seed=4))
        try:
            first = await RuntimeClient(cluster, 0).connect()
            second = await RuntimeClient(cluster, 5).connect()
            await first.insert("once.dat", "v1")
            with pytest.raises(ClientError, match="already inserted"):
                await second.insert("once.dat", "v2")
            assert (await second.get("once.dat")).payload == "v1"
            await first.close()
            await second.close()
            await cluster.drain()
            assert [rec.kind for rec in cluster.oplog].count("insert") == 1
        finally:
            await cluster.shutdown()

    asyncio.run(run())


@pytest.mark.runtime
def test_churn_over_the_wire_matches_oracle():
    """Join / leave / crash driven as messages end in oracle state."""

    async def run():
        config = RuntimeConfig(m=4, b=1, seed=13)
        cluster = await LiveCluster.start(config)
        try:
            boot = await RuntimeClient(cluster, 1).connect()
            for i in range(6):
                await boot.insert(f"c-{i}", f"v:{i}")
            await boot.close()
            await cluster.drain()
            await cluster.leave(3)
            await cluster.crash(10)
            await cluster.join(3)
            await cluster.quiesce()
            system = replay_oplog(cluster.oplog, config, cluster.initial_live)
            system.check_invariants()
            report = diff_states(cluster, system)
            assert report.ok, report.render()
        finally:
            await cluster.shutdown()

    asyncio.run(run())
