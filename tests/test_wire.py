"""Wire format tests: framing, schema validation, round-trip properties."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usp.transport import FrameChannel, StreamHandle
from usp.wire import (
    MAX_FRAME_BYTES,
    MAX_PROTOCOLS,
    MAX_STREAMS,
    AuthData,
    Authenticate,
    Connect,
    Error,
    Initialize,
    MalformedKind,
    MalformedMessage,
    OversizeMessage,
    StreamRequest,
    Token,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    message_name,
    validate_structure,
)


def frame(obj) -> bytes:
    """Hand-rolled framing, independent of encode_frame."""
    body = json.dumps(obj).encode("utf-8")
    return struct.pack(">I", len(body)) + body


# --- canonical encodings ---


def test_error_payload_bytes():
    assert encode_payload(Error(error="x")) == b'{"message":"error","error":"x"}'


def test_connect_payload_bytes():
    assert encode_payload(Connect(application="echo")) == b'{"message":"connect","application":"echo"}'


def test_frame_layout_is_length_prefix_plus_payload():
    data = encode_frame(Error(error="x"))
    assert data[:4] == struct.pack(">I", len(data) - 4)
    assert json.loads(data[4:]) == {"message": "error", "error": "x"}


def test_initialize_decodes_from_documented_shape():
    msg = decode_frame(
        frame(
            {
                "message": "initialize",
                "authentication": ["psk"],
                "streams": [{"application": "echo", "token": ""}],
            }
        )
    )
    assert msg == Initialize(authentication=("psk",), streams=(StreamRequest("echo"),))
    # An empty token string means no token.
    assert msg.streams[0].token is None


def test_token_message_decodes():
    msg = validate_structure(
        {"message": "token", "streams": [{"application": "echo", "token": "t1"}]}
    )
    assert msg == Token(streams=(StreamRequest("echo", "t1"),))


def test_decoder_accepts_any_key_order():
    reordered = frame({"application": "echo", "message": "connect"})
    assert decode_frame(reordered) == Connect(application="echo")


# --- rejection behavior ---


def test_three_raw_bytes_is_truncated():
    with pytest.raises(MalformedMessage) as exc:
        decode_frame(b"\xff\xff\xff")
    assert exc.value.kind is MalformedKind.TRUNCATED


def test_declared_length_longer_than_body_is_truncated():
    with pytest.raises(MalformedMessage) as exc:
        decode_frame(struct.pack(">I", 100) + b"{}")
    assert exc.value.kind is MalformedKind.TRUNCATED


def test_oversize_declared_length():
    with pytest.raises(MalformedMessage) as exc:
        decode_frame(struct.pack(">I", MAX_FRAME_BYTES + 1))
    assert exc.value.kind is MalformedKind.OVERSIZE


def test_unknown_message_name():
    with pytest.raises(MalformedMessage) as exc:
        validate_structure({"message": "bogus"})
    assert exc.value.kind is MalformedKind.UNKNOWN_MESSAGE_TYPE


def test_unknown_extra_field_rejected():
    with pytest.raises(MalformedMessage) as exc:
        validate_structure({"message": "error", "error": "e", "extra": 1})
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION
    assert "extra" in exc.value.detail


def test_not_json_payload():
    body = b"GET / HTTP/1.1"
    with pytest.raises(MalformedMessage) as exc:
        decode_frame(struct.pack(">I", len(body)) + body)
    assert exc.value.kind is MalformedKind.NOT_JSON


@pytest.mark.parametrize(
    "literal",
    [b"0", b"-1.5", b"1e400", b"NaN", b"-Infinity", b"1" * 5000],
    ids=["int", "float", "huge-float", "NaN", "-Infinity", "5000-digits"],
)
def test_a_number_anywhere_is_a_schema_violation(literal):
    # No message holds a number, so the parser refuses it before any conversion.
    with pytest.raises(MalformedMessage) as exc:
        decode_payload(b'{"message":"error","error":[%s]}' % literal)
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION
    assert exc.value.detail == "number in message"


@pytest.mark.parametrize(
    "payload",
    [
        b'{"message":"connect","application":"echo","application":"echo"}',
        b'{"message":"token","streams":[{"application":"a","token":"t","token":"u"}]}',
    ],
    ids=["top-level", "stream-entry"],
)
def test_a_repeated_key_is_a_schema_violation(payload):
    with pytest.raises(MalformedMessage) as exc:
        decode_payload(payload)
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION
    assert exc.value.detail == "duplicate key"


def test_non_object_top_level():
    with pytest.raises(MalformedMessage) as exc:
        validate_structure(["not", "an", "object"])
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION


def test_empty_streams_rejected():
    with pytest.raises(MalformedMessage) as exc:
        validate_structure({"message": "token", "streams": []})
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION


def nested_initialize(depth: int) -> bytes:
    """A framed initialize whose authentication is arrays nested ``depth`` deep."""
    body = b'{"message":"initialize","authentication":%s%s,"streams":[]}' % (
        b"[" * depth,
        b"]" * depth,
    )
    return struct.pack(">I", len(body)) + body


# The deepest nesting whose frame stays within MAX_FRAME_BYTES.
DEEPEST_NESTING = (MAX_FRAME_BYTES - len(nested_initialize(0)) + 4) // 2


@pytest.mark.parametrize("depth", [1000, DEEPEST_NESTING])
def test_deep_nesting_is_malformed_not_a_recursion_error(depth):
    data = nested_initialize(depth)
    assert len(data) <= 4 + MAX_FRAME_BYTES
    with pytest.raises(MalformedMessage):
        decode_frame(data)


def streams_of(count: int, kind: str = "initialize") -> dict:
    if kind == "authentication":
        return dict(streams_of(1), authentication=[f"p{i}" for i in range(count)])
    streams = [{"application": f"app{i}"} for i in range(count)]
    if kind == "token":
        return {"message": "token", "streams": [dict(s, token="t") for s in streams]}
    return {"message": "initialize", "authentication": ["psk-cr"], "streams": streams}


@pytest.mark.parametrize("kind", ["initialize", "token", "authentication"])
def test_stream_count_is_capped(kind):
    field, cap = ("streams", MAX_STREAMS) if kind != "authentication" else (kind, MAX_PROTOCOLS)
    assert len(getattr(decode_frame(frame(streams_of(cap, kind))), field)) == cap
    with pytest.raises(MalformedMessage) as exc:
        decode_frame(frame(streams_of(cap + 1, kind)))
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION


def test_no_encoder_builds_more_streams_than_the_decoder_takes():
    streams = tuple(StreamRequest(f"app{i}", token="t") for i in range(MAX_STREAMS + 1))
    with pytest.raises(ValueError):
        Initialize(authentication=("psk-cr",), streams=streams)
    with pytest.raises(ValueError):
        Token(streams=streams)
    protocols = tuple(f"p{i}" for i in range(MAX_PROTOCOLS + 1))
    Initialize(authentication=protocols[:-1], streams=streams[:1])
    with pytest.raises(ValueError):
        Initialize(authentication=protocols, streams=streams[:1])


def test_empty_auth_with_tokenless_stream_rejected():
    with pytest.raises(MalformedMessage):
        validate_structure(
            {"message": "initialize", "authentication": [], "streams": [{"application": "a"}]}
        )
    # With a token on every stream the same shape is fine.
    msg = validate_structure(
        {
            "message": "initialize",
            "authentication": [],
            "streams": [{"application": "a", "token": "t"}],
        }
    )
    assert isinstance(msg, Initialize)


# Independent statement of the required fields of each message shape.
REQUIRED_FIELDS = {
    "initialize": {
        "authentication": ["psk"],
        "streams": [{"application": "echo"}],
    },
    "connect": {"application": "echo"},
    "authenticate": {"protocol": "psk"},
    "token": {"streams": [{"application": "echo", "token": "t"}]},
    "error": {"error": "boom"},
    "authdata": {"payload": "AAE="},
}


@pytest.mark.parametrize("name", sorted(REQUIRED_FIELDS))
def test_each_shape_accepts_its_full_form(name):
    payload = {"message": name, **REQUIRED_FIELDS[name]}
    assert message_name(validate_structure(payload)) == name


@pytest.mark.parametrize(
    "name,missing",
    [(name, key) for name, fields in REQUIRED_FIELDS.items() for key in fields],
)
def test_any_removed_required_field_fails(name, missing):
    payload = {"message": name, **REQUIRED_FIELDS[name]}
    del payload[missing]
    with pytest.raises(MalformedMessage) as exc:
        validate_structure(payload)
    assert exc.value.kind is MalformedKind.SCHEMA_VIOLATION


@pytest.mark.parametrize("name", sorted(REQUIRED_FIELDS))
def test_any_added_unknown_field_fails(name):
    payload = {"message": name, **REQUIRED_FIELDS[name], "surprise": True}
    with pytest.raises(MalformedMessage):
        validate_structure(payload)


def test_missing_stream_application_fails():
    with pytest.raises(MalformedMessage) as exc:
        validate_structure({"message": "token", "streams": [{"token": "t"}]})
    assert "application" in exc.value.detail


def test_authdata_payload_must_be_base64():
    with pytest.raises(MalformedMessage):
        validate_structure({"message": "authdata", "payload": "not base64!!"})
    msg = validate_structure({"message": "authdata", "payload": "aGk="})
    assert msg == AuthData(payload=b"hi")


# --- name rules ---


def test_name_rules():
    with pytest.raises(ValueError):
        Connect(application="")
    with pytest.raises(ValueError):
        Connect(application="has\ncontrol")
    with pytest.raises(ValueError):
        Connect(application="x" * 256)
    # 255 bytes is the limit, and multibyte characters count in bytes.
    Connect(application="x" * 255)
    with pytest.raises(ValueError):
        Connect(application="é" * 200)


def test_encode_oversize_raises():
    with pytest.raises(OversizeMessage):
        encode_frame(Error(error="x" * (MAX_FRAME_BYTES + 10)))


def test_trailing_bytes_after_frame_rejected():
    data = encode_frame(Error(error="x")) + b"junk"
    with pytest.raises(MalformedMessage):
        decode_frame(data)


# --- round-trip and totality properties ---

_names = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1, max_size=24
)
_tokens = st.one_of(st.none(), _names)
_stream_requests = st.builds(StreamRequest, application=_names, token=_tokens)
_tokened_requests = st.builds(StreamRequest, application=_names, token=_names)

_initialize = st.one_of(
    st.builds(
        Initialize,
        authentication=st.lists(_names, min_size=1, max_size=4).map(tuple),
        streams=st.lists(_stream_requests, min_size=1, max_size=4).map(tuple),
    ),
    st.builds(
        Initialize,
        authentication=st.just(()),
        streams=st.lists(_tokened_requests, min_size=1, max_size=4).map(tuple),
    ),
)

_messages = st.one_of(
    _initialize,
    st.builds(Connect, application=_names),
    st.builds(Authenticate, protocol=_names),
    st.builds(Token, streams=st.lists(_stream_requests, min_size=1, max_size=4).map(tuple)),
    st.builds(Error, error=st.text(max_size=200)),
    st.builds(AuthData, payload=st.binary(max_size=200)),
)


@given(_messages)
def test_round_trip(msg):
    assert decode_frame(encode_frame(msg)) == msg


@given(st.binary(max_size=300))
def test_decode_is_total(data):
    try:
        decode_frame(data)
    except MalformedMessage:
        pass


@given(st.dictionaries(st.text(max_size=10), st.one_of(st.text(max_size=10), st.integers())))
def test_validate_structure_is_total_on_objects(obj):
    try:
        validate_structure(obj)
    except MalformedMessage:
        pass


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@st.composite
def _shapes_with_a_json_field(draw):
    """A valid payload of each shape with one field replaced by a JSON value."""
    name = draw(st.sampled_from(sorted(REQUIRED_FIELDS)))
    shape = json.loads(json.dumps({"message": name, **REQUIRED_FIELDS[name]}))
    holder = shape
    if "streams" in shape and draw(st.booleans()):
        holder = shape["streams"][0]
    holder[draw(st.sampled_from(sorted(holder)))] = draw(_json_values)
    return shape


@given(st.one_of(_json_values, _shapes_with_a_json_field()))
def test_decode_payload_is_total_on_nested_json(value):
    try:
        msg = decode_payload(json.dumps(value).encode())
    except MalformedMessage:
        return
    assert isinstance(msg, (Initialize, Connect, Authenticate, Token, Error, AuthData))


class _Chunks(StreamHandle):
    """A stream that returns scripted chunks, never more than asked for."""

    def __init__(self, chunks):
        self.chunks = [c for c in chunks if c]

    def read(self, n, timeout=None):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > n:
            self.chunks.insert(0, chunk[n:])
        return chunk[:n]


def _recv_all(chunks):
    chan = FrameChannel(_Chunks(chunks))
    decoded = []
    while (msg := chan.recv()) is not None:
        decoded.append(msg)
    return decoded


@given(st.lists(_messages, min_size=1, max_size=5), st.data())
def test_chunking_independence(msgs, data):
    """Any re-chunking of a frame sequence decodes to the same messages."""
    stream = b"".join(encode_frame(m) for m in msgs)
    cuts = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=len(stream)), max_size=8))
    )
    bounds = [0] + cuts + [len(stream)]
    assert _recv_all(stream[a:b] for a, b in zip(bounds, bounds[1:])) == msgs


@settings(max_examples=25)
@given(st.lists(_messages, min_size=2, max_size=3))
def test_byte_at_a_time_decoding(msgs):
    stream = b"".join(encode_frame(m) for m in msgs)
    assert _recv_all(stream[i : i + 1] for i in range(len(stream))) == msgs


def test_control_class_is_exactly_unicode_category_cc():
    import unicodedata

    from usp.wire import _CONTROL

    every = "".join(map(chr, range(0x110000)))
    cc = {ch for ch in every if unicodedata.category(ch) == "Cc"}
    assert set(_CONTROL.findall(every)) == cc
    assert len(cc) == 65


@given(_messages)
def test_encode_payload_and_message_name_match_the_wire_dict(msg):
    wire = msg.to_wire_dict()
    assert encode_payload(msg) == json.dumps(
        wire, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    assert message_name(msg) == wire["message"]


def test_payload_exactly_at_limit_is_accepted():
    error_text = "x" * (MAX_FRAME_BYTES - len(b'{"message":"error","error":""}'))
    data = encode_frame(Error(error=error_text))
    assert len(data) == 4 + MAX_FRAME_BYTES
    assert decode_frame(data) == Error(error=error_text)
