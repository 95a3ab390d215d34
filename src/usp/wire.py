"""USP wire format: framing, message types, and structural validation.

Frame layout:

    [ length: u32 big-endian ][ payload: UTF-8 JSON object ]

``length`` counts payload bytes only and may not exceed ``MAX_FRAME_BYTES``.
Every payload is a single JSON object carrying a ``"message"`` discriminator
equal to the lowercase variant name. Encoders emit keys in the canonical
order given by each variant's ``to_wire_dict``; decoders accept any order
but reject unknown keys, unknown message names, and missing or mistyped
fields. That strictness is the point: a frame is either exactly one of the
six known shapes or it is malformed.
"""

from __future__ import annotations

import base64
import binascii
import json
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Union

from .errors import UspError

MAX_FRAME_BYTES = 65536
HEADER_SIZE = 4

_HEADER = struct.Struct(">I")

# Longest permitted application/protocol name, in UTF-8 bytes.
MAX_NAME_BYTES = 255

# Most streams one initialize or token may carry, and most protocols one
# initialize may offer: they bound an anonymous peer's work.
MAX_STREAMS = 16
MAX_PROTOCOLS = 16

# Unicode category Cc: C0 controls, DEL and C1 controls. The stability
# policy fixes this set, so a character class matches it exactly.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")

_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


class MalformedKind(Enum):
    """Diagnostic classification for frames that fail to decode."""

    TRUNCATED = "truncated"
    OVERSIZE = "oversize"
    NOT_JSON = "not_json"
    UNKNOWN_MESSAGE_TYPE = "unknown_message_type"
    SCHEMA_VIOLATION = "schema_violation"


class MalformedMessage(UspError):
    """Raised when bytes cannot be decoded into a valid message."""

    def __init__(self, kind: MalformedKind, detail: str):
        self.kind = kind
        self.detail = detail
        super().__init__(f"{kind.value}: {detail}")


class OversizeMessage(UspError):
    """Raised when encoding a message whose payload exceeds MAX_FRAME_BYTES."""


def name_error(value: str) -> str | None:
    """Why ``value`` is not a legal application/protocol name, or None if it is."""
    if not value:
        return "name is empty"
    if len(value.encode("utf-8")) > MAX_NAME_BYTES:
        return f"name exceeds {MAX_NAME_BYTES} bytes"
    if _CONTROL.search(value):
        return "name contains control characters"
    return None


def _check_name(value: str, what: str) -> None:
    err = name_error(value)
    if err is not None:
        raise ValueError(f"{what}: {err}")


def _check_streams(streams: tuple) -> None:
    if not streams:
        raise ValueError("streams is empty")
    if len(streams) > MAX_STREAMS:
        raise ValueError(f"{len(streams)} streams, limit {MAX_STREAMS}")


@dataclass(frozen=True)
class StreamRequest:
    """One requested application stream, optionally carrying a token.

    An empty token string is equivalent to no token at all.
    """

    application: str
    token: str | None = None

    def __post_init__(self) -> None:
        _check_name(self.application, "application")
        if self.token == "":
            object.__setattr__(self, "token", None)
        if self.token is not None and _CONTROL.search(self.token):
            raise ValueError("token contains control characters")

    def to_wire_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {"application": self.application}
        if self.token is not None:
            entry["token"] = self.token
        return entry


@dataclass(frozen=True)
class Initialize:
    """Client request to open one or more application streams."""

    authentication: tuple[str, ...]
    streams: tuple[StreamRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "authentication", tuple(self.authentication))
        object.__setattr__(self, "streams", tuple(self.streams))
        if len(self.authentication) > MAX_PROTOCOLS:
            raise ValueError(f"{len(self.authentication)} protocols, limit {MAX_PROTOCOLS}")
        for proto in self.authentication:
            _check_name(proto, "protocol")
        _check_streams(self.streams)
        if not self.authentication and any(s.token is None for s in self.streams):
            raise ValueError("empty authentication list with tokenless stream")

    def to_wire_dict(self) -> dict[str, Any]:
        return {
            "message": "initialize",
            "authentication": list(self.authentication),
            "streams": [s.to_wire_dict() for s in self.streams],
        }


@dataclass(frozen=True)
class Connect:
    """Server confirmation that the stream now belongs to the application."""

    application: str

    def __post_init__(self) -> None:
        _check_name(self.application, "application")

    def to_wire_dict(self) -> dict[str, Any]:
        return {"message": "connect", "application": self.application}


@dataclass(frozen=True)
class Authenticate:
    """Server instruction naming the negotiated authentication protocol."""

    protocol: str

    def __post_init__(self) -> None:
        _check_name(self.protocol, "protocol")

    def to_wire_dict(self) -> dict[str, Any]:
        return {"message": "authenticate", "protocol": self.protocol}


@dataclass(frozen=True)
class Token:
    """Server-issued identity tokens, one per requested stream."""

    streams: tuple[StreamRequest, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", tuple(self.streams))
        _check_streams(self.streams)

    def to_wire_dict(self) -> dict[str, Any]:
        return {"message": "token", "streams": [s.to_wire_dict() for s in self.streams]}


@dataclass(frozen=True)
class Error:
    """Terminal error report; the sender closes after transmitting it."""

    error: str

    def to_wire_dict(self) -> dict[str, Any]:
        return {"message": "error", "error": self.error}


@dataclass(frozen=True)
class AuthData:
    """Opaque authenticator bytes, carried as base64 text on the wire."""

    payload: bytes = field(default=b"")

    def to_wire_dict(self) -> dict[str, Any]:
        return {"message": "authdata", "payload": base64.b64encode(self.payload).decode("ascii")}


Message = Union[Initialize, Connect, Authenticate, Token, Error, AuthData]

MESSAGE_NAMES = ("initialize", "connect", "authenticate", "token", "error", "authdata")

_NAME_OF = dict(zip((Initialize, Connect, Authenticate, Token, Error, AuthData), MESSAGE_NAMES))


def message_name(msg: Message) -> str:
    return _NAME_OF[type(msg)]


def encode_payload(msg: Message) -> bytes:
    """Serialize a message to its canonical JSON payload bytes."""
    return _ENCODER.encode(msg.to_wire_dict()).encode("utf-8")


def encode_frame(msg: Message) -> bytes:
    """Encode a message as a complete wire frame.

    Raises OversizeMessage if the serialized payload exceeds MAX_FRAME_BYTES.
    """
    payload = encode_payload(msg)
    if len(payload) > MAX_FRAME_BYTES:
        raise OversizeMessage(f"payload is {len(payload)} bytes, limit {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """The payload length declared by the frame header that ``header`` starts with.

    Raises MalformedMessage(OVERSIZE) above MAX_FRAME_BYTES, so a reader
    can refuse a frame before it buffers the body.
    """
    (length,) = _HEADER.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise MalformedMessage(MalformedKind.OVERSIZE, f"declared length {length}")
    return length


def decode_frame(data: bytes) -> Message:
    """Decode exactly one complete frame.

    Total on any byte input: either returns a validated Message or raises
    MalformedMessage with a diagnostic kind.
    """
    if len(data) < HEADER_SIZE:
        raise MalformedMessage(MalformedKind.TRUNCATED, "incomplete length prefix")
    length = frame_length(data)
    body = data[HEADER_SIZE:]
    if len(body) < length:
        raise MalformedMessage(
            MalformedKind.TRUNCATED, f"declared {length} bytes, got {len(body)}"
        )
    if len(body) > length:
        raise MalformedMessage(
            MalformedKind.SCHEMA_VIOLATION, f"{len(body) - length} trailing bytes after frame"
        )
    return decode_payload(bytes(body))


def decode_payload(payload: bytes) -> Message:
    """Decode and validate one JSON payload (no length prefix)."""
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedMessage(MalformedKind.NOT_JSON, "payload is not UTF-8") from None
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedMessage(MalformedKind.NOT_JSON, f"invalid JSON: {exc.msg}") from None
    except RecursionError:
        # No valid message nests deeper than 3; the parser gives up near 1000.
        raise MalformedMessage(MalformedKind.NOT_JSON, "JSON nested too deeply") from None
    return validate_structure(value)


def _require_str(obj: dict[str, Any], key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{where}.{key} is not a string")
    return value


def _check_keys(obj: dict[str, Any], required: set[str], optional: set[str], where: str) -> None:
    if obj.keys() == required:
        return
    missing = required - obj.keys()
    if missing:
        raise MalformedMessage(
            MalformedKind.SCHEMA_VIOLATION, f"{where} missing field: {sorted(missing)[0]}"
        )
    unknown = obj.keys() - required - optional
    if unknown:
        raise MalformedMessage(
            MalformedKind.SCHEMA_VIOLATION, f"{where} has unknown field: {sorted(unknown)[0]}"
        )


def _validate_streams(value: Any, where: str) -> tuple[StreamRequest, ...]:
    if not isinstance(value, list):
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{where} is not an array")
    if not value:
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{where} is empty")
    if len(value) > MAX_STREAMS:
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{where} is too long")
    entries = []
    for i, entry in enumerate(value):
        path = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{path} is not an object")
        _check_keys(entry, {"application"}, {"token"}, path)
        application = _require_str(entry, "application", path)
        token = None
        if "token" in entry:
            token = _require_str(entry, "token", path)
        try:
            entries.append(StreamRequest(application=application, token=token))
        except ValueError as exc:
            raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{path}: {exc}") from None
    return tuple(entries)


def validate_structure(value: Any) -> Message:
    """Validate a parsed JSON value against the known message shapes.

    Accepts exactly the six wire shapes; anything else raises
    MalformedMessage with kind UNKNOWN_MESSAGE_TYPE or SCHEMA_VIOLATION
    and a field path in the detail.
    """
    if not isinstance(value, dict):
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, "top-level value is not an object")
    if "message" not in value:
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, "missing field: message")
    name = value["message"]
    if not isinstance(name, str):
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, "message is not a string")
    if name not in MESSAGE_NAMES:
        raise MalformedMessage(MalformedKind.UNKNOWN_MESSAGE_TYPE, f"unknown message: {name!r}")

    try:
        if name == "initialize":
            _check_keys(value, {"message", "authentication", "streams"}, set(), "initialize")
            auth = value["authentication"]
            if isinstance(auth, list) and len(auth) > MAX_PROTOCOLS:
                raise MalformedMessage(
                    MalformedKind.SCHEMA_VIOLATION, "initialize.authentication is too long"
                )
            if not isinstance(auth, list) or any(not isinstance(p, str) for p in auth):
                raise MalformedMessage(
                    MalformedKind.SCHEMA_VIOLATION,
                    "initialize.authentication is not an array of strings",
                )
            streams = _validate_streams(value["streams"], "initialize.streams")
            return Initialize(authentication=tuple(auth), streams=streams)
        if name == "connect":
            _check_keys(value, {"message", "application"}, set(), "connect")
            return Connect(application=_require_str(value, "application", "connect"))
        if name == "authenticate":
            _check_keys(value, {"message", "protocol"}, set(), "authenticate")
            return Authenticate(protocol=_require_str(value, "protocol", "authenticate"))
        if name == "token":
            _check_keys(value, {"message", "streams"}, set(), "token")
            return Token(streams=_validate_streams(value["streams"], "token.streams"))
        if name == "error":
            _check_keys(value, {"message", "error"}, set(), "error")
            return Error(error=_require_str(value, "error", "error"))
        # authdata
        _check_keys(value, {"message", "payload"}, set(), "authdata")
        text = _require_str(value, "payload", "authdata")
        try:
            payload = base64.b64decode(text.encode("ascii"), validate=True)
        except (binascii.Error, UnicodeEncodeError):
            raise MalformedMessage(
                MalformedKind.SCHEMA_VIOLATION, "authdata.payload is not base64"
            ) from None
        return AuthData(payload=payload)
    except ValueError as exc:
        raise MalformedMessage(MalformedKind.SCHEMA_VIOLATION, f"{name}: {exc}") from None
