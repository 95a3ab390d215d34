"""Authentication protocols, negotiation, and identity tokens.

Token record layout (all integers big-endian), signed then base64url-encoded:

    u16 identity_len | identity (UTF-8)
    u16 application_len | application (UTF-8)
    u64 issued_at (seconds since epoch)
    u64 expires_at (seconds since epoch)
    nonce (16 bytes)
    signature (32 bytes, HMAC-SHA-256 over all preceding bytes)

Tokens are bearer credentials: self-contained, bound to one application,
multi-use until expiry unless the issuing server runs a nonce cache for
single-use mode. The signing secret never leaves the server, so a token
validates only where it was issued.
"""

from __future__ import annotations

import base64
import binascii
import hmac
import json
import random
import struct
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import UspError

Clock = Callable[[], float]

NONCE_BYTES = 16
SIGNATURE_BYTES = 32
DEFAULT_TOKEN_TTL = 3600

ANONYMOUS_IDENTITY = "anonymous"

PSK_PROTOCOL_NAME = "psk-cr"
_CHALLENGE_BYTES = 32
# Checked against when the identity is unknown, so that a rejection costs
# one HMAC either way and its timing does not say which identities exist.
_DUMMY_PSK = bytes(32)


class TokenError(UspError):
    """Base class for token validation failures."""


class TokenMalformed(TokenError):
    pass


class BadSignature(TokenError):
    pass


class TokenExpired(TokenError):
    pass


class ApplicationMismatch(TokenError):
    pass


class AuthProtocolError(UspError):
    """Misuse of an authentication protocol handle."""


class AuthMethod(Enum):
    NONE_REQUIRED = "none_required"
    PROTOCOL = "protocol"
    TOKEN = "token"


@dataclass(frozen=True)
class IdentityContext:
    """The verified identity handed to an application with its stream."""

    identity: str
    application: str
    method: AuthMethod
    authenticated_at: float
    protocol: str | None = None

    def __post_init__(self) -> None:
        if self.method is not AuthMethod.NONE_REQUIRED and not self.identity:
            raise ValueError("identity is empty")
        if self.method is AuthMethod.PROTOCOL and not self.protocol:
            raise ValueError("protocol method without protocol name")

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "application": self.application,
            "method": self.method.value,
            "protocol": self.protocol,
            "authenticated_at": self.authenticated_at,
        }


def anonymous_context(application: str, clock: Clock) -> IdentityContext:
    return IdentityContext(
        identity=ANONYMOUS_IDENTITY,
        application=application,
        method=AuthMethod.NONE_REQUIRED,
        authenticated_at=clock(),
    )


# --- negotiation ---


def negotiate(client_offered: Sequence[str], server_supported: Sequence[str]) -> str | None:
    """Pick the first server-preferred protocol the client also offered.

    Server order wins; the client's ordering carries no weight. Returns
    None when the two lists share nothing.
    """
    offered = set(client_offered)
    for name in server_supported:
        if name in offered:
            return name
    return None


# --- identity tokens ---


@dataclass(frozen=True)
class IdentityToken:
    """Decoded form of a signed bearer token."""

    identity: str
    application: str
    issued_at: int
    expires_at: int
    nonce: bytes
    signature: bytes

    def encode(self) -> str:
        record = _pack_record(
            self.identity, self.application, self.issued_at, self.expires_at, self.nonce
        )
        return base64.urlsafe_b64encode(record + self.signature).decode("ascii")


_U16 = struct.Struct(">H")
_TIMES = struct.Struct(">QQ")
# Issue and expiry times, nonce and signature: the fixed-size record tail.
_TAIL_BYTES = _TIMES.size + NONCE_BYTES + SIGNATURE_BYTES


def _pack_record(
    identity: str, application: str, issued_at: int, expires_at: int, nonce: bytes
) -> bytes:
    """The signed part of a token record: everything but the signature."""
    ident = identity.encode("utf-8")
    app = application.encode("utf-8")
    return b"".join(
        (
            _U16.pack(len(ident)),
            ident,
            _U16.pack(len(app)),
            app,
            _TIMES.pack(issued_at, expires_at),
            nonce,
        )
    )


def _sign(record: bytes, secret: bytes) -> bytes:
    return hmac.digest(secret, record, "sha256")


def issue_token(
    identity: str,
    application: str,
    ttl: int,
    clock: Clock,
    secret: bytes,
    rng: random.Random,
) -> IdentityToken:
    """Issue a signed token binding ``identity`` to ``application`` for ``ttl`` seconds."""
    if not identity:
        raise ValueError("identity is empty")
    if ttl <= 0:
        raise ValueError("ttl must be positive")
    issued_at = int(clock())
    expires_at = issued_at + int(ttl)
    nonce = rng.randbytes(NONCE_BYTES)
    record = _pack_record(identity, application, issued_at, expires_at, nonce)
    return IdentityToken(
        identity=identity,
        application=application,
        issued_at=issued_at,
        expires_at=expires_at,
        nonce=nonce,
        signature=_sign(record, secret),
    )


def _parse_token(token: str) -> tuple[IdentityToken, bytes]:
    """The decoded token and its signed record bytes; structure checks only."""
    try:
        raw = base64.urlsafe_b64decode(token.encode("ascii"))
    except (binascii.Error, UnicodeEncodeError, ValueError):
        raise TokenMalformed("not base64") from None
    size = len(raw)
    # Each length is checked before the bytes it covers are read, so the
    # first fault in record order is the one reported.
    if size < 2:
        raise TokenMalformed("record too short")
    (ident_len,) = _U16.unpack_from(raw, 0)
    ident_end = 2 + ident_len
    if ident_end > size:
        raise TokenMalformed("record too short")
    try:
        identity = raw[2:ident_end].decode("utf-8")
    except UnicodeDecodeError:
        raise TokenMalformed("identity is not UTF-8") from None
    app_at = ident_end + 2
    if app_at > size:
        raise TokenMalformed("record too short")
    (app_len,) = _U16.unpack_from(raw, ident_end)
    app_end = app_at + app_len
    if app_end > size:
        raise TokenMalformed("record too short")
    try:
        application = raw[app_at:app_end].decode("utf-8")
    except UnicodeDecodeError:
        raise TokenMalformed("application is not UTF-8") from None
    if app_end + _TAIL_BYTES > size:
        raise TokenMalformed("record too short")
    if app_end + _TAIL_BYTES < size:
        raise TokenMalformed("trailing bytes in record")
    issued_at, expires_at = _TIMES.unpack_from(raw, app_end)
    if not identity:
        raise TokenMalformed("identity is empty")
    if expires_at <= issued_at:
        raise TokenMalformed("expiry not after issuance")
    signed_end = size - SIGNATURE_BYTES
    decoded = IdentityToken(
        identity=identity,
        application=application,
        issued_at=issued_at,
        expires_at=expires_at,
        nonce=raw[signed_end - NONCE_BYTES : signed_end],
        signature=raw[signed_end:],
    )
    return decoded, raw[:signed_end]


def decode_token(token: str) -> IdentityToken:
    """Parse a token string without verifying anything but its structure."""
    return _parse_token(token)[0]


def validate_token(token: str, application: str, clock: Clock, secret: bytes) -> IdentityContext:
    """Verify a presented token for ``application``.

    Checks, in order: structure, signature, expiry (a token is dead at and
    after its expires_at instant), application binding.
    """
    decoded, record = _parse_token(token)
    if not hmac.compare_digest(decoded.signature, _sign(record, secret)):
        raise BadSignature("signature mismatch")
    if clock() >= decoded.expires_at:
        raise TokenExpired(f"expired at {decoded.expires_at}")
    if decoded.application != application:
        raise ApplicationMismatch(
            f"token is bound to {decoded.application!r}, presented for {application!r}"
        )
    return IdentityContext(
        identity=decoded.identity,
        application=application,
        method=AuthMethod.TOKEN,
        authenticated_at=clock(),
    )


def peek_token_identity(token: str) -> str | None:
    """Best-effort unverified read of the identity inside a token string."""
    try:
        return decode_token(token).identity
    except TokenError:
        return None


class NonceCache:
    """Tracks token nonces already accepted, for single-use token mode."""

    def __init__(self) -> None:
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()

    def first_use(self, nonce: bytes) -> bool:
        with self._lock:
            if nonce in self._seen:
                return False
            self._seen.add(nonce)
            return True


# --- pluggable authentication protocols ---


class AuthStatus(Enum):
    PENDING = "pending"
    SUCCESS = "success"
    FAIL = "fail"


@dataclass(frozen=True)
class AuthStep:
    """Result of advancing an authentication exchange by one step."""

    status: AuthStatus
    outgoing: bytes | None = None
    identity: str | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.status is AuthStatus.SUCCESS and not self.identity:
            raise ValueError("success without identity")

    @property
    def terminal(self) -> bool:
        return self.status is not AuthStatus.PENDING


@dataclass(frozen=True)
class Credentials:
    """Client-side secret for an authentication protocol run."""

    identity: str
    key: bytes

    def __post_init__(self) -> None:
        # No protocol can report success for an empty identity.
        if not self.identity:
            raise ValueError("identity is empty")


class AuthHandle:
    """Single-session, single-threaded state of one authentication run.

    Subclasses implement _advance; this base enforces the terminal-state
    and round-count contracts shared by every protocol.
    """

    def __init__(self, max_rounds: int):
        self._max_rounds = max_rounds
        self._rounds = 0
        self._done = False

    def step(self, incoming: bytes | None) -> AuthStep:
        if self._done:
            raise AuthProtocolError("step called after terminal status")
        self._rounds += 1
        if self._rounds > self._max_rounds:
            result = AuthStep(status=AuthStatus.FAIL, reason="round overflow")
        else:
            result = self._advance(incoming)
        if result.terminal:
            self._done = True
        return result

    def _advance(self, incoming: bytes | None) -> AuthStep:
        raise NotImplementedError


class AuthProtocol:
    """A named authentication protocol usable by either side of a session.

    server() starts the verifying side of one run, drawing on the server's
    RNG; client() starts the proving side with the caller's credentials.
    """

    name: str = ""
    max_rounds: int = 8

    def server(self, rng: random.Random) -> AuthHandle:
        raise NotImplementedError

    def client(self, credentials: Credentials | None) -> AuthHandle:
        raise NotImplementedError


class _PskServerHandle(AuthHandle):
    def __init__(self, secrets: Mapping[str, bytes], rng: random.Random, max_rounds: int):
        super().__init__(max_rounds)
        self._secrets = secrets
        self._rng = rng
        self._challenge: bytes | None = None

    def _advance(self, incoming: bytes | None) -> AuthStep:
        if self._challenge is None:
            self._challenge = self._rng.randbytes(_CHALLENGE_BYTES)
            return AuthStep(status=AuthStatus.PENDING, outgoing=self._challenge)
        if incoming is None or len(incoming) <= SIGNATURE_BYTES:
            return AuthStep(status=AuthStatus.FAIL, reason="malformed response")
        mac = incoming[-SIGNATURE_BYTES:]
        try:
            identity = incoming[:-SIGNATURE_BYTES].decode("utf-8")
        except UnicodeDecodeError:
            return AuthStep(status=AuthStatus.FAIL, reason="malformed response")
        key = self._secrets.get(identity)
        expected = hmac.digest(_DUMMY_PSK if key is None else key, self._challenge, "sha256")
        matched = hmac.compare_digest(mac, expected)
        if key is None:
            return AuthStep(status=AuthStatus.FAIL, reason="unknown identity")
        if not matched:
            return AuthStep(status=AuthStatus.FAIL, reason="bad response")
        return AuthStep(status=AuthStatus.SUCCESS, identity=identity)


class _PskClientHandle(AuthHandle):
    def __init__(self, credentials: Credentials | None, max_rounds: int):
        super().__init__(max_rounds)
        self._credentials = credentials
        self._started = False

    def _advance(self, incoming: bytes | None) -> AuthStep:
        if self._credentials is None:
            return AuthStep(status=AuthStatus.FAIL, reason="no credentials")
        if not self._started and incoming is None:
            self._started = True
            return AuthStep(status=AuthStatus.PENDING)
        if incoming is None:
            return AuthStep(status=AuthStatus.FAIL, reason="missing challenge")
        identity = self._credentials.identity
        mac = hmac.digest(self._credentials.key, incoming, "sha256")
        return AuthStep(
            status=AuthStatus.SUCCESS,
            outgoing=identity.encode("utf-8") + mac,
            identity=identity,
        )


class PskChallengeResponse(AuthProtocol):
    """Built-in pre-shared-key challenge-response.

    Two authenticator rounds: the server sends a 32-byte random challenge,
    the client answers with identity bytes followed by
    HMAC-SHA-256(key, challenge). The server looks the identity up in its
    secret store and verifies the digest.
    """

    name = PSK_PROTOCOL_NAME
    max_rounds = 3

    def __init__(self, shared_secrets: Mapping[str, bytes] | None = None):
        self._secrets = dict(shared_secrets or {})

    def server(self, rng: random.Random) -> AuthHandle:
        return _PskServerHandle(self._secrets, rng, self.max_rounds)

    def client(self, credentials: Credentials | None) -> AuthHandle:
        return _PskClientHandle(credentials, self.max_rounds)


def psk_protocol(shared_secrets: Mapping[str, bytes] | None = None) -> PskChallengeResponse:
    return PskChallengeResponse(shared_secrets)


def make_registry(*protocols: AuthProtocol) -> dict[str, AuthProtocol]:
    registry: dict[str, AuthProtocol] = {}
    for proto in protocols:
        if not proto.name:
            raise ValueError("protocol has no name")
        if proto.name in registry:
            raise ValueError(f"duplicate protocol name: {proto.name!r}")
        registry[proto.name] = proto
    return registry


def load_psk_store(path: str | Path) -> dict[str, bytes]:
    """Read a JSON credential store mapping identity to hex-encoded key."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("PSK store must be a JSON object")
    store = {}
    for identity, key_hex in data.items():
        if not isinstance(key_hex, str):
            raise ValueError(f"key for {identity!r} is not a hex string")
        store[identity] = bytes.fromhex(key_hex)
    return store
