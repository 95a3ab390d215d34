"""Pure client and server session state machines.

Each machine is a step function from (state, event, env) to
(state, ordered actions). It performs no I/O: actions are the frames to
transmit and the auth runs to begin, for a driver to execute, and the
phase alone says how the session ended (HandedOff, Connected or Closed).
The server machine encodes the gate this whole protocol exists for: the
machine enters HandedOff only when the requested application needs no
authentication or the presented token validates, and no data waits behind
the initialize. It asks that last, through FrameReceived.data_behind (for a
driver, a pending() peek at handoff), so bytes that arrive while the
predicates run are seen too.

Both machines handle a timeout, a malformed frame, an error frame and a lost
connection (PeerClosed) alike in every phase (_shared_step); each step
function handles only its own phases.

The server evaluates its predicates in a fixed order for every initialize:
hosted, requires-auth, token-valid, negotiate. Environments expose those
predicates as methods so tests can observe the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, Union

from . import auth as auth_mod
from .auth import (
    DEFAULT_TOKEN_TTL,
    AuthMethod,
    AuthStatus,
    AuthStep,
    Clock,
    IdentityContext,
    NonceCache,
    TokenError,
    anonymous_context,
    negotiate,
    peek_token_identity,
)
from .errors import UspError
from .wire import (
    AuthData,
    Authenticate,
    Connect,
    Error,
    Initialize,
    MalformedKind,
    Message,
    StreamRequest,
    Token,
    message_name,
)

DEFAULT_HANDSHAKE_TIMEOUT = 10.0

# Canonical error texts, fixed so clients can tell the failure modes apart.
NO_SHARED_PROTOCOL_TEXT = "no shared authentication protocol"
NOT_HOSTED_TEXT = "application not hosted"
EARLY_DATA_TEXT = "protocol violation: application data before connect"


class SessionError(UspError):
    """Raised when a machine is driven outside its contract."""


class CloseCause(Enum):
    NOT_HOSTED = "not_hosted"
    NO_SHARED_PROTOCOL = "no_shared_protocol"
    AUTH_FAILED = "auth_failed"
    PROTOCOL_VIOLATION = "protocol_violation"
    MALFORMED = "malformed"
    TIMEOUT = "timeout"
    REMOTE_ERROR = "remote_error"
    CONNECTION_LOST = "connection_lost"
    TOKEN_ACQUIRED = "token_acquired"


# --- events ---


@dataclass(frozen=True)
class Start:
    """Kick-off for the client machine; it owns the first transmission."""


@dataclass(frozen=True)
class FrameReceived:
    message: Message
    # Asked only where the frame would hand off: do bytes already wait behind it?
    data_behind: Callable[[], bool] = lambda: False


@dataclass(frozen=True)
class FrameMalformed:
    kind: MalformedKind


@dataclass(frozen=True)
class AuthStepResult:
    step: AuthStep


@dataclass(frozen=True)
class HandshakeTimeout:
    pass


@dataclass(frozen=True)
class PeerClosed:
    detail: str


SessionEvent = Union[Start, FrameReceived, FrameMalformed, AuthStepResult, HandshakeTimeout, PeerClosed]


# --- actions ---


@dataclass(frozen=True)
class Send:
    message: Message


@dataclass(frozen=True)
class BeginAuth:
    protocol: str


SessionAction = Union[Send, BeginAuth]


# --- server machine ---


@dataclass(frozen=True)
class AwaitInitialize:
    pass


@dataclass(frozen=True)
class AuthInProgress:
    protocol: str
    streams: tuple[StreamRequest, ...]


@dataclass(frozen=True)
class AwaitReinitialize:
    identity: str
    protocol: str


@dataclass(frozen=True)
class HandedOff:
    context: IdentityContext


@dataclass(frozen=True)
class Closed:
    cause: CloseCause
    detail: str | None = None


ServerPhase = Union[AwaitInitialize, AuthInProgress, AwaitReinitialize, HandedOff, Closed]


@dataclass
class ServerEnv:
    """Server-side policy and capabilities consulted by the machine.

    ``applications`` maps each hosted application name to whether it
    requires authentication. With a ``nonce_cache`` a token is accepted
    only on the first use of its nonce (single-use tokens).
    """

    applications: Mapping[str, bool]
    supported_auth: tuple[str, ...]
    token_secret: bytes
    clock: Clock
    rng: random.Random
    token_ttl: int = DEFAULT_TOKEN_TTL
    nonce_cache: NonceCache | None = None

    def application_hosted(self, name: str) -> bool:
        return name in self.applications

    def requires_auth(self, name: str) -> bool:
        return bool(self.applications[name])

    def token_valid(self, token: str | None, application: str) -> IdentityContext | None:
        if token is None:
            return None
        try:
            ctx = auth_mod.validate_token(token, application, self.clock, self.token_secret)
            if self.nonce_cache is not None and not self.nonce_cache.first_use(
                auth_mod.decode_token(token).nonce
            ):
                return None
            return ctx
        except TokenError:
            return None

    def negotiate_auth_protocol(self, offered: Sequence[str]) -> str | None:
        return negotiate(offered, self.supported_auth)

    def issue_token(self, identity: str, application: str) -> str:
        return auth_mod.issue_token(
            identity, application, self.token_ttl, self.clock, self.token_secret, self.rng
        ).encode()


def initial_server_state() -> ServerPhase:
    return AwaitInitialize()


def _refuse(cause: CloseCause, text: str) -> tuple[Closed, list[SessionAction]]:
    """Close with ``cause``, telling the peer why in an error frame."""
    return Closed(cause, text), [Send(Error(text))]


def _violation(state: object, event_name: str) -> tuple[Closed, list[SessionAction]]:
    text = f"protocol violation: unexpected {event_name} in {type(state).__name__}"
    return _refuse(CloseCause.PROTOCOL_VIOLATION, text)


def _shared_step(state: object, event: SessionEvent) -> tuple[Closed, list[SessionAction]] | None:
    """The step both machines take on ``event`` in any phase, or None if they differ."""
    # Fed in a terminal phase too, when its last frame could not be sent.
    if isinstance(event, PeerClosed):
        if isinstance(state, (ClientAuthInProgress, AwaitToken)):
            # The silent teardown is the failure signal: no error frame
            # follows a failed authentication.
            return Closed(CloseCause.AUTH_FAILED, "stream closed during authentication"), []
        return Closed(CloseCause.CONNECTION_LOST, event.detail), []
    if isinstance(state, TERMINAL_PHASES):
        raise SessionError(f"step on terminal state {type(state).__name__}")
    if isinstance(event, HandshakeTimeout):
        return Closed(CloseCause.TIMEOUT), []
    if isinstance(event, FrameMalformed):
        # An oversize length prefix is a flooding attempt, not a message.
        if event.kind is MalformedKind.OVERSIZE:
            return Closed(CloseCause.MALFORMED, event.kind.value), []
        return _refuse(CloseCause.MALFORMED, f"malformed message: {event.kind.value}")
    if isinstance(event, FrameReceived) and isinstance(event.message, Error):
        # Never answer an error with an error.
        return Closed(CloseCause.REMOTE_ERROR, event.message.error), []
    return None


def _server_initialize(
    event: FrameReceived,
    env: ServerEnv,
    reauth: AwaitReinitialize | None,
) -> tuple[ServerPhase, list[SessionAction]]:
    # Predicate order is fixed: hosted, requires-auth, token-valid, negotiate.
    msg = event.message
    for entry in msg.streams:
        if not env.application_hosted(entry.application):
            return _refuse(CloseCause.NOT_HOSTED, f"{NOT_HOSTED_TEXT}: {entry.application}")

    contexts: list[IdentityContext] = []
    for entry in msg.streams:
        if not env.requires_auth(entry.application):
            # A token offered for an open application is ignored.
            contexts.append(anonymous_context(entry.application, env.clock))
            continue
        ctx = env.token_valid(entry.token, entry.application)
        if ctx is None:
            proto = env.negotiate_auth_protocol(msg.authentication)
            if proto is None:
                return _refuse(CloseCause.NO_SHARED_PROTOCOL, NO_SHARED_PROTOCOL_TEXT)
            return (
                AuthInProgress(protocol=proto, streams=msg.streams),
                [Send(Authenticate(protocol=proto)), BeginAuth(proto)],
            )
        if reauth is not None and ctx.identity == reauth.identity:
            # Same session that just authenticated: label the handoff with
            # the protocol that proved the identity, not the carrier token.
            ctx = IdentityContext(
                identity=ctx.identity,
                application=ctx.application,
                method=AuthMethod.PROTOCOL,
                authenticated_at=ctx.authenticated_at,
                protocol=reauth.protocol,
            )
        contexts.append(ctx)

    if event.data_behind():
        # Bytes sent before the connect confirmation must never reach the application.
        return _refuse(CloseCause.PROTOCOL_VIOLATION, EARLY_DATA_TEXT)
    first = contexts[0]
    return HandedOff(first), [Send(Connect(application=first.application))]


def server_step(
    state: ServerPhase, event: SessionEvent, env: ServerEnv
) -> tuple[ServerPhase, list[SessionAction]]:
    """Advance the server machine by one event.

    Raises SessionError when called on a terminal state; every other
    (state, event) pair yields a deterministic transition.
    """
    shared = _shared_step(state, event)
    if shared is not None:
        return shared

    if isinstance(state, AwaitInitialize):
        if isinstance(event, FrameReceived) and isinstance(event.message, Initialize):
            return _server_initialize(event, env, reauth=None)
        return _violation(state, _event_name(event))

    if isinstance(state, AuthInProgress):
        if isinstance(event, AuthStepResult):
            return _server_auth_step(state, event.step, env)
        return _violation(state, _event_name(event))

    # AwaitReinitialize
    if isinstance(event, FrameReceived) and isinstance(event.message, Initialize):
        return _server_initialize(event, env, reauth=state)
    return _violation(state, _event_name(event))


def _server_auth_step(
    state: AuthInProgress, step: AuthStep, env: ServerEnv
) -> tuple[ServerPhase, list[SessionAction]]:
    actions: list[SessionAction] = []
    if step.outgoing is not None:
        actions.append(Send(AuthData(payload=step.outgoing)))
    if step.status is AuthStatus.PENDING:
        return state, actions
    if step.status is AuthStatus.FAIL:
        # Failure is reported by each side's authenticator; no error frame.
        return Closed(CloseCause.AUTH_FAILED, step.reason), actions
    # Success: issue one token per requested stream, then await the
    # re-initialize that presents them.
    issued = tuple(
        StreamRequest(application=entry.application, token=env.issue_token(step.identity, entry.application))
        for entry in state.streams
    )
    actions.append(Send(Token(streams=issued)))
    return AwaitReinitialize(identity=step.identity, protocol=state.protocol), actions


# --- client machine ---


@dataclass(frozen=True)
class SendInitialize:
    pass


@dataclass(frozen=True)
class AwaitResponse:
    auth_protocol: str | None = None
    auth_identity: str | None = None


@dataclass(frozen=True)
class ClientAuthInProgress:
    protocol: str


@dataclass(frozen=True)
class AwaitToken:
    protocol: str
    identity: str


@dataclass(frozen=True)
class Connected:
    context: IdentityContext


ClientPhase = Union[SendInitialize, AwaitResponse, ClientAuthInProgress, AwaitToken, Connected, Closed]

# The phases in which either machine has finished.
TERMINAL_PHASES = (HandedOff, Connected, Closed)


@dataclass
class ClientEnv:
    """Client-side session parameters.

    ``initialize`` is the client's first frame: its protocols are the ones
    offered, its streams the ones requested.
    """

    initialize: Initialize
    clock: Clock
    stop_after_token: bool = False


def initial_client_state() -> ClientPhase:
    return SendInitialize()


def client_step(
    state: ClientPhase, event: SessionEvent, env: ClientEnv
) -> tuple[ClientPhase, list[SessionAction]]:
    """Advance the client machine by one event; mirror of server_step."""
    shared = _shared_step(state, event)
    if shared is not None:
        return shared

    if isinstance(state, SendInitialize):
        if isinstance(event, Start):
            return AwaitResponse(), [Send(env.initialize)]
        return _violation(state, _event_name(event))

    if isinstance(state, AwaitResponse):
        if isinstance(event, FrameReceived) and isinstance(event.message, Connect):
            return _client_connect(state, event.message, env)
        if isinstance(event, FrameReceived) and isinstance(event.message, Authenticate):
            proto = event.message.protocol
            if proto not in env.initialize.authentication:
                text = f"server selected unoffered protocol: {proto}"
                return Closed(CloseCause.PROTOCOL_VIOLATION, text), []
            return ClientAuthInProgress(protocol=proto), [BeginAuth(proto)]
        return _violation(state, _event_name(event))

    if isinstance(state, ClientAuthInProgress):
        if isinstance(event, AuthStepResult):
            return _client_auth_step(state, event.step)
        return _violation(state, _event_name(event))

    # AwaitToken
    if isinstance(event, FrameReceived) and isinstance(event.message, Token):
        if env.stop_after_token:
            return Closed(CloseCause.TOKEN_ACQUIRED), []
        msg = replace(env.initialize, streams=event.message.streams)
        return (
            AwaitResponse(auth_protocol=state.protocol, auth_identity=state.identity),
            [Send(msg)],
        )
    return _violation(state, _event_name(event))


def _client_connect(
    state: AwaitResponse, msg: Connect, env: ClientEnv
) -> tuple[ClientPhase, list[SessionAction]]:
    requested = {r.application: r for r in env.initialize.streams}
    if msg.application not in requested:
        return _violation(state, f"connect for unrequested application {msg.application!r}")
    if state.auth_protocol is not None:
        ctx = IdentityContext(
            identity=state.auth_identity or "",
            application=msg.application,
            method=AuthMethod.PROTOCOL,
            authenticated_at=env.clock(),
            protocol=state.auth_protocol,
        )
    elif requested[msg.application].token is not None:
        token = requested[msg.application].token
        ctx = IdentityContext(
            identity=peek_token_identity(token or "") or "unknown",
            application=msg.application,
            method=AuthMethod.TOKEN,
            authenticated_at=env.clock(),
        )
    else:
        ctx = anonymous_context(msg.application, env.clock)
    return Connected(ctx), []


def _client_auth_step(
    state: ClientAuthInProgress, step: AuthStep
) -> tuple[ClientPhase, list[SessionAction]]:
    actions: list[SessionAction] = []
    if step.outgoing is not None:
        actions.append(Send(AuthData(payload=step.outgoing)))
    if step.status is AuthStatus.PENDING:
        return state, actions
    if step.status is AuthStatus.FAIL:
        return Closed(CloseCause.AUTH_FAILED, step.reason), actions
    return AwaitToken(protocol=state.protocol, identity=step.identity or ""), actions


def _event_name(event: SessionEvent) -> str:
    if isinstance(event, FrameReceived):
        return message_name(event.message)
    if isinstance(event, AuthStepResult):
        return f"auth step ({event.step.status.value})"
    return type(event).__name__


# --- message traces ---

CLIENT_TO_SERVER = "c2s"
SERVER_TO_CLIENT = "s2c"

# Pseudo message name recorded when an inbound frame fails to decode.
MALFORMED_ENTRY = "malformed"


@dataclass(frozen=True)
class TraceEntry:
    direction: str
    name: str

    def to_dict(self) -> dict:
        return {"dir": self.direction, "msg": self.name}


def non_authdata_count(trace: Iterable[TraceEntry]) -> int:
    """USP handshake messages in a trace, excluding authenticator traffic."""
    return sum(1 for entry in trace if entry.name not in ("authdata", MALFORMED_ENTRY))
