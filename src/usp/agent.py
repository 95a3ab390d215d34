"""Agents that run the session machines over live streams.

The server agent runs a pool of worker threads that accept connections
themselves (the Leader/Followers pattern): there is no acceptor thread
and no queue between accept and session. A worker that accepts a
connection drives it through the handshake and hands the still-live
stream plus the established IdentityContext to the registered application
handler on the same thread, then goes back to accept. It starts a
replacement first if no other worker is left waiting in accept, and
workers live until shutdown(), so the thread count is the peak number of
concurrent sessions plus one. The handler never sees a byte that arrived
before the handshake finished: data sent ahead of the connect
confirmation aborts the session instead of being buffered.

The client agent performs a single connect or a token acquisition; both
are synchronous and return once the session is settled.
"""

from __future__ import annotations

import json
import random
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO
from urllib.parse import urlsplit

from .auth import (
    DEFAULT_TOKEN_TTL,
    PSK_PROTOCOL_NAME,
    AuthConfig,
    AuthProtocol,
    AuthStatus,
    AuthStep,
    Clock,
    IdentityContext,
    NonceCache,
    TokenError,
    decode_token,
    make_registry,
    psk_protocol,
    validate_token,
)
from .errors import UspError
from .session import (
    CLIENT_TO_SERVER,
    DEFAULT_HANDSHAKE_TIMEOUT,
    MALFORMED_ENTRY,
    NO_SHARED_PROTOCOL_TEXT,
    SERVER_TO_CLIENT,
    AuthInProgress,
    AuthStepResult,
    AwaitToken,
    BeginAuth,
    ClientAuthInProgress,
    ClientEnv,
    ClientPhase,
    Close,
    CloseCause,
    Closed,
    Connected,
    FrameMalformed,
    FrameReceived,
    HandedOff,
    Handoff,
    HandshakeTimeout,
    Send,
    ServerEnv,
    SessionEvent,
    Start,
    TraceEntry,
    client_step,
    initial_client_state,
    initial_server_state,
    server_step,
)
from .transport import (
    ConnectionLost,
    FrameChannel,
    ListenerClosed,
    MemoryListener,
    RecvTimeout,
    StreamHandle,
    TcpListener,
    tcp_dial,
)
from .wire import (
    AuthData,
    Error,
    MalformedMessage,
    StreamRequest,
    Token,
    message_name,
    name_error,
)

DEFAULT_PORT = 4450

Handler = Callable[[StreamHandle, IdentityContext], None]


class RemoteError(UspError):
    """The server answered with an error message."""

    def __init__(self, text: str):
        self.text = text
        super().__init__(text)


class NoSharedProtocol(RemoteError):
    pass


class AuthFailed(UspError):
    pass


class ProtocolViolation(UspError):
    pass


class SessionTimeout(UspError):
    pass


class MalformedTarget(UspError):
    pass


@dataclass(frozen=True)
class Credentials:
    """Client-side secret for an authentication protocol run."""

    identity: str
    key: bytes


@dataclass(frozen=True)
class ApplicationRegistration:
    application: str
    requires_auth: bool
    handler: Handler


@dataclass
class ServerConfig:
    registrations: tuple[ApplicationRegistration, ...]
    token_secret: bytes
    supported_auth: tuple[str, ...] = (PSK_PROTOCOL_NAME,)
    psk_secrets: dict[str, bytes] = field(default_factory=dict)
    token_ttl: int = DEFAULT_TOKEN_TTL
    handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT
    lenient_coexistence: bool = False
    single_use_tokens: bool = False

    def __post_init__(self) -> None:
        self.registrations = tuple(self.registrations)
        self.supported_auth = tuple(self.supported_auth)
        seen = set()
        for reg in self.registrations:
            err = name_error(reg.application)
            if err is not None:
                raise ValueError(f"application {reg.application!r}: {err}")
            if reg.application in seen:
                raise ValueError(f"duplicate application name: {reg.application!r}")
            seen.add(reg.application)
        if any(r.requires_auth for r in self.registrations) and not self.supported_auth:
            raise ValueError("authentication required but no protocols supported")

    def handlers(self) -> dict[str, Handler]:
        return {r.application: r.handler for r in self.registrations}

    def auth_map(self) -> dict[str, bool]:
        return {r.application: r.requires_auth for r in self.registrations}


@dataclass
class SessionRecord:
    """One structured log record per server-side session."""

    peer: str
    outcome: str
    application: str | None
    identity: str | None
    method: str | None
    detail: str | None
    started_at: float
    ended_at: float
    trace: tuple[TraceEntry, ...]

    def to_dict(self) -> dict:
        return {
            "peer": self.peer,
            "outcome": self.outcome,
            "application": self.application,
            "identity": self.identity,
            "method": self.method,
            "detail": self.detail,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "trace": [entry.to_dict() for entry in self.trace],
        }


def echo_handler(stream: StreamHandle, ctx: IdentityContext) -> None:
    """Demo application: write back whatever arrives, until EOF."""
    while True:
        try:
            data = stream.read(4096)
        except ConnectionLost:
            return
        if not data:
            return
        try:
            stream.write(data)
        except ConnectionLost:
            return


def _safe_step(handle, incoming: bytes | None) -> AuthStep:
    # A misbehaving protocol implementation must fail the session, not the server.
    try:
        return handle.step(incoming)
    except Exception as exc:
        return AuthStep(status=AuthStatus.FAIL, reason=f"auth protocol error: {exc}")


def _begin_client_auth(
    registry: Mapping[str, AuthProtocol],
    protocol: str,
    credentials: Credentials | None,
    rng: random.Random,
):
    proto = registry.get(protocol)
    if proto is None:
        return None
    config = AuthConfig(
        rng=rng,
        identity=credentials.identity if credentials else None,
        key=credentials.key if credentials else None,
    )
    return proto.begin("client", config)


# --- server side ---


def _drive_server(
    stream: StreamHandle,
    env: ServerEnv,
    registry: Mapping[str, AuthProtocol],
    handlers: Mapping[str, Handler],
    handshake_timeout: float,
    started_at: float,
) -> SessionRecord:
    chan = FrameChannel(stream)
    trace: list[TraceEntry] = []
    state = initial_server_state()
    pending: deque[SessionEvent] = deque()
    live_handle = None
    deadline = started_at + handshake_timeout
    handoff_ctx: IdentityContext | None = None
    detail: str | None = None

    while not isinstance(state, (HandedOff, Closed)):
        if pending:
            event: SessionEvent = pending.popleft()
        else:
            try:
                msg = chan.recv(deadline=deadline, clock=env.clock)
            except RecvTimeout:
                event = HandshakeTimeout()
            except MalformedMessage as exc:
                trace.append(TraceEntry(CLIENT_TO_SERVER, MALFORMED_ENTRY))
                event = FrameMalformed(exc.kind)
            except ConnectionLost:
                state = Closed(CloseCause.CONNECTION_LOST, "connection lost")
                break
            else:
                if msg is None:
                    state = Closed(CloseCause.CONNECTION_LOST, "peer closed")
                    break
                trace.append(TraceEntry(CLIENT_TO_SERVER, message_name(msg)))
                if (
                    isinstance(msg, AuthData)
                    and isinstance(state, AuthInProgress)
                    and live_handle is not None
                ):
                    event = AuthStepResult(_safe_step(live_handle, msg.payload))
                else:
                    event = FrameReceived(msg)

        state, actions = server_step(state, event, env)

        if isinstance(state, HandedOff) and chan.peek_pending():
            # Bytes arrived before the connect confirmation went out: the
            # application must never see them, so the session dies here.
            text = "protocol violation: application data before connect"
            try:
                chan.send(Error(text))
                trace.append(TraceEntry(SERVER_TO_CLIENT, "error"))
            except ConnectionLost:
                pass
            state = Closed(CloseCause.PROTOCOL_VIOLATION, text)
            break

        lost = False
        for action in actions:
            if isinstance(action, Send):
                try:
                    chan.send(action.message)
                except ConnectionLost:
                    state = Closed(CloseCause.CONNECTION_LOST, "connection lost")
                    lost = True
                    break
                trace.append(TraceEntry(SERVER_TO_CLIENT, message_name(action.message)))
            elif isinstance(action, BeginAuth):
                proto = registry[action.protocol]
                live_handle = proto.begin("server", AuthConfig(rng=env.rng))
                pending.append(AuthStepResult(_safe_step(live_handle, None)))
            elif isinstance(action, Handoff):
                handoff_ctx = action.context
            elif isinstance(action, Close):
                detail = action.detail
        if lost:
            break

    ended_at = env.clock()
    if isinstance(state, HandedOff) and handoff_ctx is not None:
        record = SessionRecord(
            peer=stream.peer_label,
            outcome="handed_off",
            application=handoff_ctx.application,
            identity=handoff_ctx.identity,
            method=handoff_ctx.method.value,
            detail=None,
            started_at=started_at,
            ended_at=ended_at,
            trace=tuple(trace),
        )
        handler = handlers[handoff_ctx.application]
        try:
            handler(stream, handoff_ctx)
        except Exception as exc:
            record.detail = f"handler error: {exc}"
        finally:
            stream.close()
        return record

    stream.close()
    cause = state.cause.value if isinstance(state, Closed) else "unknown"
    if isinstance(state, Closed) and state.detail is not None:
        detail = state.detail
    return SessionRecord(
        peer=stream.peer_label,
        outcome=cause,
        application=None,
        identity=None,
        method=None,
        detail=detail,
        started_at=started_at,
        ended_at=ended_at,
        trace=tuple(trace),
    )


class ServerHandle:
    """A running server; thread-safe counters and orderly shutdown.

    A pool of daemon worker threads serves the listener. Each idle worker
    waits in the listener's accept; the one that gets a connection runs
    its session, handshake and handler, and then waits in accept again.
    Before it starts the session it starts a new worker if no other one is
    left waiting, so every handshake starts at once. The pool never
    shrinks before shutdown(), so it holds the peak number of concurrent
    sessions plus one thread.
    """

    def __init__(
        self,
        listener,
        env: ServerEnv,
        registry: Mapping[str, AuthProtocol],
        handlers: Mapping[str, Handler],
        handshake_timeout: float,
        observer: Callable[[SessionRecord], None] | None = None,
        log: TextIO | None = None,
    ):
        self._listener = listener
        self._env = env
        self._registry = registry
        self._handlers = handlers
        self._timeout = handshake_timeout
        self._observer = observer
        self._log = log
        self._lock = threading.Lock()
        self._records: list[SessionRecord] = []
        self._handoffs = 0
        self._live_streams: dict[int, StreamHandle] = {}
        # Workers waiting in accept, or about to; guarded by _lock.
        self._idle = 0
        self._workers: list[threading.Thread] = []
        self._stopping = False
        self._next_id = 0
        with self._lock:
            self._start_worker()

    @property
    def port(self) -> int:
        if isinstance(self._listener, TcpListener):
            return self._listener.port
        raise AttributeError("listener has no port")

    def records(self) -> list[SessionRecord]:
        with self._lock:
            return list(self._records)

    @property
    def handoff_count(self) -> int:
        with self._lock:
            return self._handoffs

    def _start_worker(self) -> None:
        # Caller holds _lock, so shutdown() sees every worker started.
        self._idle += 1
        worker = threading.Thread(target=self._work, daemon=True)
        self._workers.append(worker)
        worker.start()

    def _work(self) -> None:
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Accept one connection and run its session; False once stopping.

        The stream is local to this call, so a worker waiting in accept
        keeps no finished session alive.
        """
        while True:
            try:
                stream = self._listener.accept()
                break
            except ListenerClosed:
                return False
            except Exception:
                if self._stopping:
                    return False
        with self._lock:
            if self._stopping:
                # shutdown() has already closed the streams it knows of.
                stream.close()
                return False
            self._idle -= 1
            sid = self._next_id
            self._next_id += 1
            self._live_streams[sid] = stream
            if not self._idle:
                self._start_worker()
        self._run_session(sid, stream)
        with self._lock:
            self._idle += 1
        return True

    def _run_session(self, sid: int, stream: StreamHandle) -> None:
        started_at = self._env.clock()
        try:
            record = _drive_server(
                stream, self._env, self._registry, self._handlers, self._timeout, started_at
            )
        except Exception as exc:
            # Isolation: one broken session never takes the server down.
            try:
                stream.close()
            except Exception:
                pass
            record = SessionRecord(
                peer=stream.peer_label,
                outcome="internal_error",
                application=None,
                identity=None,
                method=None,
                detail=str(exc),
                started_at=started_at,
                ended_at=self._env.clock(),
                trace=(),
            )
        with self._lock:
            self._records.append(record)
            if record.outcome == "handed_off":
                self._handoffs += 1
            self._live_streams.pop(sid, None)
        if self._observer is not None:
            self._observer(record)
        if self._log is not None:
            self._log.write(json.dumps(record.to_dict()) + "\n")
            self._log.flush()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting, close live streams and wait for the workers.

        ``timeout`` bounds the whole call, however many workers there are;
        a handler that ignores its closed stream keeps its (daemon) worker.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stopping = True
        # Wakes every worker waiting in accept.
        self._listener.close()
        with self._lock:
            streams = list(self._live_streams.values())
            workers = list(self._workers)
        for stream in streams:
            try:
                stream.close()
            except Exception:
                pass
        for worker in workers:
            worker.join(max(0.0, deadline - time.monotonic()))


def serve(
    listener,
    config: ServerConfig,
    *,
    clock: Clock | None = None,
    rng: random.Random | None = None,
    registry: Mapping[str, AuthProtocol] | None = None,
    observer: Callable[[SessionRecord], None] | None = None,
    log: TextIO | None = None,
) -> ServerHandle:
    """Serve USP sessions from ``listener`` until shutdown().

    Worker threads accept their own connections; there is no acceptor
    thread. Each connection is driven independently on the worker that
    accepted it, which first starts a new worker if no other one is left
    waiting in accept. Workers live until shutdown(), so the thread count
    is the peak number of concurrent sessions plus one. A handler is
    invoked exactly once per successful handshake, with the live stream
    and the established identity.
    """
    clock = clock or time.time
    rng = rng or random.SystemRandom()
    if registry is None:
        registry = make_registry(psk_protocol(config.psk_secrets))
    missing = [name for name in config.supported_auth if name not in registry]
    if missing:
        raise ValueError(f"supported_auth protocols without implementation: {missing}")

    validator = None
    if config.single_use_tokens:
        cache = NonceCache()
        secret = config.token_secret

        def validator(token: str, application: str) -> IdentityContext:
            ctx = validate_token(token, application, clock, secret)
            if not cache.first_use(decode_token(token).nonce):
                raise TokenError("token already used")
            return ctx

    env = ServerEnv(
        applications=config.auth_map(),
        supported_auth=config.supported_auth,
        token_secret=config.token_secret,
        clock=clock,
        rng=rng,
        token_ttl=config.token_ttl,
        lenient_coexistence=config.lenient_coexistence,
        token_validator=validator,
    )
    return ServerHandle(
        listener,
        env,
        registry,
        config.handlers(),
        config.handshake_timeout,
        observer=observer,
        log=log,
    )


_CONFIG_KEYS = frozenset(
    {
        "applications",
        "supported_auth",
        "psk_store",
        "token_secret_hex",
        "token_ttl",
        "handshake_timeout",
        "lenient_coexistence",
        "single_use_tokens",
    }
)
_APPLICATION_KEYS = frozenset({"application", "requires_auth"})


def _reject_unknown_keys(obj: dict, known: frozenset, where: str) -> None:
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise ValueError(f"unknown key in {where}: {unknown[0]!r}")


def load_server_config(path: str | Path, handler: Handler = echo_handler) -> ServerConfig:
    """Build a ServerConfig from a JSON file.

    Every configured application is served by ``handler`` (the echo demo
    by default); real deployments register handlers in code. A relative
    ``psk_store`` path is resolved against the config file's directory.
    A key the loader does not know, at the top level or in an application
    entry, is an error rather than silently ignored.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown_keys(data, _CONFIG_KEYS, "config")
    apps = data.get("applications")
    if not isinstance(apps, list) or not apps:
        raise ValueError("config needs a non-empty applications list")
    registrations = []
    for entry in apps:
        if not isinstance(entry, dict) or "application" not in entry:
            raise ValueError("each application entry needs an application name")
        _reject_unknown_keys(entry, _APPLICATION_KEYS, f"application {entry['application']!r}")
        registrations.append(
            ApplicationRegistration(
                application=entry["application"],
                requires_auth=bool(entry.get("requires_auth", False)),
                handler=handler,
            )
        )
    psk_secrets: dict[str, bytes] = {}
    store = data.get("psk_store")
    if store is not None:
        from .auth import load_psk_store

        store_path = Path(store)
        if not store_path.is_absolute():
            store_path = path.parent / store_path
        psk_secrets = load_psk_store(store_path)
    secret_hex = data.get("token_secret_hex")
    token_secret = bytes.fromhex(secret_hex) if secret_hex else secrets.token_bytes(32)
    return ServerConfig(
        registrations=tuple(registrations),
        token_secret=token_secret,
        supported_auth=tuple(data.get("supported_auth", (PSK_PROTOCOL_NAME,))),
        psk_secrets=psk_secrets,
        token_ttl=int(data.get("token_ttl", DEFAULT_TOKEN_TTL)),
        handshake_timeout=float(data.get("handshake_timeout", DEFAULT_HANDSHAKE_TIMEOUT)),
        lenient_coexistence=bool(data.get("lenient_coexistence", False)),
        single_use_tokens=bool(data.get("single_use_tokens", False)),
    )


# --- client side ---


@dataclass
class ClientOutcome:
    phase: ClientPhase
    context: IdentityContext | None
    tokens: list[tuple[str, str]]
    trace: list[TraceEntry]
    lost_during_auth: bool


def _drive_client(
    stream: StreamHandle,
    env: ClientEnv,
    registry: Mapping[str, AuthProtocol],
    credentials: Credentials | None,
    rng: random.Random,
    timeout: float,
) -> ClientOutcome:
    chan = FrameChannel(stream)
    trace: list[TraceEntry] = []
    state = initial_client_state()
    pending: deque[SessionEvent] = deque([Start()])
    live_handle = None
    tokens: list[tuple[str, str]] = []
    deadline = env.clock() + timeout
    lost_during_auth = False

    while not isinstance(state, (Connected, Closed)):
        if pending:
            event: SessionEvent = pending.popleft()
        else:
            try:
                msg = chan.recv(deadline=deadline, clock=env.clock)
            except RecvTimeout:
                event = HandshakeTimeout()
            except MalformedMessage as exc:
                trace.append(TraceEntry(SERVER_TO_CLIENT, MALFORMED_ENTRY))
                event = FrameMalformed(exc.kind)
            except ConnectionLost:
                lost_during_auth = isinstance(state, (ClientAuthInProgress, AwaitToken))
                state = Closed(CloseCause.CONNECTION_LOST, "connection lost")
                break
            else:
                if msg is None:
                    lost_during_auth = isinstance(state, (ClientAuthInProgress, AwaitToken))
                    state = Closed(CloseCause.CONNECTION_LOST, "peer closed")
                    break
                trace.append(TraceEntry(SERVER_TO_CLIENT, message_name(msg)))
                if isinstance(msg, Token):
                    tokens = [(s.application, s.token or "") for s in msg.streams]
                if (
                    isinstance(msg, AuthData)
                    and isinstance(state, ClientAuthInProgress)
                    and live_handle is not None
                ):
                    event = AuthStepResult(_safe_step(live_handle, msg.payload))
                else:
                    event = FrameReceived(msg)

        state, actions = client_step(state, event, env)
        lost = False
        for action in actions:
            if isinstance(action, Send):
                try:
                    chan.send(action.message)
                except ConnectionLost:
                    lost_during_auth = isinstance(state, (ClientAuthInProgress, AwaitToken))
                    state = Closed(CloseCause.CONNECTION_LOST, "connection lost")
                    lost = True
                    break
                trace.append(TraceEntry(CLIENT_TO_SERVER, message_name(action.message)))
            elif isinstance(action, BeginAuth):
                live_handle = _begin_client_auth(registry, action.protocol, credentials, rng)
                if live_handle is None:
                    step = AuthStep(
                        status=AuthStatus.FAIL,
                        reason=f"offered protocol not implemented: {action.protocol}",
                    )
                    pending.append(AuthStepResult(step))
                else:
                    pending.append(AuthStepResult(_safe_step(live_handle, None)))
        if lost:
            break

    context = state.context if isinstance(state, Connected) else None
    return ClientOutcome(
        phase=state,
        context=context,
        tokens=tokens,
        trace=trace,
        lost_during_auth=lost_during_auth,
    )


def _raise_for_close(state: Closed, lost_during_auth: bool) -> None:
    cause = state.cause
    detail = state.detail or ""
    if cause is CloseCause.REMOTE_ERROR:
        if detail == NO_SHARED_PROTOCOL_TEXT:
            raise NoSharedProtocol(detail)
        raise RemoteError(detail)
    if cause is CloseCause.AUTH_FAILED:
        raise AuthFailed(detail or "authentication failed")
    if cause is CloseCause.CONNECTION_LOST:
        if lost_during_auth:
            # The silent teardown is the failure signal: no error frame
            # follows a failed authentication.
            raise AuthFailed("stream closed during authentication")
        raise ConnectionLost(detail or "connection lost")
    if cause is CloseCause.TIMEOUT:
        raise SessionTimeout("handshake timed out")
    raise ProtocolViolation(detail or cause.value)


def _open_endpoint(endpoint, timeout: float) -> StreamHandle:
    if isinstance(endpoint, StreamHandle):
        return endpoint
    if isinstance(endpoint, MemoryListener):
        return endpoint.connect()
    if isinstance(endpoint, tuple) and len(endpoint) == 2:
        host, port = endpoint
        return tcp_dial(host, int(port), timeout=timeout)
    raise TypeError(f"unsupported endpoint: {endpoint!r}")


def connect(
    endpoint,
    application: str,
    *,
    offered: Sequence[str] = (PSK_PROTOCOL_NAME,),
    credentials: Credentials | None = None,
    token: str | None = None,
    registry: Mapping[str, AuthProtocol] | None = None,
    clock: Clock | None = None,
    rng: random.Random | None = None,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    trace: list[TraceEntry] | None = None,
) -> tuple[StreamHandle, IdentityContext]:
    """Establish an application session; returns the ready stream.

    ``endpoint`` may be a (host, port) pair, a MemoryListener, or an
    already-open StreamHandle. The stream is application-ready only after
    the server's connect confirmation; on any failure it is closed and
    the matching exception raised.
    """
    clock = clock or time.time
    rng = rng or random.SystemRandom()
    registry = registry if registry is not None else make_registry(psk_protocol())
    offered = tuple(offered)
    if not offered and token is None:
        raise ValueError("no authentication protocols offered and no token supplied")
    env = ClientEnv(
        offered=offered,
        requests=(StreamRequest(application=application, token=token),),
        clock=clock,
    )
    stream = _open_endpoint(endpoint, timeout)
    outcome = _drive_client(stream, env, registry, credentials, rng, timeout)
    if trace is not None:
        trace.extend(outcome.trace)
    if isinstance(outcome.phase, Connected):
        return stream, outcome.phase.context
    stream.close()
    assert isinstance(outcome.phase, Closed)
    _raise_for_close(outcome.phase, outcome.lost_during_auth)
    raise AssertionError("unreachable")


def acquire_token(
    endpoint,
    applications: Sequence[str],
    *,
    offered: Sequence[str] = (PSK_PROTOCOL_NAME,),
    credentials: Credentials | None = None,
    registry: Mapping[str, AuthProtocol] | None = None,
    clock: Clock | None = None,
    rng: random.Random | None = None,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    trace: list[TraceEntry] | None = None,
) -> list[tuple[str, str]]:
    """Authenticate and collect bearer tokens without connecting.

    Returns (application, token) pairs for every requested application;
    the session is closed as soon as the token message arrives. The
    caller moves the tokens to their final holder out of band.
    """
    if not applications:
        raise ValueError("no applications requested")
    offered = tuple(offered)
    if not offered:
        raise ValueError("token acquisition needs at least one offered protocol")
    clock = clock or time.time
    rng = rng or random.SystemRandom()
    registry = registry if registry is not None else make_registry(psk_protocol())
    env = ClientEnv(
        offered=offered,
        requests=tuple(StreamRequest(application=app) for app in applications),
        clock=clock,
        stop_after_token=True,
    )
    stream = _open_endpoint(endpoint, timeout)
    outcome = _drive_client(stream, env, registry, credentials, rng, timeout)
    if trace is not None:
        trace.extend(outcome.trace)
    stream.close()
    if isinstance(outcome.phase, Connected):
        # The server connected instead of authenticating: nothing requires
        # a token here, so there is nothing to acquire.
        raise ProtocolViolation(
            "server connected without issuing tokens (no authentication required)"
        )
    assert isinstance(outcome.phase, Closed)
    if outcome.phase.cause is CloseCause.TOKEN_ACQUIRED:
        return outcome.tokens
    _raise_for_close(outcome.phase, outcome.lost_during_auth)
    raise AssertionError("unreachable")


def parse_target(url: str) -> tuple[str, int, str]:
    """Split "usp://host[:port]/application" into its three parts."""
    parts = urlsplit(url)
    if parts.scheme.lower() != "usp":
        raise MalformedTarget(f"not a usp:// URL: {url!r}")
    if parts.query or parts.fragment or parts.username is not None:
        raise MalformedTarget(f"unsupported URL components in {url!r}")
    host = parts.hostname
    if not host:
        raise MalformedTarget(f"missing host in {url!r}")
    try:
        port = parts.port
    except ValueError:
        raise MalformedTarget(f"invalid port in {url!r}") from None
    application = parts.path[1:] if parts.path.startswith("/") else parts.path
    err = name_error(application)
    if err is not None:
        raise MalformedTarget(f"bad application name in {url!r}: {err}")
    return host, port if port is not None else DEFAULT_PORT, application
