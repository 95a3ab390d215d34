"""Agents that run the session machines over live streams.

Client and server share one handshake loop, _drive: it reads a frame,
feeds it to the pure session machine (server_step or client_step), sends
the frames the machine asks for and starts authentication runs, until the
phase is terminal. The loop decides no ending: a lost connection (end of
stream, a reset, a failed send) is a PeerClosed event for the machine.
Only the setup around it and the reading of the final phase differ
between the two sides. On the server, ServerHandle._run_session
is the one caller: it drives the handshake, runs the handler after a
handoff and writes the session record. The client builds its initialize
before it dials, so a request that no initialize can carry fails without
a connection.

The server agent runs a pool of worker threads that accept connections
themselves (the Leader/Followers pattern): there is no acceptor thread
and no queue between accept and session. A worker that accepts a
connection drives it through the handshake and hands the still-live
stream plus the established IdentityContext to the registered application
handler on the same thread, then goes back to accept. It starts a
replacement first if no other worker is left waiting in accept, and
workers live until shutdown(), so the thread count is the peak number of
concurrent sessions plus one. A worker whose accept fails (EMFILE, say)
retries after a back-off that doubles from 5 ms up to 1 s. The handler
never sees a byte that arrived before the handshake finished: the loop
hands the machine a pending() peek with each frame, and the server machine
takes it at handoff, after its last predicate, and refuses the session if
bytes wait.

The client agent performs a single connect or a token acquisition; both
are synchronous and return once the session is settled.

The injected ``clock`` (wall time by default) only stamps tokens,
identities and session records. Every handshake deadline is a
time.monotonic() instant that no caller can change, so stepping the wall
clock neither holds a silent peer open nor cuts a live handshake short.
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
from typing import Callable, Mapping, Sequence
from urllib.parse import urlsplit

from .auth import (
    DEFAULT_TOKEN_TTL,
    PSK_PROTOCOL_NAME,
    AuthHandle,
    AuthProtocol,
    AuthStatus,
    AuthStep,
    Clock,
    Credentials,
    IdentityContext,
    NonceCache,
    make_registry,
    psk_protocol,
)
from .errors import UspError
from .session import (
    CLIENT_TO_SERVER,
    DEFAULT_HANDSHAKE_TIMEOUT,
    MALFORMED_ENTRY,
    NO_SHARED_PROTOCOL_TEXT,
    SERVER_TO_CLIENT,
    TERMINAL_PHASES,
    AuthInProgress,
    AuthStepResult,
    ClientAuthInProgress,
    ClientEnv,
    CloseCause,
    Closed,
    Connected,
    FrameMalformed,
    FrameReceived,
    HandshakeTimeout,
    PeerClosed,
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
    ReadTimeout,
    StreamHandle,
    TcpListener,
    tcp_dial,
)
from .wire import (
    AuthData,
    Initialize,
    MalformedMessage,
    Message,
    StreamRequest,
    message_name,
    name_error,
)

DEFAULT_PORT = 4450

# Back-off between failed accepts, in seconds: doubles from MIN up to MAX.
_ACCEPT_BACKOFF_MIN = 0.005
_ACCEPT_BACKOFF_MAX = 1.0

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
        # Anyone can sign or answer under an empty key.
        if not self.token_secret:
            raise ValueError("token_secret is empty")
        for identity, key in self.psk_secrets.items():
            if not identity:
                raise ValueError("psk identity is empty")
            if not key:
                raise ValueError(f"psk key for {identity!r} is empty")
        # issued_at + token_ttl must fit a token's u64 expiry for any clock below 2**63.
        if not 0 < self.token_ttl < 2**63:
            raise ValueError(f"token_ttl must be in 1..2**63-1, not {self.token_ttl}")
        if not self.handshake_timeout > 0:  # NaN too: it would never expire
            raise ValueError(f"handshake_timeout must be positive, not {self.handshake_timeout}")

    def env(self, clock: Clock, rng: random.Random) -> ServerEnv:
        """The session machine's environment for this config.

        With ``single_use_tokens`` each call gets its own nonce cache.
        """
        return ServerEnv(
            applications={r.application: r.requires_auth for r in self.registrations},
            supported_auth=self.supported_auth,
            token_secret=self.token_secret,
            clock=clock,
            rng=rng,
            token_ttl=self.token_ttl,
            nonce_cache=NonceCache() if self.single_use_tokens else None,
        )


@dataclass
class SessionRecord:
    """One structured log record per server-side session."""

    peer: str
    outcome: str
    started_at: float
    ended_at: float
    trace: tuple[TraceEntry, ...]
    application: str | None = None
    identity: str | None = None
    method: str | None = None
    detail: str | None = None

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


def _session_record(
    stream: StreamHandle,
    outcome: str,
    started_at: float,
    ended_at: float,
    trace: Sequence[TraceEntry] = (),
    ctx: IdentityContext | None = None,
    detail: str | None = None,
) -> SessionRecord:
    """The record of a session on ``stream`` that ended with ``outcome``."""
    record = SessionRecord(
        stream.peer_label, outcome, started_at, ended_at, tuple(trace), detail=detail
    )
    if ctx is not None:
        record.application = ctx.application
        record.identity = ctx.identity
        record.method = ctx.method.value
    return record


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


# --- the handshake loop, shared by both sides ---


def _drive(
    stream: StreamHandle,
    step: Callable,
    env: ServerEnv | ClientEnv,
    state,
    pending: deque[SessionEvent],
    begin_auth: Callable[[str], AuthHandle | None],
    timeout: float,
    inbound: str,
    outbound: str,
) -> tuple[object, list[TraceEntry], Message | None]:
    """Pump one side's handshake over ``stream`` until its phase is terminal.

    ``step`` is server_step or client_step; ``inbound`` and ``outbound``
    are the trace directions of received and sent frames; the handshake
    times out ``timeout`` seconds from now, by time.monotonic(). The machine
    decides every ending; a lost connection is an event like any other.
    Returns the final phase, the trace and the last message received.
    """
    deadline = time.monotonic() + timeout
    chan = FrameChannel(stream)
    trace: list[TraceEntry] = []
    live_handle = None
    last = None

    while not isinstance(state, TERMINAL_PHASES):
        if pending:
            event: SessionEvent = pending.popleft()
        else:
            try:
                last = chan.recv(deadline=deadline)
            except ReadTimeout:
                event = HandshakeTimeout()
            except MalformedMessage as exc:
                trace.append(TraceEntry(inbound, MALFORMED_ENTRY))
                event = FrameMalformed(exc.kind)
            except ConnectionLost:
                event = PeerClosed("connection lost")
            else:
                if last is None:
                    event = PeerClosed("peer closed")
                else:
                    trace.append(TraceEntry(inbound, message_name(last)))
                    if isinstance(last, AuthData) and isinstance(
                        state, (AuthInProgress, ClientAuthInProgress)
                    ):
                        event = AuthStepResult(_safe_step(live_handle, last.payload))
                    else:
                        event = FrameReceived(last, stream.pending)

        state, actions = step(state, event, env)

        for action in actions:
            if isinstance(action, Send):
                try:
                    chan.send(action.message)
                except ConnectionLost:
                    state, _ = step(state, PeerClosed("connection lost"), env)
                    break
                trace.append(TraceEntry(outbound, message_name(action.message)))
            else:
                live_handle = begin_auth(action.protocol)
                if live_handle is None:
                    first = AuthStep(
                        status=AuthStatus.FAIL,
                        reason=f"offered protocol not implemented: {action.protocol}",
                    )
                else:
                    first = _safe_step(live_handle, None)
                pending.append(AuthStepResult(first))

    return state, trace, last


# --- server side ---


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
    ):
        self._listener = listener
        self._env = env
        self._registry = registry
        self._handlers = handlers
        self._timeout = handshake_timeout
        self._observer = observer
        self._lock = threading.Lock()
        self._records: list[SessionRecord] = []
        self._handoffs = 0
        self._live_streams: set[StreamHandle] = set()
        # Workers waiting in accept, or about to; guarded by _lock.
        self._idle = 0
        self._workers: list[threading.Thread] = []
        self._stopping = threading.Event()
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
        delay = 0.0
        while True:
            try:
                stream = self._listener.accept()
                break
            except ListenerClosed:
                return False
            except Exception:
                # EMFILE and the like pass once descriptors free up: back
                # off and retry, as Go's net/http Server.Serve does.
                delay = min(max(2 * delay, _ACCEPT_BACKOFF_MIN), _ACCEPT_BACKOFF_MAX)
                if self._stopping.wait(delay):
                    return False
        with self._lock:
            if self._stopping.is_set():
                # shutdown() has already closed the streams it knows of.
                stream.close()
                return False
            self._idle -= 1
            self._live_streams.add(stream)
            if not self._idle:
                self._start_worker()
        self._run_session(stream)
        with self._lock:
            self._idle += 1
        return True

    def _run_session(self, stream: StreamHandle) -> None:
        """Drive one handshake on ``stream``, run the handler on a handoff, record it."""
        env = self._env
        started_at = env.clock()
        try:
            state, trace, _ = _drive(
                stream,
                server_step,
                env,
                initial_server_state(),
                deque(),
                lambda protocol: self._registry[protocol].server(env.rng),
                self._timeout,
                CLIENT_TO_SERVER,
                SERVER_TO_CLIENT,
            )
            ended_at = env.clock()
            if isinstance(state, Closed):
                stream.close()
                record = _session_record(
                    stream, state.cause.value, started_at, ended_at, trace, detail=state.detail
                )
            else:
                ctx = state.context
                record = _session_record(stream, "handed_off", started_at, ended_at, trace, ctx=ctx)
                try:
                    self._handlers[ctx.application](stream, ctx)
                except Exception as exc:
                    record.detail = f"handler error: {exc}"
                finally:
                    stream.close()
        except Exception as exc:
            # Isolation: one broken session never takes the server down.
            try:
                stream.close()
            except Exception:
                pass
            record = _session_record(
                stream, "internal_error", started_at, env.clock(), detail=str(exc)
            )
        with self._lock:
            self._records.append(record)
            if record.outcome == "handed_off":
                self._handoffs += 1
            self._live_streams.discard(stream)
        if self._observer is not None:
            self._observer(record)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting, close live streams and wait for the workers.

        ``timeout`` bounds the whole call, however many workers there are;
        a handler that ignores its closed stream keeps its (daemon) worker.
        """
        deadline = time.monotonic() + timeout
        with self._lock:
            self._stopping.set()
        # Wakes every worker waiting in accept.
        self._listener.close()
        with self._lock:
            streams = list(self._live_streams)
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
) -> ServerHandle:
    """Serve USP sessions from ``listener`` until shutdown().

    Worker threads accept their own connections; there is no acceptor
    thread. Each connection is driven independently on the worker that
    accepted it, which first starts a new worker if no other one is left
    waiting in accept. Workers live until shutdown(), so the thread count
    is the peak number of concurrent sessions plus one. A handler is
    invoked exactly once per successful handshake, with the live stream
    and the established identity. ``observer`` gets each session's record.
    """
    if registry is None:
        registry = make_registry(psk_protocol(config.psk_secrets))
    missing = [name for name in config.supported_auth if name not in registry]
    if missing:
        raise ValueError(f"supported_auth protocols without implementation: {missing}")
    return ServerHandle(
        listener,
        config.env(clock or time.time, rng or random.SystemRandom()),
        registry,
        {r.application: r.handler for r in config.registrations},
        config.handshake_timeout,
        observer=observer,
    )


_CONFIG_KEYS = frozenset(
    {
        "applications",
        "supported_auth",
        "psk_store",
        "token_secret_hex",
        "token_ttl",
        "handshake_timeout",
        "single_use_tokens",
    }
)
_APPLICATION_KEYS = frozenset({"application", "requires_auth"})


def _reject_unknown_keys(obj: dict, known: frozenset, where: str) -> None:
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise ValueError(f"unknown key in {where}: {unknown[0]!r}")


def _typed(obj: dict, key: str, kinds: tuple[type, ...], what: str, default=None):
    # Exact types and no conversion: bool("false") is True, int(1.5) is 1,
    # and bool subclasses int, but a JSON true is no number.
    value = obj.get(key, default)
    if key in obj and type(value) not in kinds:
        raise ValueError(f"{key} must be {what}, not {value!r}")
    return value


def _flag(obj: dict, key: str) -> bool:
    return _typed(obj, key, (bool,), "true or false", False)


def load_server_config(path: str | Path) -> ServerConfig:
    """Build a ServerConfig from a JSON file.

    Every configured application is served by echo_handler, the demo;
    real deployments build a ServerConfig with their own handlers in code.
    A relative ``psk_store`` path is resolved against the config file's
    directory. A key the loader does not know, at the top level or in an
    application entry, is an error rather than silently ignored, and so is
    a value of the wrong JSON type, such as a quoted flag or a fractional
    token_ttl. ServerConfig's own checks apply to the values it reads.
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
        name = _typed(entry, "application", (str,), "a string")
        _reject_unknown_keys(entry, _APPLICATION_KEYS, f"application {name!r}")
        registrations.append(
            ApplicationRegistration(
                application=name,
                requires_auth=_flag(entry, "requires_auth"),
                handler=echo_handler,
            )
        )
    psk_secrets: dict[str, bytes] = {}
    store = _typed(data, "psk_store", (str,), "a string")
    if store is not None:
        from .auth import load_psk_store

        store_path = Path(store)
        if not store_path.is_absolute():
            store_path = path.parent / store_path
        psk_secrets = load_psk_store(store_path)
    secret_hex = _typed(data, "token_secret_hex", (str,), "a string")
    token_secret = bytes.fromhex(secret_hex) if secret_hex else secrets.token_bytes(32)
    supported_auth = data.get("supported_auth", [PSK_PROTOCOL_NAME])
    if type(supported_auth) is not list or any(type(p) is not str for p in supported_auth):
        raise ValueError(f"supported_auth must be an array of strings, not {supported_auth!r}")
    return ServerConfig(
        registrations=tuple(registrations),
        token_secret=token_secret,
        supported_auth=tuple(supported_auth),
        psk_secrets=psk_secrets,
        token_ttl=_typed(data, "token_ttl", (int,), "an integer", DEFAULT_TOKEN_TTL),
        handshake_timeout=float(
            _typed(data, "handshake_timeout", (int, float), "a number", DEFAULT_HANDSHAKE_TIMEOUT)
        ),
        single_use_tokens=_flag(data, "single_use_tokens"),
    )


# --- client side ---


def _close_error(state: Closed) -> UspError:
    """The exception a client raises for a handshake that ended in ``state``."""
    cause = state.cause
    detail = state.detail or ""
    if cause is CloseCause.REMOTE_ERROR:
        if detail == NO_SHARED_PROTOCOL_TEXT:
            return NoSharedProtocol(detail)
        return RemoteError(detail)
    if cause is CloseCause.AUTH_FAILED:
        return AuthFailed(detail or "authentication failed")
    if cause is CloseCause.CONNECTION_LOST:
        return ConnectionLost(detail or "connection lost")
    if cause is CloseCause.TIMEOUT:
        return SessionTimeout("handshake timed out")
    return ProtocolViolation(detail or cause.value)


def _open_endpoint(endpoint, timeout: float) -> StreamHandle:
    if isinstance(endpoint, StreamHandle):
        return endpoint
    if isinstance(endpoint, MemoryListener):
        return endpoint.connect()
    if isinstance(endpoint, tuple) and len(endpoint) == 2:
        host, port = endpoint
        return tcp_dial(host, int(port), timeout=timeout)
    raise TypeError(f"unsupported endpoint: {endpoint!r}")


def _client_handshake(
    endpoint,
    offered: Sequence[str],
    requests: Sequence[StreamRequest],
    credentials: Credentials | None,
    registry: Mapping[str, AuthProtocol] | None,
    clock: Clock | None,
    timeout: float,
    trace: list[TraceEntry] | None,
    stop_after_token: bool = False,
):
    """Open ``endpoint`` and run the client handshake to its end.

    The initialize is built first, so a request it cannot carry raises
    ValueError before anything is dialed. Returns the stream, the final
    phase and the last message received; if the handshake raises, the
    stream is closed.
    """
    env = ClientEnv(
        initialize=Initialize(authentication=offered, streams=requests),
        clock=clock or time.time,
        stop_after_token=stop_after_token,
    )
    if registry is None:
        registry = make_registry(psk_protocol())
    stream = _open_endpoint(endpoint, timeout)
    try:
        state, steps, last = _drive(
            stream,
            client_step,
            env,
            initial_client_state(),
            deque([Start()]),
            # None for a protocol the client offered but cannot run.
            lambda protocol: (
                registry[protocol].client(credentials) if protocol in registry else None
            ),
            timeout,
            SERVER_TO_CLIENT,
            CLIENT_TO_SERVER,
        )
    except BaseException:
        stream.close()
        raise
    if trace is not None:
        trace.extend(steps)
    return stream, state, last


def connect(
    endpoint,
    application: str,
    *,
    offered: Sequence[str] = (PSK_PROTOCOL_NAME,),
    credentials: Credentials | None = None,
    token: str | None = None,
    registry: Mapping[str, AuthProtocol] | None = None,
    clock: Clock | None = None,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    trace: list[TraceEntry] | None = None,
) -> tuple[StreamHandle, IdentityContext]:
    """Establish an application session; returns the ready stream.

    ``endpoint`` may be a (host, port) pair, a MemoryListener, or an
    already-open StreamHandle. The stream is application-ready only after
    the server's connect confirmation; on any failure it is closed and
    the matching exception raised.
    """
    requests = (StreamRequest(application=application, token=token),)
    stream, state, _ = _client_handshake(
        endpoint, offered, requests, credentials, registry, clock, timeout, trace
    )
    if isinstance(state, Connected):
        return stream, state.context
    stream.close()
    raise _close_error(state)


def acquire_token(
    endpoint,
    applications: Sequence[str],
    *,
    offered: Sequence[str] = (PSK_PROTOCOL_NAME,),
    credentials: Credentials | None = None,
    registry: Mapping[str, AuthProtocol] | None = None,
    timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    trace: list[TraceEntry] | None = None,
) -> list[tuple[str, str]]:
    """Authenticate and collect bearer tokens without connecting.

    Returns (application, token) pairs for every requested application;
    the session is closed as soon as the token message arrives. The
    caller moves the tokens to their final holder out of band.
    """
    requests = [StreamRequest(application=app) for app in applications]
    stream, state, last = _client_handshake(
        endpoint, offered, requests, credentials, registry, None, timeout, trace,
        stop_after_token=True,
    )
    stream.close()
    if isinstance(state, Connected):
        # The server connected instead of authenticating: nothing requires
        # a token here, so there is nothing to acquire.
        raise ProtocolViolation(
            "server connected without issuing tokens (no authentication required)"
        )
    if state.cause is CloseCause.TOKEN_ACQUIRED:
        # The session closes on the token message, so it came last.
        return [(s.application, s.token or "") for s in last.streams]
    raise _close_error(state)


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
