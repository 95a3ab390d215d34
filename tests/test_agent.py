"""Agent tests: serving, connecting, token acquisition, isolation."""

import gc
import json
import random
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import pytest

from usp import agent
from usp.agent import (
    ApplicationRegistration,
    AuthFailed,
    Credentials,
    DEFAULT_PORT,
    MalformedTarget,
    NoSharedProtocol,
    RemoteError,
    ServerConfig,
    acquire_token,
    connect,
    echo_handler,
    load_server_config,
    parse_target,
    serve,
)
from usp.auth import (
    AuthHandle,
    AuthMethod,
    AuthProtocol,
    AuthStatus,
    AuthStep,
    decode_token,
    issue_token,
    make_registry,
    validate_token,
)
from usp.errors import UspError
from usp.harness import VirtualClock
from usp.session import EARLY_DATA_TEXT, ServerEnv
from usp.transport import (
    ConnectionLost,
    FrameChannel,
    MemoryListener,
    StreamHandle,
    TransportError,
    tcp_listen,
)
from usp.wire import (
    MAX_STREAMS,
    Error,
    Initialize,
    StreamRequest,
    decode_frame,
    encode_frame,
    message_name,
)

ALICE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
SECRET = b"agent test token secret 0123456789"


class Fixture:
    def __init__(self, clock=None, **config_overrides):
        self.clock = clock or VirtualClock()
        self.handler_calls = []

        def counting_echo(stream, ctx):
            self.handler_calls.append(ctx)
            echo_handler(stream, ctx)

        defaults = dict(
            registrations=(
                ApplicationRegistration("echo", False, counting_echo),
                ApplicationRegistration("vault", True, counting_echo),
                ApplicationRegistration("files", True, counting_echo),
            ),
            token_secret=SECRET,
            psk_secrets={"alice": ALICE_KEY},
        )
        defaults.update(config_overrides)
        self.config = ServerConfig(**defaults)
        self.listener = MemoryListener()
        self.handle = serve(
            self.listener, self.config, clock=self.clock, rng=random.Random(0)
        )

    def connect(self, application, **kwargs):
        kwargs.setdefault("clock", self.clock)
        return connect(self.listener, application, **kwargs)

    def acquire(self, applications, **kwargs):
        kwargs.setdefault("credentials", Credentials("alice", ALICE_KEY))
        return acquire_token(self.listener, applications, **kwargs)

    def wait_records(self, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            records = self.handle.records()
            if len(records) >= count:
                return records
            time.sleep(0.002)
        raise AssertionError(f"only {len(self.handle.records())} records after {timeout}s")

    def shutdown(self):
        self.handle.shutdown()


@pytest.fixture
def server():
    fixture = Fixture()
    yield fixture
    fixture.shutdown()


def test_echo_roundtrip_after_handoff(server):
    stream, ctx = server.connect("echo")
    assert ctx.method is AuthMethod.NONE_REQUIRED
    stream.write(b"hi")
    assert stream.read(10) == b"hi"
    stream.close()
    records = server.wait_records(1)
    assert records[0].outcome == "handed_off"
    assert records[0].application == "echo"


def test_handler_receives_data_only_after_connect(server):
    stream, _ = server.connect("echo")
    stream.write(b"first bytes")
    assert stream.read(100) == b"first bytes"
    stream.close()


def test_authenticated_connect_identity_fidelity(server):
    stream, ctx = server.connect("vault", credentials=Credentials("alice", ALICE_KEY))
    assert ctx.identity == "alice"
    assert ctx.method is AuthMethod.PROTOCOL
    assert ctx.protocol == "psk-cr"
    stream.close()
    record = server.wait_records(1)[0]
    assert record.identity == "alice"
    assert record.method == "protocol"


def test_failed_auth_never_reaches_handler(server):
    wrong = bytes.fromhex("00112233445566778899aabbccddee00")
    with pytest.raises(AuthFailed):
        server.connect("vault", credentials=Credentials("alice", wrong))
    record = server.wait_records(1)[0]
    assert record.outcome == "auth_failed"
    assert server.handler_calls == []


def test_unknown_identity_fails(server):
    with pytest.raises(AuthFailed):
        server.connect("vault", credentials=Credentials("mallory", ALICE_KEY))
    assert server.handler_calls == []


def test_missing_credentials_fails_locally(server):
    with pytest.raises(AuthFailed):
        server.connect("vault")
    assert server.handler_calls == []


def test_unhosted_application_is_remote_error(server):
    with pytest.raises(RemoteError) as exc:
        server.connect("ghost")
    assert "ghost" in str(exc.value)


def test_no_shared_protocol_error(server):
    with pytest.raises(NoSharedProtocol):
        server.connect("vault", offered=("x25519-psk",))


def test_acquire_token_for_multiple_applications(server):
    tokens = dict(server.acquire(["vault", "files"]))
    assert set(tokens) == {"vault", "files"}
    for app, token in tokens.items():
        ctx = validate_token(token, app, server.clock, SECRET)
        assert ctx.identity == "alice"


def test_acquire_with_bad_credentials_yields_no_tokens(server):
    with pytest.raises(AuthFailed):
        server.acquire(["vault"], credentials=Credentials("alice", b"\x00" * 16))


def test_acquire_for_open_application_is_an_error(server):
    from usp.agent import ProtocolViolation

    with pytest.raises(ProtocolViolation):
        server.acquire(["echo"])


def test_acquire_requires_an_offer(server):
    with pytest.raises(ValueError):
        server.acquire(["vault"], offered=())


def test_client_checks_its_initialize_before_it_dials(server):
    with pytest.raises(ValueError, match=f"{MAX_STREAMS + 1} streams"):
        server.acquire([f"app{i}" for i in range(MAX_STREAMS + 1)])
    server.shutdown()
    assert server.handle.records() == []


def test_client_closes_its_stream_when_the_handshake_raises(server):
    class BrokenPsk(AuthProtocol):
        name = "psk-cr"

        def client(self, credentials):
            raise RuntimeError("begin failed")

    with pytest.raises(RuntimeError, match="begin failed"):
        server.connect(
            "vault",
            credentials=Credentials("alice", ALICE_KEY),
            registry=make_registry(BrokenPsk()),
        )
    # The server sees the close at once; a leaked stream would keep it
    # waiting, since its virtual clock never reaches the deadline.
    (record,) = server.wait_records(1)
    assert record.outcome == "connection_lost"
    assert server.handler_calls == []


def test_token_passing_completes_in_two_messages(server):
    tokens = dict(server.acquire(["vault"]))
    trace = []
    stream, ctx = server.connect("vault", token=tokens["vault"], trace=trace)
    assert ctx.method is AuthMethod.TOKEN
    assert ctx.identity == "alice"
    assert [(e.direction, e.name) for e in trace] == [
        ("c2s", "initialize"),
        ("s2c", "connect"),
    ]
    stream.close()


def test_bearer_token_is_reusable_by_default(server):
    tokens = dict(server.acquire(["vault"]))
    for _ in range(2):
        stream, ctx = server.connect("vault", token=tokens["vault"])
        assert ctx.identity == "alice"
        stream.close()


def test_single_use_token_rejected_on_replay():
    fixture = Fixture(single_use_tokens=True)
    try:
        tokens = dict(fixture.acquire(["vault"]))
        stream, _ = fixture.connect("vault", token=tokens["vault"])
        stream.close()
        # Replay: validation fails, negotiation restarts, and with no
        # credentials the client cannot finish.
        with pytest.raises(AuthFailed):
            fixture.connect("vault", token=tokens["vault"])
    finally:
        fixture.shutdown()


@pytest.mark.parametrize("single_use", [False, True])
def test_config_env_validates_tokens_as_configured(single_use):
    config = ServerConfig(
        registrations=(ApplicationRegistration("vault", True, echo_handler),),
        token_secret=SECRET,
        single_use_tokens=single_use,
    )
    clock = VirtualClock()
    env = config.env(clock, random.Random(0))
    assert env.applications == {"vault": True}
    token = issue_token("alice", "vault", 60, clock, SECRET, random.Random(1)).encode()
    assert env.token_valid(token, "vault").identity == "alice"
    replay = env.token_valid(token, "vault")
    assert (replay is None) is single_use


def test_concurrent_sessions_are_isolated(server):
    outcomes = []
    lock = threading.Lock()

    def one_session(i):
        stream, _ = server.connect("echo")
        payload = f"msg-{i}".encode()
        stream.write(payload)
        data = stream.read(100)
        stream.close()
        with lock:
            outcomes.append(data == payload)

    threads = [threading.Thread(target=one_session, args=(i,)) for i in range(50)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert outcomes == [True] * 50
    server.wait_records(50)
    assert server.handle.handoff_count == 50
    assert len(server.handler_calls) == 50


def test_failed_session_does_not_affect_later_ones(server):
    with pytest.raises(RemoteError):
        server.connect("ghost")
    stream, _ = server.connect("echo")
    stream.write(b"still alive")
    assert stream.read(100) == b"still alive"
    stream.close()


def test_data_before_connect_aborts_handoff(server):
    stream = server.listener.connect()
    first = encode_frame(
        Initialize(authentication=("psk-cr",), streams=(StreamRequest("echo"),))
    )
    # The application payload rides in the same write as the initialize,
    # so it is already buffered when the server decides to hand off.
    stream.write(first + b"EAGER DATA")
    chan = FrameChannel(stream)
    assert chan.recv(deadline=time.monotonic() + 5) == Error(
        "protocol violation: application data before connect"
    )
    # Nothing follows the error frame. The server closed with input still
    # unread, so the socketpair may report a reset instead of a clean EOF.
    try:
        assert chan.recv(deadline=time.monotonic() + 5) is None
    except ConnectionLost:
        pass
    record = server.wait_records(1)[0]
    assert record.outcome == "protocol_violation"
    assert [(e.direction, e.name) for e in record.trace] == [
        ("c2s", "initialize"),
        ("s2c", "error"),
    ]
    assert server.handler_calls == []
    stream.close()


def test_data_sent_while_the_server_steps_aborts_handoff():
    # The early bytes arrive after the initialize was read, while the server
    # checks its token, so only a peek taken at handoff can see them.
    client_end = []

    class WritesDuringTokenCheck(ServerEnv):
        def token_valid(self, token, application):
            client_end[0].write(b"EARLY")
            return super().token_valid(token, application)

    handler_calls = []
    clock = VirtualClock()
    env = WritesDuringTokenCheck(
        applications={"vault": True},
        supported_auth=("psk-cr",),
        token_secret=SECRET,
        clock=clock,
        rng=random.Random(0),
    )
    listener = MemoryListener()
    handle = agent.ServerHandle(
        listener, env, {}, {"vault": lambda stream, ctx: handler_calls.append(ctx)}, 5.0
    )
    try:
        token = issue_token("alice", "vault", 3600, clock, SECRET, random.Random(1)).encode()
        stream = listener.connect()
        client_end.append(stream)
        stream.write(
            encode_frame(
                Initialize(authentication=("psk-cr",), streams=(StreamRequest("vault", token),))
            )
        )
        assert FrameChannel(stream).recv(deadline=time.monotonic() + 5) == Error(EARLY_DATA_TEXT)
        _wait_for(lambda: handle.records())
        record = handle.records()[0]
        assert record.outcome == "protocol_violation"
        assert [(e.direction, e.name) for e in record.trace] == [
            ("c2s", "initialize"),
            ("s2c", "error"),
        ]
        assert handler_calls == [] and handle.handoff_count == 0
        stream.close()
    finally:
        handle.shutdown()


def test_cut_during_server_connect_is_connection_lost(server):
    first = encode_frame(
        Initialize(authentication=("psk-cr",), streams=(StreamRequest("echo"),))
    )
    # The cut falls inside the server's connect frame.
    stream = server.listener.connect(drop_at_byte=len(first) + 3)
    with pytest.raises(ConnectionLost):
        connect(stream, "echo", clock=server.clock)
    record = server.wait_records(1)[0]
    assert record.outcome == "connection_lost"
    assert [(e.direction, e.name) for e in record.trace] == [("c2s", "initialize")]
    assert server.handler_calls == []


class _Tap(StreamHandle):
    """A client stream that keeps every byte crossing it, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.peer_label = inner.peer_label
        self.chunks = []

    def read(self, n, timeout=None):
        data = self.inner.read(n, timeout)
        self.chunks.append(("s2c", data))
        return data

    def write(self, data):
        self.inner.write(data)
        self.chunks.append(("c2s", data))

    def pending(self):
        return self.inner.pending()

    def close(self):
        self.inner.close()


def _handshake_frames(server, **kwargs):
    """(direction, name, encoded size) of each frame of one clean connect."""
    tap = _Tap(server.listener.connect())
    stream, _ = connect(tap, "vault", clock=server.clock, **kwargs)
    stream.close()
    unread = {"c2s": b"", "s2c": b""}
    frames = []
    for direction, data in tap.chunks:
        buf = unread[direction] + data
        while len(buf) >= 4 and len(buf) >= (size := 4 + int.from_bytes(buf[:4], "big")):
            frames.append((direction, message_name(decode_frame(buf[:size])), size))
            buf = buf[size:]
        unread[direction] = buf
    assert sum(size for *_, size in frames) == sum(len(data) for _, data in tap.chunks)
    return frames


def test_client_exception_at_every_cut_of_an_authenticated_connect(server):
    alice = Credentials("alice", ALICE_KEY)
    frames = _handshake_frames(server, credentials=alice)
    names = [(direction, name) for direction, name, _ in frames]
    assert names == [
        ("c2s", "initialize"), ("s2c", "authenticate"), ("s2c", "authdata"),
        ("c2s", "authdata"), ("s2c", "token"), ("c2s", "initialize"), ("s2c", "connect"),
    ]
    # Cut inside frame k: the first two frames leave the client before any
    # authentication, frames 2-4 fall inside it, the last two after it.
    expected = [ConnectionLost] * 2 + [AuthFailed] * 3 + [ConnectionLost] * 2
    start = 0
    for k, (_, _, size) in enumerate(frames):
        for offset in range(max(start, 1), start + size):
            stream = server.listener.connect(drop_at_byte=offset)
            trace = []
            with pytest.raises(UspError) as info:
                connect(stream, "vault", credentials=alice, clock=server.clock,
                        trace=trace)
            assert type(info.value) is expected[k], (offset, names[k])
            assert [(e.direction, e.name) for e in trace] == names[:k], offset
        start += size
    assert len(server.handler_calls) == 1  # the clean run only


def test_header_then_eof_is_connection_lost(server):
    stream = server.listener.connect()
    # A header announcing a 16-byte body, and then end-of-stream.
    stream.write(b"\x00\x00\x00\x10")
    stream.shutdown_write()
    record = server.wait_records(1)[0]
    assert record.outcome == "connection_lost"
    assert record.trace == ()
    assert server.handler_calls == []
    stream.close()


def test_handshake_timeout_closes_quietly():
    server = Fixture(handshake_timeout=0.2)
    try:
        stream = server.listener.connect()
        record = server.wait_records(1)[0]
        assert record.outcome == "timeout"
        assert record.trace == ()
        assert stream.read(10, timeout=1) == b""
        stream.close()
    finally:
        server.shutdown()


class _WatchedClock(VirtualClock):
    """A VirtualClock that says when it was first read."""

    def __init__(self):
        super().__init__()
        self.read = threading.Event()

    def __call__(self) -> float:
        self.read.set()
        return super().__call__()


def _silent_peer_after_clock_step(step: float, handshake_timeout: float):
    """A server whose clock steps by ``step`` once it started a session."""
    server = Fixture(clock=_WatchedClock(), handshake_timeout=handshake_timeout)
    stream = server.listener.connect()
    # The session stamps its start on the clock before it drives the handshake.
    assert server.clock.read.wait(5)
    server.clock.advance(step)
    return server, stream


def test_backward_clock_step_does_not_extend_a_handshake():
    server, stream = _silent_peer_after_clock_step(-3600, handshake_timeout=0.3)
    try:
        (record,) = server.wait_records(1, timeout=1.5)
        assert record.outcome == "timeout"
    finally:
        stream.close()
        server.shutdown()


def test_forward_clock_step_does_not_cut_a_handshake_short():
    server, stream = _silent_peer_after_clock_step(3600, handshake_timeout=2.0)
    try:
        connect(stream, "echo", clock=server.clock)
        stream.close()
        (record,) = server.wait_records(1)
        assert record.outcome == "handed_off"
    finally:
        stream.close()
        server.shutdown()


def test_client_timeout_ignores_a_stopped_clock():
    listener = MemoryListener()
    outcome = []

    def dial():
        try:
            connect(listener, "echo", clock=VirtualClock(), timeout=0.2)
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=dial, daemon=True)
    started = time.monotonic()
    thread.start()
    server_end = listener.accept()
    try:
        thread.join(2)
        assert not thread.is_alive()
        assert time.monotonic() - started < 2
        assert [type(exc) for exc in outcome] == [agent.SessionTimeout]
    finally:
        server_end.close()
        listener.close()


def test_strict_mode_answers_garbage_with_error(server):
    from usp.harness import MALFORMED_FRAME_PROBE

    stream = server.listener.connect()
    stream.write(MALFORMED_FRAME_PROBE)
    record = server.wait_records(1)[0]
    assert record.outcome == "malformed"
    assert [(e.direction, e.name) for e in record.trace] == [
        ("c2s", "malformed"),
        ("s2c", "error"),
    ]
    stream.close()


def hostile_initialize(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize(
    "payload",
    [
        # Nested 1000 deep: the JSON parser gives up with a RecursionError.
        hostile_initialize(
            b'{"message":"initialize","authentication":%s%s,"streams":[]}'
            % (b"[" * 1000, b"]" * 1000)
        ),
        # Valid but for its 2846 open streams, in 65 526 bytes.
        hostile_initialize(
            b'{"message":"initialize","authentication":["psk-cr"],"streams":[%s]}'
            % b",".join([b'{"application":"echo"}'] * 2846)
        ),
        # Valid but for its 16 364 one-character protocols, in 65 534 bytes.
        hostile_initialize(
            b'{"message":"initialize","authentication":[%s],"streams":[{"application":"echo"}]}'
            % b",".join([b'"a"'] * 16364)
        ),
        # No message holds a number; int() would refuse a literal this long.
        hostile_initialize(
            b'{"message":"initialize","authentication":[%s],"streams":[{"application":"echo"}]}'
            % (b"1" * 5000)
        ),
        # If the last key won, this would decode as a connect.
        hostile_initialize(b'{"message":"error","message":"connect","application":"echo"}'),
    ],
    ids=["nested-1000-deep", "2846-streams", "16364-protocols", "5000-digit-integer", "duplicate-key"],
)
def test_hostile_initialize_ends_malformed_with_an_error_frame(server, payload):
    stream = server.listener.connect()
    stream.write(payload)
    record = server.wait_records(1)[0]
    assert record.outcome == "malformed"
    assert [(e.direction, e.name) for e in record.trace] == [
        ("c2s", "malformed"),
        ("s2c", "error"),
    ]
    chan = FrameChannel(stream)
    assert isinstance(chan.recv(), Error)
    assert chan.recv() is None
    assert server.handle.handoff_count == 0 and server.handler_calls == []
    stream.close()


def test_oversize_prefix_closed_silently(server):
    # Raw legacy-protocol bytes read as an absurd length prefix; the
    # session ends with no frame in reply even in strict mode.
    stream = server.listener.connect()
    stream.write(b"GET / HTTP/1.1\r\n\r\n")
    record = server.wait_records(1)[0]
    assert record.outcome == "malformed"
    assert record.detail == "oversize"
    assert [(e.direction, e.name) for e in record.trace] == [("c2s", "malformed")]
    # The server closed with the rest of the probe unread, so the
    # socketpair reports a reset; any reply byte would be returned instead.
    with pytest.raises(ConnectionLost):
        stream.read(100, timeout=1)
    stream.close()


def test_handler_exception_is_isolated():
    fixture = Fixture()

    def broken_handler(stream, ctx):
        raise RuntimeError("handler bug")

    fixture.shutdown()
    config = ServerConfig(
        registrations=(ApplicationRegistration("echo", False, broken_handler),),
        token_secret=SECRET,
    )
    listener = MemoryListener()
    handle = serve(listener, config, clock=VirtualClock(), rng=random.Random(0))
    try:
        stream, _ = connect(listener, "echo", clock=VirtualClock())
        stream.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not handle.records():
            time.sleep(0.002)
        (record,) = handle.records()
        assert record.outcome == "handed_off"
        assert "handler bug" in (record.detail or "")
        # The server still accepts new sessions.
        stream, _ = connect(listener, "echo", clock=VirtualClock())
        stream.close()
    finally:
        handle.shutdown()


def _serve_echo_app(handler, listener=None, **serve_kwargs):
    """Serve one open "echo" app with ``handler``, by default on a fresh memory listener."""
    config = ServerConfig(
        registrations=(ApplicationRegistration("echo", False, handler),),
        token_secret=SECRET,
    )
    if listener is None:
        listener = MemoryListener()
    handle = serve(listener, config, clock=VirtualClock(), rng=random.Random(0), **serve_kwargs)
    return listener, handle


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def test_sequential_sessions_reuse_worker_threads():
    seen = []

    def handler(stream, ctx):
        seen.append(threading.current_thread())
        echo_handler(stream, ctx)

    listener, handle = _serve_echo_app(handler)
    try:
        for i in range(20):
            stream, _ = connect(listener, "echo", clock=VirtualClock())
            stream.write(b"ping")
            assert stream.read(10) == b"ping"
            stream.close()
            _wait_for(lambda: len(handle.records()) == i + 1)
    finally:
        handle.shutdown()
    assert len(seen) == 20
    # A finished session frees its worker for the next connection; only
    # an accept that races a worker's return starts another thread.
    assert len(set(seen)) <= 3
    for thread in seen:
        thread.join(5)
        assert not thread.is_alive()


def test_busy_sessions_never_delay_a_new_handshake():
    barrier = threading.Barrier(8, timeout=5)
    seen = []

    def handler(stream, ctx):
        seen.append(threading.current_thread())
        barrier.wait()
        stream.write(b"passed")
        stream.close()

    listener, handle = _serve_echo_app(handler)
    try:
        # Each handler blocks until all 8 have been handed off, so every
        # handshake after the first needs a new worker at once. The client's
        # real-time clock turns a handshake left waiting into a timeout.
        streams = [connect(listener, "echo", timeout=5)[0] for _ in range(8)]
        for stream in streams:
            assert stream.read(10, timeout=5) == b"passed"
            stream.close()
        _wait_for(lambda: len(handle.records()) == 8)
    finally:
        handle.shutdown()
    assert all(r.outcome == "handed_off" and r.detail is None for r in handle.records())
    assert len(set(seen)) == 8
    for thread in seen:
        thread.join(5)
        assert not thread.is_alive()


def test_pool_serves_every_connection_under_switch_stress():
    import sys

    listener, handle = _serve_echo_app(echo_handler)
    done = []

    def client(i):
        for _ in range(10):
            stream, _ = connect(listener, "echo", clock=VirtualClock())
            stream.write(b"x")
            assert stream.read(10) == b"x"
            stream.close()
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # More clients than cores; a connection queued with no worker to
        # take it would leave its client waiting forever.
        clients = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(20)
            assert not t.is_alive()
        _wait_for(lambda: len(handle.records()) == 80)
    finally:
        sys.setswitchinterval(interval)
        handle.shutdown()
    assert sorted(done) == list(range(8))
    assert handle.handoff_count == 80


def test_shutdown_timeout_bounds_the_whole_call():
    release = threading.Event()
    started = threading.Semaphore(0)

    def stubborn(stream, ctx):
        # Ignores the stream that shutdown() closes under it.
        started.release()
        release.wait(10)

    listener, handle = _serve_echo_app(stubborn)
    streams = []
    try:
        for _ in range(4):
            streams.append(connect(listener, "echo", clock=VirtualClock())[0])
        for _ in range(4):
            assert started.acquire(timeout=5)
        began = time.monotonic()
        handle.shutdown(timeout=0.3)
        elapsed = time.monotonic() - began
    finally:
        release.set()
        for stream in streams:
            stream.close()
    # One join timeout per stuck worker would take at least 4 x 0.3 s.
    assert elapsed < 0.9


class _NameOnly(AuthProtocol):
    """A toy one-round protocol in which the client speaks first.

    The client sends its identity; the server accepts "carol" alone.
    """

    name = "toy"
    max_rounds = 2

    def server(self, rng):
        return _NameOnlyServer(self.max_rounds)

    def client(self, credentials):
        return _NameOnlyClient(credentials, self.max_rounds)


class _NameOnlyServer(AuthHandle):
    def _advance(self, incoming):
        if incoming is None:
            return AuthStep(status=AuthStatus.PENDING)
        if incoming == b"carol":
            return AuthStep(status=AuthStatus.SUCCESS, identity="carol")
        return AuthStep(status=AuthStatus.FAIL, reason="unknown identity")


class _NameOnlyClient(AuthHandle):
    def __init__(self, credentials, max_rounds):
        super().__init__(max_rounds)
        self._identity = credentials.identity

    def _advance(self, incoming):
        return AuthStep(
            status=AuthStatus.SUCCESS, outgoing=self._identity.encode(), identity=self._identity
        )


def test_a_plugged_in_protocol_completes_a_handshake_on_both_sides():
    contexts = []

    def handler(stream, ctx):
        contexts.append(ctx)
        echo_handler(stream, ctx)

    config = ServerConfig(
        registrations=(ApplicationRegistration("vault", True, handler),),
        token_secret=SECRET,
        supported_auth=("toy",),
    )
    registry = make_registry(_NameOnly())
    listener = MemoryListener()
    handle = serve(listener, config, clock=VirtualClock(), rng=random.Random(0), registry=registry)
    try:
        stream, ctx = connect(
            listener,
            "vault",
            offered=("toy",),
            credentials=Credentials("carol", b"unused"),
            registry=registry,
        )
        stream.close()
        _wait_for(lambda: len(handle.records()) == 1)
    finally:
        handle.shutdown()
    (served,) = contexts
    for got in (ctx, served):
        assert (got.identity, got.method, got.protocol) == ("carol", AuthMethod.PROTOCOL, "toy")
    (record,) = handle.records()
    assert record.outcome == "handed_off"
    assert [(e.direction, e.name) for e in record.trace if e.name != "authdata"] == [
        ("c2s", "initialize"),
        ("s2c", "authenticate"),
        ("s2c", "token"),
        ("c2s", "initialize"),
        ("s2c", "connect"),
    ]


def test_internal_error_record_spans_the_session():
    class Broken(AuthProtocol):
        name = "broken"

        def server(self, rng):
            raise RuntimeError("begin failed")

    config = ServerConfig(
        registrations=(ApplicationRegistration("vault", True, echo_handler),),
        token_secret=SECRET,
        supported_auth=("broken",),
    )
    listener = MemoryListener()
    handle = serve(listener, config, rng=random.Random(0), registry=make_registry(Broken()))
    stream = listener.connect()
    try:
        # The session starts when a worker takes the connection, a moment
        # after the dial, and the client holds its initialize back 0.3 s;
        # a start stamped only after the failure would span almost nothing.
        time.sleep(0.3)
        stream.write(
            encode_frame(Initialize(authentication=("broken",), streams=(StreamRequest("vault"),)))
        )
        _wait_for(lambda: handle.records())
    finally:
        stream.close()
        handle.shutdown()
    (record,) = handle.records()
    assert record.outcome == "internal_error"
    assert "begin failed" in (record.detail or "")
    assert record.ended_at - record.started_at >= 0.2


def test_observer_sees_every_record_in_order():
    observed = []
    listener, handle = _serve_echo_app(echo_handler, observer=observed.append)
    try:
        for i in range(10):
            stream, _ = connect(listener, "echo", clock=VirtualClock())
            stream.close()
            _wait_for(lambda: len(observed) == i + 1)
        assert len(handle.records()) == 10
        assert [id(r) for r in observed] == [id(r) for r in handle.records()]
    finally:
        handle.shutdown()


class _WatchedListener(MemoryListener):
    """A MemoryListener that counts threads waiting in accept and keeps a
    weak reference to every stream it hands out."""

    def __init__(self):
        super().__init__()
        self.accepted = []
        self.waiting = set()

    def accept(self):
        me = threading.current_thread()
        self.waiting.add(me)
        try:
            stream = super().accept()
        finally:
            self.waiting.discard(me)
        self.accepted.append(weakref.ref(stream))
        return stream


def test_server_keeps_no_finished_stream():
    listener, handle = _serve_echo_app(echo_handler, _WatchedListener())
    try:
        for _ in range(50):
            stream, _ = connect(listener, "echo", clock=VirtualClock())
            stream.close()
        _wait_for(lambda: len(handle.records()) == 50)
        # The server is still running: neither its bookkeeping nor an idle
        # worker may hold a finished session's stream.
        gc.collect()
        assert len(listener.accepted) == 50
        assert [ref for ref in listener.accepted if ref() is not None] == []
    finally:
        handle.shutdown()


def test_shutdown_wakes_every_worker_waiting_in_accept():
    gate = threading.Barrier(3, timeout=5)

    def handler(stream, ctx):
        gate.wait()
        stream.close()

    listener, handle = _serve_echo_app(handler, _WatchedListener())
    try:
        # Two sessions at once grow the pool to three workers.
        streams = [connect(listener, "echo", clock=VirtualClock())[0] for _ in range(2)]
        gate.wait()
        for stream in streams:
            stream.close()
        _wait_for(lambda: len(listener.waiting) == 3)
        workers = set(listener.waiting)
    finally:
        handle.shutdown()
    assert not [w for w in workers if w.is_alive()]
    assert handle.handoff_count == 2


def test_connection_accepted_after_shutdown_began_is_closed():
    class GatedListener(MemoryListener):
        """Holds accept back until shutdown() closes the listener."""

        def __init__(self):
            super().__init__()
            self.gate = threading.Event()

        def accept(self):
            self.gate.wait(5)
            return super().accept()

        def close(self):
            super().close()
            self.gate.set()

    listener, handle = _serve_echo_app(echo_handler, GatedListener())
    # Queued before shutdown(), accepted only after it began.
    client = listener.connect()
    try:
        handle.shutdown(timeout=1)
        assert client.read(10, timeout=2) == b""
        assert handle.records() == []
    finally:
        client.close()


def test_server_retries_accept_after_emfile(flaky_listener):
    listener = flaky_listener(failures=3)
    _, handle = _serve_echo_app(echo_handler, listener)
    try:
        stream, _ = connect(("127.0.0.1", listener.port), "echo", timeout=5)
        stream.write(b"ping")
        assert stream.read(10, timeout=5) == b"ping"
        stream.close()
        assert listener._sock.failures == 0
        assert all(worker.is_alive() for worker in handle._workers)
    finally:
        handle.shutdown()


# A TCP server whose process has no free descriptor when serve() starts
# and gets them back 0.2 s later. Every name is imported and the listener
# bound before the descriptors are taken: those need descriptors too.
_EMFILE_SERVER = """
import errno, json, os, queue, resource, time
from usp.agent import ApplicationRegistration, ServerConfig, serve
from usp.transport import tcp_listen

resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
listener = tcp_listen("127.0.0.1", 0)
real_accept, emfile_accepts = listener.accept, []

def accept():
    try:
        return real_accept()
    except OSError as exc:
        emfile_accepts.append(exc.errno == errno.EMFILE)
        raise

listener.accept = accept
records = queue.Queue()
config = ServerConfig(
    registrations=(ApplicationRegistration("echo", False, lambda stream, ctx: None),),
    token_secret=b"emfile test secret",
)
held = []
while True:
    try:
        held.append(os.open(os.devnull, os.O_RDONLY))
    except OSError:
        break
handle = serve(listener, config, observer=records.put)
print(listener.port, flush=True)
time.sleep(0.2)
for fd in held:
    os.close(fd)
record = records.get(timeout=10)
handle.shutdown()
print(json.dumps({"outcome": record.outcome, "emfile_accepts": emfile_accepts}), flush=True)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs Linux RLIMIT_NOFILE and accept()")
def test_server_accepts_again_once_descriptors_free_up():
    # The client is this process: it needs a descriptor the server lacks.
    proc = subprocess.Popen(
        [sys.executable, "-c", _EMFILE_SERVER],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline())
        stream, ctx = connect(("127.0.0.1", port), "echo", timeout=5)
        stream.close()
        out, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert ctx.application == "echo"
    report = json.loads(out)
    assert report["outcome"] == "handed_off"
    # The worker met EMFILE, and nothing else, before it accepted.
    assert report["emfile_accepts"] and all(report["emfile_accepts"])


def test_shutdown_wakes_a_worker_backing_off_from_accept(flaky_listener):
    listener = flaky_listener(failures=10**9)
    _, handle = _serve_echo_app(echo_handler, listener)
    # By now the worker waits out a back-off of several hundred ms.
    time.sleep(0.7)
    started = time.monotonic()
    handle.shutdown()
    assert time.monotonic() - started < 0.5
    assert not any(worker.is_alive() for worker in handle._workers)


def test_serve_over_tcp(server):
    listener = tcp_listen("127.0.0.1", 0)
    handle = serve(listener, server.config, clock=server.clock, rng=random.Random(0))
    try:
        stream, ctx = connect(
            ("127.0.0.1", listener.port), "echo", clock=server.clock
        )
        assert ctx.identity == "anonymous"
        stream.write(b"tcp bytes")
        assert stream.read(100) == b"tcp bytes"
        stream.close()
    finally:
        handle.shutdown()


@pytest.mark.parametrize(
    "call",
    [lambda endpoint: connect(endpoint, "echo"), lambda endpoint: acquire_token(endpoint, ["echo"])],
    ids=["connect", "acquire_token"],
)
def test_dial_to_a_port_out_of_range_is_a_transport_error(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TransportError):
            call(("127.0.0.1", 99999))
        gc.collect()
    # The socket made for the dial is closed, not left to the collector.
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# --- configuration ---


def test_server_config_rejects_duplicates():
    with pytest.raises(ValueError):
        ServerConfig(
            registrations=(
                ApplicationRegistration("echo", False, echo_handler),
                ApplicationRegistration("echo", True, echo_handler),
            ),
            token_secret=SECRET,
        )


def test_server_config_requires_protocols_for_auth_apps():
    with pytest.raises(ValueError):
        ServerConfig(
            registrations=(ApplicationRegistration("vault", True, echo_handler),),
            token_secret=SECRET,
            supported_auth=(),
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"token_ttl": 0},
        {"token_ttl": -5},
        {"handshake_timeout": 0},
        {"handshake_timeout": -1.0},
        {"handshake_timeout": float("nan")},
    ],
)
def test_server_config_rejects_nonpositive_durations(bad):
    # A zero ttl fails every token issue, so every psk run would end in
    # internal_error; a zero timeout expires every handshake at once, and
    # a NaN one never expires, so a silent peer would hold its worker.
    with pytest.raises(ValueError, match=next(iter(bad))):
        ServerConfig(
            registrations=(ApplicationRegistration("vault", True, echo_handler),),
            token_secret=SECRET,
            **bad,
        )


@pytest.mark.parametrize(
    "bad", [{"token_secret": b""}, {"psk_secrets": {"alice": ALICE_KEY, "bob": b""}}]
)
def test_server_config_rejects_empty_secrets(bad):
    # Anyone can sign a token, or answer a psk challenge, under an empty key.
    settings = dict(
        registrations=(ApplicationRegistration("vault", True, echo_handler),),
        token_secret=SECRET,
    )
    with pytest.raises(ValueError, match="empty"):
        ServerConfig(**{**settings, **bad})


def test_token_ttl_must_leave_a_token_expiry_inside_its_u64():
    # At 2**63 the first login would crash its session at token issue;
    # 2**63 - 1 still fits issued_at + ttl for any clock below 2**63.
    with pytest.raises(ValueError, match="token_ttl"):
        ServerConfig(
            registrations=(ApplicationRegistration("vault", True, echo_handler),),
            token_secret=SECRET,
            token_ttl=2**63,
        )
    server = Fixture(token_ttl=2**63 - 1)
    try:
        ((application, token),) = server.acquire(["vault"])
    finally:
        server.shutdown()
    assert application == "vault"
    assert decode_token(token).expires_at == int(server.clock()) + 2**63 - 1


def test_an_empty_psk_identity_is_rejected(tmp_path):
    # No protocol may report success for an empty identity, so it could
    # never log in.
    with pytest.raises(ValueError, match="psk identity is empty"):
        ServerConfig(
            registrations=(ApplicationRegistration("vault", True, echo_handler),),
            token_secret=SECRET,
            psk_secrets={"": ALICE_KEY},
        )
    (tmp_path / "psks.json").write_text(json.dumps({"": ALICE_KEY.hex()}))
    config_path = tmp_path / "server.json"
    config_path.write_text(
        json.dumps({"applications": [{"application": "vault"}], "psk_store": "psks.json"})
    )
    with pytest.raises(ValueError, match="psk identity is empty"):
        load_server_config(config_path)


def test_load_server_config_rejects_an_empty_psk_key(tmp_path):
    (tmp_path / "psks.json").write_text(json.dumps({"alice": ""}))
    config_path = tmp_path / "server.json"
    config_path.write_text(
        json.dumps({"applications": [{"application": "echo"}], "psk_store": "psks.json"})
    )
    with pytest.raises(ValueError, match="'alice' is empty"):
        load_server_config(config_path)


def test_serve_rejects_unimplemented_protocols():
    config = ServerConfig(
        registrations=(ApplicationRegistration("vault", True, echo_handler),),
        token_secret=SECRET,
        supported_auth=("spnego",),
    )
    with pytest.raises(ValueError):
        serve(MemoryListener(), config)


def test_connect_requires_offer_or_token():
    with pytest.raises(ValueError):
        connect(MemoryListener(), "echo", offered=())


def test_load_server_config(tmp_path):
    (tmp_path / "psks.json").write_text(json.dumps({"alice": ALICE_KEY.hex()}))
    config_path = tmp_path / "server.json"
    config_path.write_text(
        json.dumps(
            {
                "applications": [
                    {"application": "echo"},
                    {"application": "vault", "requires_auth": True},
                ],
                "supported_auth": ["psk-cr"],
                "psk_store": "psks.json",
                "token_secret_hex": SECRET.hex(),
                "token_ttl": 60,
            }
        )
    )
    config = load_server_config(config_path)
    assert [r.application for r in config.registrations] == ["echo", "vault"]
    assert config.registrations[1].requires_auth is True
    assert config.psk_secrets == {"alice": ALICE_KEY}
    assert config.token_secret == SECRET
    assert config.token_ttl == 60


def readme_config_sample() -> dict:
    """The JSON block under README's "Server configuration file" heading."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Server configuration file\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def test_load_server_config_accepts_every_documented_key(tmp_path):
    sample = readme_config_sample()
    # The sample names every key the loader knows, and no other.
    assert sample.keys() == agent._CONFIG_KEYS
    (tmp_path / sample["psk_store"]).write_text(json.dumps({"alice": ALICE_KEY.hex()}))
    sample["token_secret_hex"] = SECRET.hex()  # README shows a placeholder
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps(sample))
    config = load_server_config(config_path)
    assert config.handshake_timeout == 10.0
    assert config.single_use_tokens is False


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"applications": [{"application": "echo"}], "max_auth_attempts": 2}, "max_auth_attempts"),
        ({"applications": [{"application": "echo"}], "handshake_timeot": 1}, "handshake_timeot"),
        ({"applications": [{"application": "echo", "requires_auht": True}]}, "requires_auht"),
    ],
)
def test_load_server_config_rejects_unknown_keys(tmp_path, data, unknown):
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=unknown):
        load_server_config(config_path)


@pytest.mark.parametrize(
    "data, flag",
    [
        ({"applications": [{"application": "echo", "requires_auth": "true"}]}, "requires_auth"),
        ({"applications": [{"application": "echo", "requires_auth": 1}]}, "requires_auth"),
        ({"applications": [{"application": "echo"}], "single_use_tokens": 1}, "single_use_tokens"),
        ({"applications": [{"application": "echo"}], "token_ttl": True}, "token_ttl"),
        ({"applications": [{"application": "echo"}], "token_ttl": 1.5}, "token_ttl"),
        ({"applications": [{"application": "echo"}], "token_ttl": "60"}, "token_ttl"),
        ({"applications": [{"application": "echo"}], "handshake_timeout": "2"}, "handshake_timeout"),
        ({"applications": [{"application": "echo"}], "handshake_timeout": True}, "handshake_timeout"),
        ({"applications": [{"application": 5}]}, "application"),
        ({"applications": [{"application": "echo"}], "token_secret_hex": 5}, "token_secret_hex"),
        ({"applications": [{"application": "echo"}], "psk_store": ["psks.json"]}, "psk_store"),
        ({"applications": [{"application": "echo"}], "supported_auth": "psk-cr"}, "supported_auth"),
        ({"applications": [{"application": "echo"}], "supported_auth": [1]}, "supported_auth"),
    ],
)
def test_load_server_config_requires_boolean_flags(tmp_path, data, flag):
    # Every value must have its JSON type, with no conversion: bool("false")
    # is True, int(1.5) is 1, and a JSON true would pass for the number 1.
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=flag):
        load_server_config(config_path)


def test_load_server_config_rejects_junk(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValueError):
        load_server_config(bad)


# --- target URLs ---


def test_parse_target_defaults_port():
    assert parse_target("usp://example.org/http") == ("example.org", DEFAULT_PORT, "http")


def test_parse_target_explicit():
    assert parse_target("usp://h:9/a") == ("h", 9, "a")


@pytest.mark.parametrize(
    "url",
    [
        "usp://h/",  # empty application
        "usp://h",  # no application
        "http://h/a",  # wrong scheme
        "usp:///a",  # no host
        "usp://h:99999/a",  # impossible port
        "usp://user@h/a",  # userinfo
        "usp://h/a?x=1",  # query
    ],
)
def test_parse_target_rejects(url):
    with pytest.raises(MalformedTarget):
        parse_target(url)
