"""Agent tests: serving, connecting, token acquisition, isolation."""

import gc
import json
import random
import threading
import time
import weakref

import pytest

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
from usp.auth import AuthMethod, issue_token, validate_token
from usp.errors import UspError
from usp.harness import VirtualClock
from usp.transport import (
    ConnectionLost,
    FaultPlan,
    FrameChannel,
    MemoryListener,
    StreamHandle,
    tcp_listen,
)
from usp.wire import Error, FrameDecoder, Initialize, StreamRequest, encode_frame, message_name

ALICE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
SECRET = b"agent test token secret 0123456789"


class Fixture:
    def __init__(self, **config_overrides):
        self.clock = VirtualClock()
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
        kwargs.setdefault("rng", random.Random(1))
        return connect(self.listener, application, **kwargs)

    def acquire(self, applications, **kwargs):
        kwargs.setdefault("clock", self.clock)
        kwargs.setdefault("rng", random.Random(2))
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
        stream, _ = server.connect("echo", rng=random.Random(100 + i))
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
    assert chan.recv(deadline=time.monotonic() + 5, clock=time.monotonic) == Error(
        "protocol violation: application data before connect"
    )
    # Nothing follows the error frame. The server closed with input still
    # unread, so the socketpair may report a reset instead of a clean EOF.
    try:
        assert chan.recv(deadline=time.monotonic() + 5, clock=time.monotonic) is None
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


def test_cut_during_server_connect_is_connection_lost(server):
    first = encode_frame(
        Initialize(authentication=("psk-cr",), streams=(StreamRequest("echo"),))
    )
    # The cut falls inside the server's connect frame.
    stream = server.listener.connect(FaultPlan(drop_at_byte=len(first) + 3))
    with pytest.raises(ConnectionLost):
        connect(stream, "echo", clock=server.clock, rng=random.Random(1))
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
    stream, _ = connect(tap, "vault", clock=server.clock, rng=random.Random(1), **kwargs)
    stream.close()
    decoders = {"c2s": FrameDecoder(), "s2c": FrameDecoder()}
    frames = []
    for direction, data in tap.chunks:
        decoders[direction].feed(data)
        frames += [(direction, message_name(m), len(encode_frame(m)))
                   for m in decoders[direction].frames()]
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
            stream = server.listener.connect(FaultPlan(drop_at_byte=offset))
            trace = []
            with pytest.raises(UspError) as info:
                connect(stream, "vault", credentials=alice, clock=server.clock,
                        rng=random.Random(1), trace=trace)
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


def test_handshake_timeout_closes_quietly(server):
    stream = server.listener.connect()
    # Each jump exceeds the whole handshake window, so the first jump that
    # lands after the session fixed its deadline forces the timeout.
    for _ in range(100):
        server.clock.advance(60)
        if server.handle.records():
            break
        time.sleep(0.01)
    record = server.wait_records(1)[0]
    assert record.outcome == "timeout"
    assert record.trace == ()
    stream.close()


def test_lenient_coexistence_drops_first_garbage_quietly():
    from usp.harness import MALFORMED_FRAME_PROBE

    fixture = Fixture(lenient_coexistence=True)
    try:
        stream = fixture.listener.connect()
        stream.write(MALFORMED_FRAME_PROBE)
        record = fixture.wait_records(1)[0]
        assert record.outcome == "malformed"
        assert [e.name for e in record.trace] == ["malformed"]
        assert stream.read(100, timeout=1) == b""
        stream.close()
    finally:
        fixture.shutdown()


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
        stream, _ = connect(listener, "echo", clock=VirtualClock(), rng=random.Random(1))
        stream.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not handle.records():
            time.sleep(0.002)
        (record,) = handle.records()
        assert record.outcome == "handed_off"
        assert "handler bug" in (record.detail or "")
        # The server still accepts new sessions.
        stream, _ = connect(listener, "echo", clock=VirtualClock(), rng=random.Random(2))
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
            stream, _ = connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))
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
        streams = [connect(listener, "echo", rng=random.Random(i), timeout=5)[0] for i in range(8)]
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
        for j in range(10):
            stream, _ = connect(
                listener, "echo", clock=VirtualClock(), rng=random.Random(100 * i + j)
            )
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
        for i in range(4):
            streams.append(connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))[0])
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


def test_internal_error_record_spans_the_session():
    from usp.auth import AuthProtocol, make_registry
    from usp.errors import UspError

    class Broken(AuthProtocol):
        name = "broken"

        def begin(self, role, config):
            raise RuntimeError("begin failed")

    class TickingClock:
        def __init__(self):
            self._now = 1_000.0
            self._lock = threading.Lock()

        def __call__(self):
            with self._lock:
                self._now += 1.0
                return self._now

    config = ServerConfig(
        registrations=(ApplicationRegistration("vault", True, echo_handler),),
        token_secret=SECRET,
        supported_auth=("broken",),
    )
    listener = MemoryListener()
    handle = serve(
        listener, config, clock=TickingClock(), rng=random.Random(0),
        registry=make_registry(Broken()),
    )
    try:
        with pytest.raises(UspError):
            connect(listener, "vault", offered=("broken",), rng=random.Random(1))
        _wait_for(lambda: handle.records())
    finally:
        handle.shutdown()
    (record,) = handle.records()
    assert record.outcome == "internal_error"
    assert "begin failed" in (record.detail or "")
    assert record.started_at < record.ended_at
    # _drive_server reads the clock while it waits for the initialize, so a
    # start stamped only after the failure would sit one tick before the end.
    assert record.ended_at - record.started_at > 1.0


def test_observer_sees_every_record_in_order():
    observed = []
    listener, handle = _serve_echo_app(echo_handler, observer=observed.append)
    try:
        for i in range(10):
            stream, _ = connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))
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
        for i in range(50):
            stream, _ = connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))
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
        streams = [
            connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))[0]
            for i in range(2)
        ]
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
            ("127.0.0.1", listener.port), "echo", clock=server.clock, rng=random.Random(1)
        )
        assert ctx.identity == "anonymous"
        stream.write(b"tcp bytes")
        assert stream.read(100) == b"tcp bytes"
        stream.close()
    finally:
        handle.shutdown()


def test_session_log_lines(tmp_path, server):
    import io

    log = io.StringIO()
    listener = MemoryListener()
    handle = serve(listener, server.config, clock=server.clock, rng=random.Random(0), log=log)
    try:
        stream, _ = connect(listener, "echo", clock=server.clock, rng=random.Random(1))
        stream.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not handle.records():
            time.sleep(0.002)
    finally:
        handle.shutdown()
    (line,) = log.getvalue().strip().splitlines()
    entry = json.loads(line)
    assert entry["outcome"] == "handed_off"
    assert entry["application"] == "echo"
    assert entry["identity"] == "anonymous"
    assert entry["trace"][0] == {"dir": "c2s", "msg": "initialize"}


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
                "lenient_coexistence": True,
            }
        )
    )
    config = load_server_config(config_path)
    assert [r.application for r in config.registrations] == ["echo", "vault"]
    assert config.registrations[1].requires_auth is True
    assert config.psk_secrets == {"alice": ALICE_KEY}
    assert config.token_secret == SECRET
    assert config.token_ttl == 60
    assert config.lenient_coexistence is True


def test_load_server_config_accepts_every_documented_key(tmp_path):
    (tmp_path / "psks.json").write_text(json.dumps({"alice": ALICE_KEY.hex()}))
    config_path = tmp_path / "server.json"
    # The full sample of the README's "Server configuration file" section.
    config_path.write_text(
        json.dumps(
            {
                "applications": [{"application": "echo", "requires_auth": False}],
                "supported_auth": ["psk-cr"],
                "psk_store": "psks.json",
                "token_secret_hex": SECRET.hex(),
                "token_ttl": 3600,
                "handshake_timeout": 10.0,
                "lenient_coexistence": False,
                "single_use_tokens": False,
            }
        )
    )
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
