"""Agent tests: serving, connecting, token acquisition, isolation."""

import json
import random
import threading

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
from usp.auth import AuthMethod, validate_token
from usp.harness import VirtualClock
from usp.transport import MemoryListener, tcp_listen
from usp.wire import Initialize, StreamRequest, encode_frame

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
        import time

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
    record = server.wait_records(1)[0]
    assert record.outcome == "protocol_violation"
    assert server.handler_calls == []
    stream.close()


def test_handshake_timeout_closes_quietly(server):
    import time

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
    assert stream.read(100, timeout=1) == b""
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
        import time

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


def _serve_echo_app(handler):
    """Serve one open "echo" app with ``handler`` on a fresh memory listener."""
    config = ServerConfig(
        registrations=(ApplicationRegistration("echo", False, handler),),
        token_secret=SECRET,
    )
    listener = MemoryListener()
    handle = serve(listener, config, clock=VirtualClock(), rng=random.Random(0))
    return listener, handle


def _wait_for(predicate, timeout=5.0):
    import time

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
    import time

    release = threading.Event()
    started = threading.Semaphore(0)

    def stubborn(stream, ctx):
        # Ignores the stream that shutdown() closes under it.
        started.release()
        release.wait(10)

    listener, handle = _serve_echo_app(stubborn)
    try:
        for i in range(4):
            connect(listener, "echo", clock=VirtualClock(), rng=random.Random(i))
        for _ in range(4):
            assert started.acquire(timeout=5)
        began = time.monotonic()
        handle.shutdown(timeout=0.3)
        elapsed = time.monotonic() - began
    finally:
        release.set()
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
        import time

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
