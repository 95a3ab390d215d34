"""Transport tests: memory pairs, TCP adapters, framed channels."""

import errno
import socket
import threading
import time

import pytest

from usp.transport import (
    BindError,
    ConnectRefused,
    ConnectTimeout,
    ConnectionLost,
    FrameChannel,
    ListenerClosed,
    MemoryListener,
    ReadTimeout,
    TcpListener,
    memory_pair,
    tcp_dial,
    tcp_listen,
)
from usp.wire import (
    MAX_FRAME_BYTES,
    Connect,
    Error,
    MalformedKind,
    MalformedMessage,
    encode_frame,
)


@pytest.fixture
def pair():
    """memory_pair(), with every end it made closed after the test."""
    ends = []

    def make(drop_at_byte=None):
        made = memory_pair(drop_at_byte)
        ends.extend(made)
        return made

    yield make
    for end in ends:
        end.close()


# --- memory pair ---


def test_pipe_semantics(pair):
    a, b = pair()
    a.write(b"abc")
    assert b.read(10) == b"abc"
    b.write(b"reply")
    assert a.read(10) == b"reply"


def test_reads_are_ordered_and_splittable(pair):
    a, b = pair()
    a.write(b"hello")
    a.write(b"world")
    assert b.read(3) == b"hel"
    assert b.read(100) == b"loworld"


def test_close_propagates_eof(pair):
    a, b = pair()
    a.close()
    assert b.read(10) == b""


def test_close_drains_pending_bytes_first(pair):
    a, b = pair()
    a.write(b"abc")
    a.close()
    assert b.read(10) == b"abc"
    assert b.read(10) == b""


def test_local_reads_end_after_own_close(pair):
    a, b = pair()
    b.write(b"pending")
    a.close()
    assert a.read(10) == b""
    assert a.read(10, timeout=5) == b""


def test_write_after_peer_close_fails(pair):
    a, b = pair()
    b.close()
    with pytest.raises(ConnectionLost):
        a.write(b"x")


def test_write_after_own_close_fails(pair):
    a, _ = pair()
    a.close()
    with pytest.raises(ConnectionLost):
        a.write(b"x")


def test_shutdown_write_signals_eof_but_keeps_reading(pair):
    a, b = pair()
    a.write(b"req")
    a.shutdown_write()
    assert b.read(10) == b"req"
    assert b.read(10) == b""
    b.write(b"resp")
    assert a.read(10) == b"resp"


def test_read_timeout(pair):
    a, _ = pair()
    with pytest.raises(ReadTimeout):
        a.read(1, timeout=0.01)


def test_read_accepts_a_timeout_beyond_the_poll_limit(pair):
    a, b = pair()
    a.write(b"x")
    # 3e6 s is more milliseconds than poll() can take in one call.
    assert b.read(1, timeout=3e6) == b"x"


def test_blocking_read_wakes_on_write(pair):
    a, b = pair()
    result = []

    def reader():
        result.append(b.read(10))

    thread = threading.Thread(target=reader)
    thread.start()
    time.sleep(0.02)
    a.write(b"late")
    thread.join(2)
    assert result == [b"late"]


def test_fault_plan_drops_at_byte(pair):
    a, b = pair(drop_at_byte=5)
    a.write(b"abcde")
    assert b.read(10) == b"abcde"
    with pytest.raises(ConnectionLost):
        a.write(b"f")
    # The pair stays dead.
    with pytest.raises(ConnectionLost):
        b.write(b"x")


def test_fault_plan_counts_both_directions(pair):
    a, b = pair(drop_at_byte=5)
    a.write(b"abc")
    b.write(b"de")
    with pytest.raises(ConnectionLost):
        a.write(b"f")


def test_fault_plan_delivers_prefix_then_eof(pair):
    a, b = pair(drop_at_byte=5)
    with pytest.raises(ConnectionLost):
        a.write(b"abcdef")
    assert b.read(10, timeout=1) == b"abcde"
    assert b.read(10, timeout=1) == b""


def test_fault_plan_cut_mid_frame_ends_peer_recv_at_once(pair):
    a, b = pair(drop_at_byte=6)
    with pytest.raises(ConnectionLost):
        FrameChannel(a).send(Connect(application="echo"))
    started = time.monotonic()
    with pytest.raises(ConnectionLost):
        FrameChannel(b).recv(deadline=time.monotonic() + 2)
    assert time.monotonic() - started < 0.5


def test_memory_listener_accept_and_close():
    listener = MemoryListener()
    client = listener.connect()
    server = listener.accept()
    client.write(b"ping")
    assert server.read(10) == b"ping"
    client.close()
    server.close()
    listener.close()
    with pytest.raises(ListenerClosed):
        listener.accept()
    with pytest.raises(ConnectRefused):
        listener.connect()


# --- TCP ---


def test_tcp_loopback_roundtrip():
    listener = tcp_listen("127.0.0.1", 0)
    try:
        client = tcp_dial("127.0.0.1", listener.port)
        server = listener.accept()
        client.write(b"over tcp")
        assert server.read(100) == b"over tcp"
        server.write(b"back")
        assert client.read(100) == b"back"
        client.close()
        assert server.read(100) == b""
        server.close()
    finally:
        listener.close()


def test_tcp_dial_refused():
    listener = tcp_listen("127.0.0.1", 0)
    port = listener.port
    listener.close()
    with pytest.raises(ConnectRefused):
        tcp_dial("127.0.0.1", port, timeout=1.0)


def test_tcp_dial_timeout_mapping(monkeypatch):
    # This environment routes every address through a proxy that accepts
    # connections, so a real black-hole dial cannot be staged; check the
    # error mapping at the socket boundary instead.
    def never_connects(self, addr):
        raise socket.timeout("timed out")

    monkeypatch.setattr(socket.socket, "connect", never_connects)
    with pytest.raises(ConnectTimeout):
        tcp_dial("203.0.113.1", 4450, timeout=0.1)


def test_tcp_bind_conflict():
    listener = tcp_listen("127.0.0.1", 0)
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        busy_port = sock.getsockname()[1]
        sock.listen()
        try:
            with pytest.raises(BindError):
                tcp_listen("127.0.0.1", busy_port)
        finally:
            sock.close()
    finally:
        listener.close()


@pytest.mark.parametrize("port", [99999, -1])
def test_tcp_listen_bad_port_is_a_bind_error(port):
    # The socket is closed too: tier-1 turns a leaked one into an error.
    with pytest.raises(BindError):
        tcp_listen("127.0.0.1", port)


def test_tcp_listener_close_unblocks_accept():
    listener = tcp_listen("127.0.0.1", 0)
    errors = []

    def acceptor():
        try:
            listener.accept()
        except ListenerClosed:
            errors.append("closed")

    thread = threading.Thread(target=acceptor, daemon=True)
    thread.start()
    time.sleep(0.05)
    listener.close()
    thread.join(2)
    assert errors == ["closed"]


def test_tcp_listener_accept_error_leaves_the_listener_open(flaky_listener):
    listener = flaky_listener(failures=1)
    with pytest.raises(OSError) as info:
        listener.accept()
    assert info.value.errno == errno.EMFILE
    client = tcp_dial("127.0.0.1", listener.port)
    server = listener.accept()
    client.write(b"ok")
    assert server.read(2, timeout=5) == b"ok"
    client.close()
    server.close()


def test_tcp_listener_closes_a_socket_it_cannot_configure():
    class Conn:
        closed = False

        def setsockopt(self, *args):
            raise OSError(errno.EINVAL, "Invalid argument")

        def close(self):
            self.closed = True

    conn = Conn()

    class Sock:
        def accept(self):
            return conn, ("127.0.0.1", 1)

    with pytest.raises(OSError):
        TcpListener(Sock()).accept()
    assert conn.closed


# --- framed channel ---


def test_channel_send_recv(pair):
    a, b = pair()
    FrameChannel(a).send(Connect(application="echo"))
    assert FrameChannel(b).recv() == Connect(application="echo")


def test_two_frames_in_one_chunk_yield_two_recvs(pair):
    a, b = pair()
    a.write(encode_frame(Connect(application="echo")) + encode_frame(Error(error="x")))
    chan = FrameChannel(b)
    assert chan.recv() == Connect(application="echo")
    assert chan.recv() == Error(error="x")


@pytest.mark.parametrize("cut", range(1, 10))
def test_frame_split_across_writes(pair, cut):
    frame = encode_frame(Connect(application="echo"))
    a, b = pair()
    chan = FrameChannel(b)
    result = []

    def reader():
        result.append(chan.recv())

    thread = threading.Thread(target=reader)
    thread.start()
    a.write(frame[:cut])
    time.sleep(0.01)
    a.write(frame[cut:])
    thread.join(2)
    assert result == [Connect(application="echo")]


def test_clean_eof_between_frames_returns_none(pair):
    a, b = pair()
    FrameChannel(a).send(Connect(application="echo"))
    a.close()
    chan = FrameChannel(b)
    assert chan.recv() == Connect(application="echo")
    assert chan.recv() is None


def test_peer_close_mid_frame_is_connection_lost(pair):
    frame = encode_frame(Connect(application="echo"))
    a, b = pair()
    a.write(frame[: len(frame) // 2])
    a.close()
    with pytest.raises(ConnectionLost):
        FrameChannel(b).recv()


def test_oversize_header_rejected_before_body(pair):
    import struct

    a, b = pair()
    a.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(MalformedMessage) as exc:
        FrameChannel(b).recv()
    assert exc.value.kind is MalformedKind.OVERSIZE


def test_recv_deadline_ends_a_silent_wait(pair):
    _, b = pair()
    started = time.monotonic()
    with pytest.raises(ReadTimeout):
        FrameChannel(b).recv(deadline=started + 0.1)
    assert 0.1 <= time.monotonic() - started < 1.0


def test_recv_deadline_already_passed(pair):
    a, b = pair()
    # Even a whole frame waiting to be read is not read after the deadline.
    FrameChannel(a).send(Connect(application="echo"))
    with pytest.raises(ReadTimeout):
        FrameChannel(b).recv(deadline=time.monotonic() - 1)


def test_channel_over_tcp_matches_memory():
    listener = tcp_listen("127.0.0.1", 0)
    try:
        client = tcp_dial("127.0.0.1", listener.port)
        server = listener.accept()
        FrameChannel(client).send(Connect(application="echo"))
        assert FrameChannel(server).recv() == Connect(application="echo")
        client.close()
        server.close()
    finally:
        listener.close()


def test_pending_peeks_without_consuming(pair):
    a, b = pair()
    assert b.pending() is False
    a.write(b"xy")
    assert b.pending() is True
    assert b.pending() is True
    assert b.read(10, timeout=2) == b"xy"
    assert b.pending() is False
    a.shutdown_write()
    # End-of-stream makes the socket readable, but it is not data.
    assert b.pending() is False
    assert b.read(10, timeout=2) == b""
    b.close()
    assert b.pending() is False

