"""Byte-stream transports and framed message channels.

One stream implementation, SocketStream, serves both transports: TCP for
real interop and an AF_UNIX socketpair (memory_pair, MemoryListener) for
in-process tests, optionally cut at a scripted byte (drop_at_byte). The
contract: ordered, unduplicated bytes; read() returns b"" at
end-of-stream; writes after the connection died raise ConnectionLost;
pending() says whether bytes are waiting without consuming any.
close() tears down both directions, because every failure path in this
protocol terminates the whole session; bytes already in flight remain
readable by the peer. Like TCP, a socketpair holds a bounded amount of
unread data and then blocks the writer: about 200 KiB per direction with
Linux's default buffers and large writes, less with small writes.

A SocketStream's socket stays in blocking mode for its whole life. A read
with a timeout first waits for input in poll(); a write never touches the
timeout. No call switches the socket's mode, so a read and a concurrent
write cannot undo each other's settings.

FrameChannel, the package's one frame reader, binds the wire format to a
stream: one send() per message, one recv() per frame however the bytes
were chunked. recv() reads no byte past its frame, so the early-data
gate, a pending() peek at handoff, sees all a client sent too early.
"""

from __future__ import annotations

import queue
import select
import socket
import threading
import time

from .errors import UspError
from .wire import HEADER_SIZE, Message, decode_frame, encode_frame, frame_length

# poll() takes a C int of milliseconds; longer waits are cut to this.
_POLL_MAX_MS = 2**31 - 1


class TransportError(UspError):
    pass


class ConnectionLost(TransportError):
    """The peer vanished: reset, broken pipe, or EOF mid-frame."""


class ConnectRefused(TransportError):
    pass


class ConnectTimeout(TransportError):
    pass


class BindError(TransportError):
    pass


class ListenerClosed(TransportError):
    pass


class ReadTimeout(TransportError):
    """A read gave up before any byte arrived; the stream is still usable."""


class StreamHandle:
    """Reliable duplex byte stream; one owner at a time."""

    peer_label: str = "?"

    def read(self, n: int, timeout: float | None = None) -> bytes:
        """Return 1..n bytes, b"" at end-of-stream; ReadTimeout when given up."""
        raise NotImplementedError

    def write(self, data: bytes) -> None:
        raise NotImplementedError

    def pending(self) -> bool:
        """True when bytes wait to be read now; consumes nothing, never waits."""
        raise NotImplementedError

    def shutdown_write(self) -> None:
        """Signal EOF to the peer while still reading; used by test tooling."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _Cut:
    """Byte budget shared by the two ends of a faulty memory pair."""

    def __init__(self, limit: int, socks: tuple[socket.socket, socket.socket]):
        self.limit = limit
        self.left = limit
        self.socks = socks
        self.lock = threading.Lock()

    def take(self, n: int) -> int:
        """Reserve up to n bytes of the budget; returns how many fit."""
        with self.lock:
            room = min(n, self.left)
            self.left -= room
            return room

    def shut(self) -> None:
        for sock in self.socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


def memory_pair(drop_at_byte: int | None = None) -> tuple[SocketStream, SocketStream]:
    """A connected in-process duplex pair (a, b) over an AF_UNIX socketpair.

    With ``drop_at_byte`` the connection dies when a write would push the
    pair's total transferred byte count, both directions together, past
    that limit. The bytes up to the limit are delivered, both ends are
    shut down, the writer gets ConnectionLost and the peer reads the
    prefix and then end-of-stream.
    """
    sock_a, sock_b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    if drop_at_byte is None:
        return SocketStream(sock_a, "memory:a"), SocketStream(sock_b, "memory:b")
    cut = _Cut(drop_at_byte, (sock_a, sock_b))
    return _CutStream(sock_a, "memory:a", cut), _CutStream(sock_b, "memory:b", cut)


class MemoryListener:
    """Accept side of in-memory connections, mirroring a TCP listener."""

    _SENTINEL = object()

    def __init__(self) -> None:
        self._queue: queue.Queue = queue.Queue()
        self._closed = False

    def connect(self, drop_at_byte: int | None = None) -> SocketStream:
        """Dial this listener; returns the client end, cut as memory_pair says."""
        if self._closed:
            raise ConnectRefused("listener is closed")
        client, server = memory_pair(drop_at_byte)
        self._queue.put(server)
        return client

    def accept(self) -> StreamHandle:
        item = self._queue.get()
        if item is self._SENTINEL:
            # Pass it on, so every thread waiting here wakes up.
            self._queue.put(item)
            raise ListenerClosed("listener closed")
        return item

    def close(self) -> None:
        self._closed = True
        self._queue.put(self._SENTINEL)


class SocketStream(StreamHandle):
    """A StreamHandle over a connected socket, kept in blocking mode.

    A read with a timeout waits in poll() and then calls recv() once, so it
    never blocks past the timeout while it is the only reader. pending()
    peeks. After close() a read returns b"" at once: the descriptor number
    may already belong to another socket.
    """

    def __init__(self, sock: socket.socket, label: str):
        self._sock = sock
        self._lock = threading.Lock()
        self._closed = False
        self._poll = select.poll()
        self._poll.register(sock, select.POLLIN)
        self.peer_label = label

    def read(self, n: int, timeout: float | None = None) -> bytes:
        if self._closed:
            return b""
        if timeout is not None and not self._poll.poll(min(timeout * 1000, _POLL_MAX_MS)):
            raise ReadTimeout("no data within timeout")
        try:
            return self._sock.recv(n)
        except OSError as exc:
            if self._closed:
                return b""
            raise ConnectionLost(str(exc)) from None

    def pending(self) -> bool:
        if self._closed or not self._poll.poll(0):
            return False
        # Readable means data, end-of-stream or an error; only data counts.
        try:
            return bool(self._sock.recv(1, socket.MSG_PEEK))
        except OSError:
            return False

    def write(self, data: bytes) -> None:
        try:
            with self._lock:
                self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionLost(str(exc)) from None

    def shutdown_write(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class _CutStream(SocketStream):
    """One end of a memory pair cut at a scripted byte."""

    def __init__(self, sock: socket.socket, label: str, cut: _Cut):
        super().__init__(sock, label)
        self._cut = cut

    def write(self, data: bytes) -> None:
        room = self._cut.take(len(data))
        if room == len(data):
            super().write(data)
            return
        if room:
            super().write(data[:room])
        self._cut.shut()
        raise ConnectionLost(f"scripted cut at byte {self._cut.limit}")


class TcpListener:
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def accept(self) -> StreamHandle:
        """The next connection; ListenerClosed after close().

        Any other OSError, such as EMFILE, propagates: the listener still
        works, and the caller decides when to try again.
        """
        try:
            conn, addr = self._sock.accept()
        except OSError:
            if self._closed:
                raise ListenerClosed("listener closed") from None
            raise
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            conn.close()
            raise
        return SocketStream(conn, label=f"{addr[0]}:{addr[1]}")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                # Plain close does not wake a blocked accept on Linux.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


def tcp_listen(host: str = "127.0.0.1", port: int = 0) -> TcpListener:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        sock.bind((host, port))
        sock.listen()
    except (OSError, OverflowError) as exc:
        # OverflowError: a port outside 0-65535.
        sock.close()
        raise BindError(f"cannot listen on {host}:{port}: {exc}") from None
    return TcpListener(sock)


def tcp_dial(host: str, port: int, timeout: float | None = None) -> SocketStream:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect((host, port))
    except ConnectionRefusedError:
        sock.close()
        raise ConnectRefused(f"{host}:{port} refused the connection") from None
    except socket.timeout:
        sock.close()
        raise ConnectTimeout(f"no connection to {host}:{port} within {timeout}s") from None
    except OSError as exc:
        sock.close()
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from None
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketStream(sock, label=f"{host}:{port}")


class FrameChannel:
    """Framed messages over a StreamHandle.

    recv() reads exactly one frame's bytes, so nothing beyond the current
    frame is ever consumed from the stream; buffering is bounded by
    MAX_FRAME_BYTES plus the header. A deadline is a time.monotonic()
    instant; each read waits at most until then, and no read starts once
    it has passed, so a peer that trickles bytes is cut off too.
    """

    def __init__(self, stream: StreamHandle):
        self.stream = stream

    def send(self, msg: Message) -> None:
        self.stream.write(encode_frame(msg))

    def recv(self, deadline: float | None = None) -> Message | None:
        """Next decoded message, or None when the peer closed cleanly.

        Raises MalformedMessage for undecodable frames, ConnectionLost for
        mid-frame EOF, ReadTimeout when the deadline passes first.
        """
        header = self._read_exact(HEADER_SIZE, deadline, eof_ok=True)
        if header is None:
            return None
        body = self._read_exact(frame_length(header), deadline, eof_ok=False)
        assert body is not None
        return decode_frame(header + body)

    def _read_exact(self, n: int, deadline: float | None, eof_ok: bool) -> bytes | None:
        buf = b""
        while len(buf) < n:
            if deadline is None:
                timeout = None
            else:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise ReadTimeout("deadline passed")
            chunk = self.stream.read(n - len(buf), timeout=timeout)
            if chunk == b"":
                if eof_ok and not buf:
                    return None
                raise ConnectionLost("end of stream inside a frame")
            # A frame is at most MAX_FRAME_BYTES and usually arrives in one
            # chunk, so plain concatenation is cheaper than a bytearray.
            buf += chunk
        return buf
