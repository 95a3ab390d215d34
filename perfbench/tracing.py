"""Span recording around the calls that cross usp's layer boundaries.

A Tracer replaces a public name (a module attribute or a class method)
with a wrapper that records one span per call: name, start, end, parent
span, session id, an optional value taken from the result, and the name
of the exception if one escaped. Spans stay in memory until the process
hands them over with ``Tracer.spans``; nothing is written while the
workload runs.

The session id of a span is the ``bench_sid`` attribute of the thread
that made the call. The load generator sets it before each operation. On
the server, the wrapped ``TcpListener.accept`` gives every accepted
connection a new id and the wrapped ``Thread.start`` copies it onto the
session thread the agent starts for that connection.

``layer_metrics`` turns the spans of both processes into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# Span tuple fields.
ID, NAME, START, END, PARENT, SID, VALUE, ERROR = range(8)


def _sid() -> int:
    return getattr(threading.current_thread(), "bench_sid", -1)


class Tracer:
    def __init__(self) -> None:
        self._spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, value=None):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        spans = self._spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            rec = [next(ids), name, 0, 0, stack[-1] if stack else -1, -1, None, None]
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            else:
                if value is not None:
                    rec[VALUE] = value(result)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                # Read at the end: the wrapped accept assigns the id it carries.
                rec[SID] = _sid()
                spans.append(rec)

        return traced

    def patch(self, owner, attr: str, name: str, value=None, inner=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; ``inner`` wraps first."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = inner(original) if inner is not None else original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, fn, value))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[list]:
        return list(self._spans)


def patch_layers(tracer: Tracer, role: str) -> None:
    """Wrap every cross-layer name of usp that ``role`` ("client"/"server") calls."""
    import usp
    from usp import agent, auth, transport
    from usp.auth import AuthStatus

    tracer.patch(agent, "server_step", "server_step")
    tracer.patch(agent, "client_step", "client_step")
    tracer.patch(agent, "message_name", "message_name")
    tracer.patch(transport, "encode_frame", "encode_frame", value=len)
    tracer.patch(transport, "decode_frame", "decode_frame")
    tracer.patch(auth, "issue_token", "issue_token")
    tracer.patch(auth, "validate_token", "validate_token")
    tracer.patch(auth.AuthHandle, "step", "auth_step",
                 value=lambda step: step.status is AuthStatus.FAIL)
    tracer.patch(transport.FrameChannel, "send", "frame_send")
    tracer.patch(transport.FrameChannel, "recv", "frame_recv",
                 value=lambda msg: msg is not None)
    tracer.patch(transport.SocketStream, "read", "sock_read")
    tracer.patch(transport.SocketStream, "write", "sock_write")
    tracer.patch(agent, "tcp_dial", "tcp_dial")
    tracer.patch(threading.Thread, "start", "thread_start", inner=_stamp_session)
    if role == "server":
        tracer.patch(transport.TcpListener, "accept", "accept", inner=_new_session)
    else:
        tracer.patch(usp, "connect", "connect")
        tracer.patch(usp, "acquire_token", "connect")


def _new_session(accept):
    ids = itertools.count()

    @functools.wraps(accept)
    def accept_with_sid(self):
        stream = accept(self)
        threading.current_thread().bench_sid = next(ids)
        return stream

    return accept_with_sid


def _stamp_session(start):
    @functools.wraps(start)
    def start_with_sid(self):
        self.bench_sid = _sid()
        return start(self)

    return start_with_sid


# --- turning spans into per-layer metrics ---


class _Stats:
    """Per-name aggregates over one process's spans."""

    def __init__(self, spans: list[list]):
        child_ns: dict[int, int] = defaultdict(int)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        by_id = {s[ID]: s for s in spans}
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.value_sum: dict[str, int] = defaultdict(int)
        self.errors: dict[tuple[str, str], int] = defaultdict(int)
        self.reads_in_recv = 0
        self.read_ns_in_recv = 0
        accept_end: dict[int, int] = {}
        handler_start: dict[int, int] = {}
        for s in spans:
            name = s[NAME]
            dur = s[END] - s[START]
            self.count[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - child_ns.get(s[ID], 0)
            if s[VALUE]:
                self.value_sum[name] += int(s[VALUE])
            if s[ERROR]:
                self.errors[(name, s[ERROR])] += 1
            if name == "sock_read" and s[PARENT] >= 0 and by_id[s[PARENT]][NAME] == "frame_recv":
                self.reads_in_recv += 1
                self.read_ns_in_recv += dur
            elif name == "accept":
                accept_end[s[SID]] = s[END]
            elif name == "handler":
                handler_start[s[SID]] = s[START]
        self.handoff_ns = [handler_start[sid] - accept_end[sid]
                           for sid in handler_start if sid in accept_end]


def _mean(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(client_spans: list[list], server_spans: list[list],
                  sessions: int, records: int) -> dict[str, float]:
    """Per-layer metrics of one traced run over ``sessions`` connections.

    Self times are means per call over both processes; per-session
    counts add both ends of each connection.
    """
    c, s = _Stats(client_spans), _Stats(server_spans)

    def count(name):
        return c.count[name] + s.count[name]

    def self_us(name):
        return _mean((c.self_ns[name] + s.self_ns[name]) / 1e3, count(name))

    def per_session(n):
        return _mean(n, sessions)

    frames_in = c.value_sum["frame_recv"] + s.value_sum["frame_recv"]
    token_rejects = sum(n for stats in (c, s) for (name, _), n in stats.errors.items()
                        if name == "validate_token")
    auth_fails = c.value_sum["auth_step"] + s.value_sum["auth_step"] + token_rejects
    timeouts = c.errors[("sock_read", "ReadTimeout")] + s.errors[("sock_read", "ReadTimeout")]
    return {
        "wire.encode_frame.self_us": self_us("encode_frame"),
        "wire.decode_frame.self_us": self_us("decode_frame"),
        "wire.message_name.self_us": self_us("message_name"),
        "wire.frames_per_session": per_session(count("encode_frame")),
        "wire.bytes_per_session": per_session(c.value_sum["encode_frame"] + s.value_sum["encode_frame"]),
        "auth.validate_token.self_us": self_us("validate_token"),
        "auth.issue_token.self_us": self_us("issue_token"),
        "auth.psk_step.self_us": self_us("auth_step"),
        "auth.fails_per_session": per_session(auth_fails),
        "session.server_step.self_us": self_us("server_step"),
        "session.client_step.self_us": self_us("client_step"),
        "session.steps_per_session": per_session(count("server_step") + count("client_step")),
        "transport.recv.self_us": self_us("frame_recv"),
        "transport.read_wait_us_per_frame": _mean((c.read_ns_in_recv + s.read_ns_in_recv) / 1e3, frames_in),
        "transport.reads_per_frame": _mean(c.reads_in_recv + s.reads_in_recv, frames_in),
        "transport.read_timeouts_per_session": per_session(timeouts),
        "transport.send.self_us": self_us("frame_send"),
        "transport.writes_per_session": per_session(count("sock_write")),
        "transport.dial_ms": _mean(c.total_ns["tcp_dial"] / 1e6, c.count["tcp_dial"]),
        "agent.accept_to_handoff_ms": _mean(sum(s.handoff_ns) / 1e6, len(s.handoff_ns)),
        "agent.connect.self_ms": _mean(c.self_ns["connect"] / 1e6, c.count["connect"]),
        "agent.threads_started_per_session": per_session(s.count["thread_start"]),
        "agent.records_retained_per_session": per_session(records),
    }
