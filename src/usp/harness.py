"""Deterministic scenario harness, malformed-input fuzzer, machine enumeration.

Scenarios reproduce the seven canonical control flows as executable trace
assertions: each one runs a real server agent against a scripted client
over an in-process socketpair (or TCP loopback) with a virtual clock and a
seeded RNG, then compares the observed per-session message traces, handoff
count, and close causes against the expected values pinned in the scenario.

The fuzzer drives the server session loop synchronously with five classes
of hostile input and checks the only two acceptable outcomes: an error
frame or a quiet close. Never a handoff, never a crash. A server that
closes with hostile bytes unread leaves the client a reset after its
reply; the reply ends there.

The enumerator walks every reachable (state, event) transition of the
server machine over a finite event alphabet and re-checks the handoff gate
with its own token validation, independent of the machine's environment.
"""

from __future__ import annotations

import json
import random
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .agent import (
    ApplicationRegistration,
    Credentials,
    ServerConfig,
    _drive_server,
    acquire_token,
    connect,
    serve,
)
from .auth import (
    PSK_PROTOCOL_NAME,
    AuthStatus,
    AuthStep,
    issue_token,
    make_registry,
    psk_protocol,
    validate_token,
)
from .errors import UspError
from .session import (
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    AuthStepResult,
    Closed,
    FrameMalformed,
    FrameReceived,
    HandedOff,
    Handoff,
    HandshakeTimeout,
    ServerEnv,
    SessionEvent,
    TraceEntry,
    initial_server_state,
    server_step,
)
from .transport import (
    ConnectionLost,
    MemoryListener,
    ReadTimeout,
    memory_pair,
    tcp_dial,
    tcp_listen,
)
from .wire import (
    MAX_FRAME_BYTES,
    AuthData,
    Authenticate,
    Connect,
    Error,
    FrameDecoder,
    Initialize,
    MalformedKind,
    MalformedMessage,
    StreamRequest,
    Token,
    encode_frame,
    message_name,
)

SCENARIO_NAMES = (
    "unauthenticated-direct",
    "authenticated-direct",
    "token-passing",
    "no-shared-protocol",
    "auth-failure",
    "not-hosted",
    "malformed-message",
)

START_EPOCH = 1_700_000_000.0

# Fixed test-fabric secrets; scenarios must be reproducible bit for bit.
TEST_TOKEN_SECRET_HEX = "5553502d7465737420746f6b656e207369676e696e6720736563726574203031"
ALICE_KEY_HEX = "00112233445566778899aabbccddeeff"
WRONG_KEY_HEX = "00112233445566778899aabbccddee00"

# First frame of the malformed scenario: correctly framed, broken payload.
_BROKEN_BODY = b'{"message":"initialize",'
MALFORMED_FRAME_PROBE = struct.pack(">I", len(_BROKEN_BODY)) + _BROKEN_BODY

_STEP_WAIT_SECONDS = 10.0


class ScenarioMismatch(UspError):
    """An executed scenario diverged from its expected outcome."""


class CounterexampleFound(UspError):
    """Machine enumeration found a gate violation or missing behavior."""

    def __init__(self, reason: str, path: Sequence[SessionEvent]):
        self.reason = reason
        self.path = list(path)
        super().__init__(f"{reason}; event path: {[_event_label(e) for e in path]}")


class VirtualClock:
    """Injected clock; time moves only when a test says so."""

    def __init__(self, start: float = START_EPOCH):
        self._now = start
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds

    def set(self, now: float) -> None:
        with self._lock:
            self._now = now


@dataclass(frozen=True)
class Scenario:
    """A scripted session (or two) with its expected observable outcome."""

    name: str
    applications: tuple[tuple[str, bool], ...]
    supported_auth: tuple[str, ...]
    psk_secrets: tuple[tuple[str, str], ...]
    client: tuple[dict, ...]
    expected_traces: tuple[tuple[tuple[str, str], ...], ...]
    expected_outcomes: tuple[str, ...]
    expected_handoffs: int
    lenient_coexistence: bool = False
    token_secret_hex: str = TEST_TOKEN_SECRET_HEX


@dataclass
class ScenarioResult:
    name: str
    traces: tuple[tuple[TraceEntry, ...], ...]
    outcomes: tuple[str, ...]
    handoffs: int

    def trace_pairs(self) -> list[list[tuple[str, str]]]:
        return [[(e.direction, e.name) for e in t] for t in self.traces]

    def to_json_lines(self) -> str:
        lines = []
        for i, (trace, outcome) in enumerate(zip(self.traces, self.outcomes)):
            lines.append(
                json.dumps(
                    {
                        "scenario": self.name,
                        "session": i,
                        "outcome": outcome,
                        "trace": [e.to_dict() for e in trace],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"


def canonical_scenarios() -> dict[str, Scenario]:
    """The seven canonical flows, keyed by name, in their standard order."""
    apps = (("echo", False), ("vault", True))
    psk = (("alice", ALICE_KEY_HEX),)
    c2s, s2c = CLIENT_TO_SERVER, SERVER_TO_CLIENT
    scenarios = [
        Scenario(
            name="unauthenticated-direct",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=({"action": "connect", "application": "echo"},),
            expected_traces=(((c2s, "initialize"), (s2c, "connect")),),
            expected_outcomes=("handed_off",),
            expected_handoffs=1,
        ),
        Scenario(
            name="authenticated-direct",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=(
                {
                    "action": "connect",
                    "application": "vault",
                    "identity": "alice",
                    "key_hex": ALICE_KEY_HEX,
                },
            ),
            expected_traces=(
                (
                    (c2s, "initialize"),
                    (s2c, "authenticate"),
                    (s2c, "authdata"),
                    (c2s, "authdata"),
                    (s2c, "token"),
                    (c2s, "initialize"),
                    (s2c, "connect"),
                ),
            ),
            expected_outcomes=("handed_off",),
            expected_handoffs=1,
        ),
        Scenario(
            name="token-passing",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=(
                {
                    "action": "acquire",
                    "applications": ["vault"],
                    "identity": "alice",
                    "key_hex": ALICE_KEY_HEX,
                },
                {"action": "connect", "application": "vault", "token_from_acquired": True},
            ),
            expected_traces=(
                (
                    (c2s, "initialize"),
                    (s2c, "authenticate"),
                    (s2c, "authdata"),
                    (c2s, "authdata"),
                    (s2c, "token"),
                ),
                ((c2s, "initialize"), (s2c, "connect")),
            ),
            expected_outcomes=("connection_lost", "handed_off"),
            expected_handoffs=1,
        ),
        Scenario(
            name="no-shared-protocol",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=(
                {"action": "connect", "application": "vault", "offered": ["x25519-psk"]},
            ),
            expected_traces=(((c2s, "initialize"), (s2c, "error")),),
            expected_outcomes=("no_shared_protocol",),
            expected_handoffs=0,
        ),
        Scenario(
            name="auth-failure",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=(
                {
                    "action": "connect",
                    "application": "vault",
                    "identity": "alice",
                    "key_hex": WRONG_KEY_HEX,
                },
            ),
            expected_traces=(
                (
                    (c2s, "initialize"),
                    (s2c, "authenticate"),
                    (s2c, "authdata"),
                    (c2s, "authdata"),
                ),
            ),
            expected_outcomes=("auth_failed",),
            expected_handoffs=0,
        ),
        Scenario(
            name="not-hosted",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=({"action": "connect", "application": "ghost"},),
            expected_traces=(((c2s, "initialize"), (s2c, "error")),),
            expected_outcomes=("not_hosted",),
            expected_handoffs=0,
        ),
        Scenario(
            name="malformed-message",
            applications=apps,
            supported_auth=(PSK_PROTOCOL_NAME,),
            psk_secrets=psk,
            client=({"action": "raw", "payload_hex": MALFORMED_FRAME_PROBE.hex()},),
            expected_traces=(((c2s, "malformed"), (s2c, "error")),),
            expected_outcomes=("malformed",),
            expected_handoffs=0,
        ),
    ]
    return {s.name: s for s in scenarios}


def _scenario_config(scenario: Scenario, counter: list[int]) -> ServerConfig:
    def counting_handler(stream, ctx) -> None:
        counter[0] += 1
        # Scenario handlers serve no application traffic; wait for the
        # client to hang up so the session record is final.
        while stream.read(4096):
            pass

    registrations = tuple(
        ApplicationRegistration(application=name, requires_auth=auth, handler=counting_handler)
        for name, auth in scenario.applications
    )
    return ServerConfig(
        registrations=registrations,
        token_secret=bytes.fromhex(scenario.token_secret_hex),
        supported_auth=scenario.supported_auth,
        psk_secrets={ident: bytes.fromhex(key) for ident, key in scenario.psk_secrets},
        lenient_coexistence=scenario.lenient_coexistence,
    )


def _run_raw_step(endpoint_open: Callable, payload: bytes) -> None:
    stream = endpoint_open()
    stream.write(payload)
    try:
        while stream.read(4096, timeout=_STEP_WAIT_SECONDS):
            pass
    except Exception:
        pass
    stream.close()


def _run_client_step(
    step: dict,
    endpoint_open: Callable,
    clock: VirtualClock,
    rng: random.Random,
    acquired: dict[str, str],
) -> None:
    action = step["action"]
    if action == "raw":
        _run_raw_step(endpoint_open, bytes.fromhex(step["payload_hex"]))
        return
    credentials = None
    if "identity" in step:
        credentials = Credentials(identity=step["identity"], key=bytes.fromhex(step["key_hex"]))
    offered = tuple(step.get("offered", (PSK_PROTOCOL_NAME,)))
    if action == "acquire":
        tokens = acquire_token(
            endpoint_open(),
            step["applications"],
            offered=offered,
            credentials=credentials,
            clock=clock,
            rng=rng,
        )
        acquired.update(dict(tokens))
        return
    if action == "connect":
        token = acquired.get(step["application"]) if step.get("token_from_acquired") else None
        try:
            stream, _ctx = connect(
                endpoint_open(),
                step["application"],
                offered=offered,
                credentials=credentials,
                token=token,
                clock=clock,
                rng=rng,
            )
        except UspError:
            return
        stream.close()
        return
    raise ValueError(f"unknown client step action: {action!r}")


def run_scenario(
    scenario: Scenario,
    transport: str = "memory",
    seed: int = 0,
    check: bool = True,
) -> ScenarioResult:
    """Execute one scenario and (by default) verify it against expectations.

    Fully deterministic on the memory transport: virtual clock, seeded
    RNG, and strictly sequential client steps.
    """
    clock = VirtualClock()
    server_rng = random.Random(seed)
    client_rng = random.Random(seed + 1)
    counter = [0]
    config = _scenario_config(scenario, counter)

    if transport == "memory":
        listener = MemoryListener()
        endpoint_open: Callable = listener.connect
    elif transport == "tcp":
        listener = tcp_listen("127.0.0.1", 0)
        port = listener.port

        def endpoint_open():
            return tcp_dial("127.0.0.1", port)

    else:
        raise ValueError(f"unknown transport: {transport!r}")

    handle = serve(listener, config, clock=clock, rng=server_rng)
    acquired: dict[str, str] = {}
    try:
        for i, step in enumerate(scenario.client):
            _run_client_step(step, endpoint_open, clock, client_rng, acquired)
            _wait_for_records(handle, i + 1)
    finally:
        handle.shutdown()

    records = handle.records()
    result = ScenarioResult(
        name=scenario.name,
        traces=tuple(r.trace for r in records),
        outcomes=tuple(r.outcome for r in records),
        handoffs=counter[0],
    )
    if check:
        problem = diff_scenario(scenario, result)
        if problem is not None:
            raise ScenarioMismatch(f"{scenario.name}: {problem}")
    return result


def _wait_for_records(handle, count: int) -> None:
    deadline = time.monotonic() + _STEP_WAIT_SECONDS
    while time.monotonic() < deadline:
        if len(handle.records()) >= count:
            return
        time.sleep(0.002)
    raise ScenarioMismatch(f"server produced {len(handle.records())} records, wanted {count}")


def diff_scenario(scenario: Scenario, result: ScenarioResult) -> str | None:
    """First divergence between expectation and execution, or None."""
    actual = result.trace_pairs()
    if len(actual) != len(scenario.expected_traces):
        return f"expected {len(scenario.expected_traces)} sessions, got {len(actual)}"
    for i, (want, got) in enumerate(zip(scenario.expected_traces, actual)):
        for j, (w, g) in enumerate(zip(want, got)):
            if tuple(w) != tuple(g):
                return f"session {i} entry {j}: expected {tuple(w)}, got {tuple(g)}"
        if len(want) != len(got):
            return f"session {i}: expected {len(want)} messages, got {len(got)}"
    if result.outcomes != scenario.expected_outcomes:
        return f"outcomes: expected {scenario.expected_outcomes}, got {result.outcomes}"
    if result.handoffs != scenario.expected_handoffs:
        return f"handoffs: expected {scenario.expected_handoffs}, got {result.handoffs}"
    return None


def run_all_scenarios(transport: str = "memory", seed: int = 0) -> dict[str, ScenarioResult]:
    return {
        name: run_scenario(sc, transport=transport, seed=seed)
        for name, sc in canonical_scenarios().items()
    }


# --- malformed-input fuzzing ---


@dataclass
class FuzzReport:
    cases: int
    handoffs: int
    crashes: int
    responses: dict[str, int]
    seed: int

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "handoffs": self.handoffs,
            "crashes": self.crashes,
            "responses": dict(self.responses),
            "seed": self.seed,
        }


_MUTATION_CLASSES = 5


def _fuzz_payload(rng: random.Random, mutation_class: int) -> bytes:
    if mutation_class == 0:
        # Raw noise.
        return rng.randbytes(rng.randint(1, 200))
    if mutation_class == 1:
        # A valid frame cut short.
        whole = encode_frame(
            Initialize(
                authentication=(PSK_PROTOCOL_NAME,),
                streams=(StreamRequest(application="echo"),),
            )
        )
        return whole[: rng.randint(1, len(whole) - 1)]
    if mutation_class == 2:
        # A frame declaring an impossible length.
        declared = rng.randint(MAX_FRAME_BYTES + 1, 0xFFFFFFFF)
        return struct.pack(">I", declared) + rng.randbytes(rng.randint(0, 64))
    if mutation_class == 3:
        # Well-formed JSON that is not a valid message.
        bad = rng.choice(
            [
                {"message": "initialize"},
                {"message": "initialize", "authentication": [], "streams": []},
                {"message": "initialize", "authentication": "psk", "streams": [{}]},
                {"message": "connect"},
                {"message": "connect", "application": ""},
                {"message": "authenticate", "protocol": 7},
                {"message": "token", "streams": "all"},
                {"message": "error", "error": "x", "extra": 1},
                {"message": "redirect", "host": "evil"},
                {"note": "no discriminator"},
                ["not", "an", "object"],
                "just a string",
            ]
        )
        body = json.dumps(bad).encode("utf-8")
        return struct.pack(">I", len(body)) + body
    # Valid messages that are illegal as a session opener.
    msg = rng.choice(
        [
            Connect(application="echo"),
            Authenticate(protocol=PSK_PROTOCOL_NAME),
            Token(streams=(StreamRequest(application="echo", token="t"),)),
            Error(error="noise"),
            AuthData(payload=b"\x00\x01"),
        ]
    )
    return encode_frame(msg)


def _fuzz_config() -> ServerConfig:
    def handler(stream, ctx) -> None:
        pass

    return ServerConfig(
        registrations=(
            ApplicationRegistration("echo", False, handler),
            ApplicationRegistration("vault", True, handler),
        ),
        token_secret=bytes.fromhex(TEST_TOKEN_SECRET_HEX),
        supported_auth=(PSK_PROTOCOL_NAME,),
        psk_secrets={"alice": bytes.fromhex(ALICE_KEY_HEX)},
    )


def fuzz_malformed(seed: int, n: int, config: ServerConfig | None = None) -> FuzzReport:
    """Throw n hostile first-flights at fresh server sessions.

    Five mutation classes are interleaved at exactly 20% each. Every
    session must end without a handoff; any unhandled exception in the
    session driver counts as a crash.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    if config is None:
        config = _fuzz_config()
    clock = VirtualClock()
    env = config.env(clock, rng)
    registry = make_registry(psk_protocol(config.psk_secrets))
    handlers = config.handlers()

    handoffs = crashes = 0
    responses = {"error-frame": 0, "silent-close": 0}
    for i in range(n):
        payload = _fuzz_payload(rng, i % _MUTATION_CLASSES)
        client, server = memory_pair()
        client.write(payload)
        client.shutdown_write()
        try:
            record = _drive_server(
                server, env, registry, handlers, config.handshake_timeout, clock()
            )
        except Exception:
            crashes += 1
        else:
            handoffs += record.outcome == "handed_off"
        responses[_classify_response(client)] += 1
        client.close()
    return FuzzReport(
        cases=n, handoffs=handoffs, crashes=crashes, responses=responses, seed=seed
    )


def _classify_response(client) -> str:
    decoder = FrameDecoder()
    while True:
        try:
            data = client.read(4096, timeout=0)
        except (ReadTimeout, ConnectionLost):
            # A server that closes with our payload unread makes the
            # socketpair report a reset after its reply: the reply ends.
            break
        if not data:
            break
        decoder.feed(data)
    try:
        names = [message_name(m) for m in decoder.frames()]
    except MalformedMessage:
        names = []
    return "error-frame" if "error" in names else "silent-close"


# --- exhaustive machine enumeration ---


@dataclass
class EnumerationReport:
    max_events: int
    states_explored: int
    transitions: int
    handoffs_observed: int
    close_causes: tuple[str, ...]
    phases_reached: tuple[str, ...]


def _event_label(event: SessionEvent) -> str:
    if isinstance(event, FrameReceived):
        return f"frame:{message_name(event.message)}"
    if isinstance(event, AuthStepResult):
        return f"auth:{event.step.status.value}"
    if isinstance(event, FrameMalformed):
        return f"malformed:{event.kind.value}"
    return type(event).__name__


def default_enumeration_env(seed: int = 0) -> ServerEnv:
    return _fuzz_config().env(lambda: START_EPOCH, random.Random(seed))


def build_event_alphabet(secret: bytes, now: float) -> list[SessionEvent]:
    """A finite, adversarial event alphabet covering every message class."""
    rng = random.Random(1234)
    good = issue_token("alice", "vault", 3600, lambda: now, secret, rng).encode()
    expired = issue_token("alice", "vault", 3600, lambda: now - 7200, secret, rng).encode()
    rebound = issue_token("alice", "echo", 3600, lambda: now, secret, rng).encode()
    forged = issue_token(
        "mallory", "vault", 3600, lambda: now, b"not the real secret", rng
    ).encode()

    def init(offered: tuple[str, ...], *streams: StreamRequest) -> FrameReceived:
        return FrameReceived(Initialize(authentication=offered, streams=streams))

    psk = (PSK_PROTOCOL_NAME,)
    return [
        init(psk, StreamRequest("echo")),
        init(psk, StreamRequest("vault")),
        init(("x25519-psk",), StreamRequest("vault")),
        init((), StreamRequest("vault", token=good)),
        init(psk, StreamRequest("vault", token=expired)),
        init(psk, StreamRequest("vault", token=rebound)),
        init(psk, StreamRequest("vault", token=forged)),
        init(psk, StreamRequest("ghost")),
        init(psk, StreamRequest("echo"), StreamRequest("vault", token=good)),
        FrameReceived(Connect(application="echo")),
        FrameReceived(Authenticate(protocol=PSK_PROTOCOL_NAME)),
        FrameReceived(Token(streams=(StreamRequest("echo", token="t"),))),
        FrameReceived(AuthData(payload=b"\x01")),
        FrameReceived(Error(error="remote says no")),
        FrameMalformed(MalformedKind.NOT_JSON),
        AuthStepResult(AuthStep(status=AuthStatus.PENDING, outgoing=b"challenge")),
        AuthStepResult(AuthStep(status=AuthStatus.SUCCESS, identity="alice")),
        AuthStepResult(AuthStep(status=AuthStatus.FAIL, reason="bad response")),
        HandshakeTimeout(),
    ]


def _check_gate(
    event: SessionEvent,
    actions: Sequence,
    applications: Mapping[str, bool],
    secret: bytes,
    now: float,
) -> str | None:
    """Independent handoff-gate oracle: re-derives policy and re-validates tokens."""
    for action in actions:
        if not isinstance(action, Handoff):
            continue
        ctx = action.context
        if not isinstance(event, FrameReceived) or not isinstance(event.message, Initialize):
            return "handoff not triggered by an initialize"
        entry = next(
            (s for s in event.message.streams if s.application == ctx.application), None
        )
        if entry is None:
            return f"handoff for unrequested application {ctx.application!r}"
        if ctx.application not in applications:
            return f"handoff for unhosted application {ctx.application!r}"
        if not applications[ctx.application]:
            continue  # no authentication required: anonymous handoff is legal
        if entry.token is None:
            return "handoff for auth-required application without a token"
        try:
            proven = validate_token(entry.token, ctx.application, lambda: now, secret)
        except Exception as exc:
            return f"handoff on invalid token ({exc})"
        if proven.identity != ctx.identity:
            return (
                f"handoff identity {ctx.identity!r} differs from token identity "
                f"{proven.identity!r}"
            )
    return None


def enumerate_machine(
    max_events: int,
    *,
    env: ServerEnv | None = None,
    alphabet: Sequence[SessionEvent] | None = None,
    oracle_secret: bytes | None = None,
    expected_causes: Iterable[str] | None = None,
) -> EnumerationReport:
    """Exhaustively explore every server transition reachable in max_events.

    The gate oracle validates tokens with ``oracle_secret`` (the honest
    secret) regardless of what the machine's env believes, so a machine
    whose token check was weakened is caught. Raises CounterexampleFound
    with the offending event path on any violation, and on any cause from
    ``expected_causes`` that was never reached.
    """
    if max_events < 1 or max_events > 10:
        raise ValueError("max_events must be between 1 and 10")
    if env is None:
        env = default_enumeration_env()
    if alphabet is None:
        alphabet = build_event_alphabet(env.token_secret, env.clock())
    if oracle_secret is None:
        oracle_secret = env.token_secret

    applications = dict(env.applications)
    now = env.clock()

    start = initial_server_state()
    seen = {start}
    frontier: list[tuple[object, tuple[SessionEvent, ...]]] = [(start, ())]
    transitions = 0
    handoffs = 0
    causes: set[str] = set()
    phases: set[str] = {type(start).__name__}

    for _depth in range(max_events):
        next_frontier: list[tuple[object, tuple[SessionEvent, ...]]] = []
        for state, path in frontier:
            if isinstance(state, (HandedOff, Closed)):
                continue
            for event in alphabet:
                new_state, actions = server_step(state, event, env)
                transitions += 1
                problem = _check_gate(event, actions, applications, oracle_secret, now)
                if problem is not None:
                    raise CounterexampleFound(problem, path + (event,))
                if any(isinstance(a, Handoff) for a in actions):
                    handoffs += 1
                if isinstance(new_state, Closed):
                    causes.add(new_state.cause.value)
                phases.add(type(new_state).__name__)
                if new_state not in seen:
                    seen.add(new_state)
                    next_frontier.append((new_state, path + (event,)))
        frontier = next_frontier
        if not frontier:
            break

    if expected_causes is not None:
        missing = sorted(set(expected_causes) - causes)
        if missing:
            raise CounterexampleFound(f"unreached close causes: {missing}", ())

    return EnumerationReport(
        max_events=max_events,
        states_explored=len(seen),
        transitions=transitions,
        handoffs_observed=handoffs,
        close_causes=tuple(sorted(causes)),
        phases_reached=tuple(sorted(phases)),
    )
