"""State machine tests: both machines driven event by event, no I/O."""

import random

import pytest

from usp.auth import (
    AuthMethod,
    AuthStatus,
    AuthStep,
    issue_token,
    validate_token,
)
from usp.session import (
    AuthInProgress,
    AuthStepResult,
    AwaitInitialize,
    AwaitReinitialize,
    AwaitResponse,
    AwaitToken,
    BeginAuth,
    ClientAuthInProgress,
    ClientEnv,
    CloseCause,
    Closed,
    Connected,
    FrameMalformed,
    FrameReceived,
    HandedOff,
    HandshakeTimeout,
    NO_SHARED_PROTOCOL_TEXT,
    Send,
    SendInitialize,
    ServerEnv,
    SessionError,
    Start,
    TraceEntry,
    client_step,
    initial_client_state,
    initial_server_state,
    non_authdata_count,
    server_step,
)
from usp.wire import (
    AuthData,
    Authenticate,
    Connect,
    Error,
    Initialize,
    MalformedKind,
    StreamRequest,
    Token,
)

SECRET = b"server token secret 123456789012"
T0 = 1_700_000_000.0


def make_env(**overrides) -> ServerEnv:
    defaults = dict(
        applications={"echo": False, "vault": True},
        supported_auth=("psk-cr",),
        token_secret=SECRET,
        clock=lambda: T0,
        rng=random.Random(0),
    )
    defaults.update(overrides)
    return ServerEnv(**defaults)


def init_msg(app="echo", offered=("psk-cr",), token=None) -> FrameReceived:
    return FrameReceived(
        Initialize(authentication=offered, streams=(StreamRequest(app, token),))
    )


def sends(actions):
    return [a.message for a in actions if isinstance(a, Send)]


def good_token(app="vault", identity="alice", at=T0, ttl=3600):
    return issue_token(identity, app, ttl, lambda: at, SECRET, random.Random(5)).encode()


# --- server: the seven flow families at machine level ---


def test_unauthenticated_direct():
    env = make_env()
    state, actions = server_step(initial_server_state(), init_msg("echo"), env)
    assert isinstance(state, HandedOff)
    assert actions == [Send(Connect(application="echo"))]
    ctx = state.context
    assert ctx.identity == "anonymous"
    assert ctx.method is AuthMethod.NONE_REQUIRED


def test_not_hosted():
    state, actions = server_step(initial_server_state(), init_msg("ghost"), make_env())
    assert isinstance(state, Closed) and state.cause is CloseCause.NOT_HOSTED
    (sent,) = sends(actions)
    assert isinstance(sent, Error)
    assert "ghost" in sent.error


def test_no_shared_protocol():
    state, actions = server_step(
        initial_server_state(), init_msg("vault", offered=("x509",)), make_env()
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.NO_SHARED_PROTOCOL
    (sent,) = sends(actions)
    assert sent == Error(error=NO_SHARED_PROTOCOL_TEXT)


def test_negotiation_starts_auth():
    state, actions = server_step(initial_server_state(), init_msg("vault"), make_env())
    assert state == AuthInProgress(protocol="psk-cr", streams=(StreamRequest("vault"),))
    assert actions == [Send(Authenticate(protocol="psk-cr")), BeginAuth("psk-cr")]


def test_auth_pending_sends_authdata():
    env = make_env()
    state = AuthInProgress("psk-cr", (StreamRequest("vault"),))
    step = AuthStep(status=AuthStatus.PENDING, outgoing=b"challenge")
    new_state, actions = server_step(state, AuthStepResult(step), env)
    assert new_state == state
    assert actions == [Send(AuthData(payload=b"challenge"))]


def test_auth_success_issues_tokens_and_awaits_reinitialize():
    env = make_env()
    state = AuthInProgress("psk-cr", (StreamRequest("vault"),))
    step = AuthStep(status=AuthStatus.SUCCESS, identity="alice")
    new_state, actions = server_step(state, AuthStepResult(step), env)
    assert new_state == AwaitReinitialize(identity="alice", protocol="psk-cr")
    (sent,) = sends(actions)
    assert isinstance(sent, Token)
    (entry,) = sent.streams
    assert entry.application == "vault"
    ctx = validate_token(entry.token, "vault", lambda: T0 + 1, SECRET)
    assert ctx.identity == "alice"


def test_auth_success_issues_one_token_per_stream():
    env = make_env(applications={"vault": True, "files": True})
    streams = (StreamRequest("vault"), StreamRequest("files"))
    state = AuthInProgress("psk-cr", streams)
    _, actions = server_step(
        state, AuthStepResult(AuthStep(status=AuthStatus.SUCCESS, identity="alice")), env
    )
    (sent,) = sends(actions)
    assert [s.application for s in sent.streams] == ["vault", "files"]
    for entry in sent.streams:
        assert validate_token(entry.token, entry.application, lambda: T0 + 1, SECRET).identity == "alice"


def test_auth_failure_closes_without_error_frame():
    env = make_env()
    state = AuthInProgress("psk-cr", (StreamRequest("vault"),))
    step = AuthStep(status=AuthStatus.FAIL, reason="bad response")
    new_state, actions = server_step(state, AuthStepResult(step), env)
    assert isinstance(new_state, Closed) and new_state.cause is CloseCause.AUTH_FAILED
    assert actions == []
    assert new_state.detail == "bad response"


def test_reinitialize_with_issued_token_hands_off_with_protocol_method():
    env = make_env()
    state = AwaitReinitialize(identity="alice", protocol="psk-cr")
    token = good_token()
    new_state, _ = server_step(
        state, init_msg("vault", offered=(), token=token), env
    )
    assert isinstance(new_state, HandedOff)
    ctx = new_state.context
    assert ctx.identity == "alice"
    assert ctx.method is AuthMethod.PROTOCOL
    assert ctx.protocol == "psk-cr"


def test_fresh_session_token_hands_off_with_token_method():
    env = make_env()
    new_state, _ = server_step(
        initial_server_state(), init_msg("vault", offered=(), token=good_token()), env
    )
    assert isinstance(new_state, HandedOff)
    ctx = new_state.context
    assert ctx.identity == "alice"
    assert ctx.method is AuthMethod.TOKEN


@pytest.mark.parametrize(
    "token",
    [
        good_token(at=T0 - 7200),  # expired before now
        good_token(app="echo"),  # bound to another application
        good_token()[:-6] + "AAAA==",  # corrupted
    ],
)
def test_invalid_token_falls_back_to_negotiation(token):
    state, actions = server_step(
        initial_server_state(), init_msg("vault", token=token), make_env()
    )
    assert isinstance(state, AuthInProgress)
    assert isinstance(actions[0].message, Authenticate)


def test_token_for_open_application_is_ignored():
    state, _ = server_step(
        initial_server_state(), init_msg("echo", token=good_token(app="echo")), make_env()
    )
    assert isinstance(state, HandedOff)
    assert state.context.identity == "anonymous"
    assert state.context.method is AuthMethod.NONE_REQUIRED


def test_multi_stream_connects_first_entry():
    env = make_env()
    msg = FrameReceived(
        Initialize(
            authentication=("psk-cr",),
            streams=(StreamRequest("echo"), StreamRequest("vault", good_token())),
        )
    )
    state, actions = server_step(initial_server_state(), msg, env)
    assert isinstance(state, HandedOff)
    assert actions[0].message == Connect(application="echo")
    assert state.context.application == "echo"


def test_multi_stream_any_unhosted_entry_fails_all():
    msg = FrameReceived(
        Initialize(
            authentication=("psk-cr",),
            streams=(StreamRequest("echo"), StreamRequest("ghost")),
        )
    )
    state, _ = server_step(initial_server_state(), msg, make_env())
    assert isinstance(state, Closed) and state.cause is CloseCause.NOT_HOSTED


@pytest.mark.parametrize(
    "message",
    [
        Connect(application="echo"),
        Authenticate(protocol="psk-cr"),
        Token(streams=(StreamRequest("echo", "t"),)),
        AuthData(payload=b"x"),
    ],
)
def test_wrong_phase_message_is_violation(message):
    state, actions = server_step(initial_server_state(), FrameReceived(message), make_env())
    assert isinstance(state, Closed) and state.cause is CloseCause.PROTOCOL_VIOLATION
    (sent,) = sends(actions)
    assert isinstance(sent, Error)


def test_received_error_closes_quietly():
    state, actions = server_step(
        initial_server_state(), FrameReceived(Error(error="client gave up")), make_env()
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.REMOTE_ERROR
    assert state.detail == "client gave up"
    assert sends(actions) == []


def test_malformed_strict_sends_error():
    state, actions = server_step(
        initial_server_state(), FrameMalformed(MalformedKind.NOT_JSON), make_env()
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.MALFORMED
    (sent,) = sends(actions)
    assert "not_json" in sent.error


def test_oversize_closes_quietly_even_in_strict_mode():
    state, actions = server_step(
        initial_server_state(), FrameMalformed(MalformedKind.OVERSIZE), make_env()
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.MALFORMED
    assert state.detail == "oversize"
    assert sends(actions) == []


def test_client_oversize_closes_quietly():
    state, actions = client_step(
        AwaitResponse(),
        FrameMalformed(MalformedKind.OVERSIZE),
        client_env(),
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.MALFORMED
    assert sends(actions) == []


def test_timeout_closes_quietly_in_any_phase():
    for state in (
        initial_server_state(),
        AuthInProgress("psk-cr", (StreamRequest("vault"),)),
        AwaitReinitialize("alice", "psk-cr"),
    ):
        new_state, actions = server_step(state, HandshakeTimeout(), make_env())
        assert isinstance(new_state, Closed) and new_state.cause is CloseCause.TIMEOUT
        assert sends(actions) == []


def test_step_on_terminal_state_raises():
    env = make_env()
    handed, _ = server_step(initial_server_state(), init_msg("echo"), env)
    with pytest.raises(SessionError):
        server_step(handed, init_msg("echo"), env)
    with pytest.raises(SessionError):
        server_step(Closed(CloseCause.TIMEOUT), HandshakeTimeout(), env)


def test_step_is_deterministic_given_identical_env():
    def run():
        env = make_env(rng=random.Random(42))
        state = AuthInProgress("psk-cr", (StreamRequest("vault"),))
        return server_step(
            state, AuthStepResult(AuthStep(status=AuthStatus.SUCCESS, identity="alice")), env
        )

    assert run() == run()


def test_predicate_evaluation_order_is_fixed():
    calls = []

    class InstrumentedEnv(ServerEnv):
        def application_hosted(self, name):
            calls.append("hosted")
            return super().application_hosted(name)

        def requires_auth(self, name):
            calls.append("requires_auth")
            return super().requires_auth(name)

        def token_valid(self, token, application):
            calls.append("token_valid")
            return super().token_valid(token, application)

        def negotiate_auth_protocol(self, offered):
            calls.append("negotiate")
            return super().negotiate_auth_protocol(offered)

    def instrumented():
        return InstrumentedEnv(
            applications={"echo": False, "vault": True},
            supported_auth=("psk-cr",),
            token_secret=SECRET,
            clock=lambda: T0,
            rng=random.Random(0),
        )

    calls.clear()
    server_step(initial_server_state(), init_msg("echo"), instrumented())
    assert calls == ["hosted", "requires_auth"]

    calls.clear()
    server_step(initial_server_state(), init_msg("vault"), instrumented())
    assert calls == ["hosted", "requires_auth", "token_valid", "negotiate"]

    calls.clear()
    server_step(initial_server_state(), init_msg("vault", token=good_token()), instrumented())
    assert calls == ["hosted", "requires_auth", "token_valid"]


# --- client machine ---


def client_env(offered=("psk-cr",), requests=(StreamRequest("vault"),), **overrides) -> ClientEnv:
    initialize = Initialize(authentication=offered, streams=requests)
    return ClientEnv(initialize=initialize, clock=lambda: T0, **overrides)


def test_client_start_sends_initialize():
    state, actions = client_step(initial_client_state(), Start(), client_env())
    assert state == AwaitResponse()
    (sent,) = sends(actions)
    assert sent == Initialize(authentication=("psk-cr",), streams=(StreamRequest("vault"),))


def test_client_direct_accept():
    env = client_env(requests=(StreamRequest("echo"),))
    state, _ = client_step(initial_client_state(), Start(), env)
    state, actions = client_step(state, FrameReceived(Connect(application="echo")), env)
    assert isinstance(state, Connected)
    assert actions == []
    ctx = state.context
    assert ctx.method is AuthMethod.NONE_REQUIRED
    assert ctx.identity == "anonymous"


def test_client_authenticate_begins_offered_protocol():
    state, actions = client_step(
        AwaitResponse(),
        FrameReceived(Authenticate(protocol="psk-cr")),
        client_env(),
    )
    assert state == ClientAuthInProgress(protocol="psk-cr")
    assert actions == [BeginAuth("psk-cr")]


def test_client_rejects_unoffered_protocol_quietly():
    state, actions = client_step(
        AwaitResponse(),
        FrameReceived(Authenticate(protocol="never-offered")),
        client_env(),
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.PROTOCOL_VIOLATION
    assert sends(actions) == []


def test_client_auth_success_awaits_token():
    step = AuthStep(status=AuthStatus.SUCCESS, outgoing=b"resp", identity="alice")
    state, actions = client_step(
        ClientAuthInProgress("psk-cr"), AuthStepResult(step), client_env()
    )
    assert state == AwaitToken(protocol="psk-cr", identity="alice")
    assert sends(actions) == [AuthData(payload=b"resp")]


def test_client_token_triggers_reinitialize():
    env = client_env()
    issued = Token(streams=(StreamRequest("vault", "tok-1"),))
    state, actions = client_step(
        AwaitToken(protocol="psk-cr", identity="alice"), FrameReceived(issued), env
    )
    assert state == AwaitResponse(auth_protocol="psk-cr", auth_identity="alice")
    (sent,) = sends(actions)
    assert sent == Initialize(
        authentication=("psk-cr",), streams=(StreamRequest("vault", "tok-1"),)
    )


def test_client_connect_after_auth_reports_protocol_method():
    env = client_env()
    state = AwaitResponse(auth_protocol="psk-cr", auth_identity="alice")
    state, actions = client_step(state, FrameReceived(Connect(application="vault")), env)
    assert isinstance(state, Connected)
    ctx = state.context
    assert ctx.identity == "alice"
    assert ctx.method is AuthMethod.PROTOCOL
    assert ctx.protocol == "psk-cr"


def test_client_connect_with_a_token_reports_token_method():
    token = good_token(identity="erin")
    env = client_env(requests=(StreamRequest("vault", token),))
    state, _ = client_step(initial_client_state(), Start(), env)
    state, _ = client_step(state, FrameReceived(Connect(application="vault")), env)
    assert state.context.method is AuthMethod.TOKEN
    assert state.context.identity == "erin"


def test_client_stop_after_token():
    env = client_env(stop_after_token=True)
    state, actions = client_step(
        AwaitToken(protocol="psk-cr", identity="alice"),
        FrameReceived(Token(streams=(StreamRequest("vault", "t"),))),
        env,
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.TOKEN_ACQUIRED
    assert sends(actions) == []


def test_client_error_closes_with_remote_error():
    state, actions = client_step(
        AwaitResponse(),
        FrameReceived(Error(error="application not hosted: ghost")),
        client_env(),
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.REMOTE_ERROR
    assert "ghost" in state.detail
    assert sends(actions) == []


def test_client_connect_for_unrequested_application_is_violation():
    state, _ = client_step(
        AwaitResponse(),
        FrameReceived(Connect(application="other")),
        client_env(),
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.PROTOCOL_VIOLATION


def test_client_wrong_phase_and_terminal():
    state, actions = client_step(
        AwaitResponse(),
        FrameReceived(Token(streams=(StreamRequest("vault", "t"),))),
        client_env(),
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.PROTOCOL_VIOLATION
    assert len(sends(actions)) == 1
    with pytest.raises(SessionError):
        client_step(state, Start(), client_env())


def test_client_timeout():
    state, actions = client_step(
        AwaitResponse(), HandshakeTimeout(), client_env()
    )
    assert isinstance(state, Closed) and state.cause is CloseCause.TIMEOUT
    assert sends(actions) == []


# --- traces ---


def test_trace_helpers():
    trace = (
        TraceEntry("c2s", "initialize"),
        TraceEntry("s2c", "authdata"),
        TraceEntry("c2s", "malformed"),
        TraceEntry("s2c", "connect"),
    )
    assert non_authdata_count(trace) == 2
