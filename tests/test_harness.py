"""Harness tests: scenarios against goldens, fuzzing, machine enumeration."""

import gc
import json
from dataclasses import replace
from pathlib import Path

import pytest

from usp import agent, harness
from usp.auth import AuthMethod, IdentityContext
from usp.harness import (
    CounterexampleFound,
    EnumerationReport,
    ScenarioMismatch,
    VirtualClock,
    build_event_alphabet,
    canonical_scenarios,
    default_enumeration_env,
    enumerate_machine,
    fuzz_malformed,
    run_scenario,
    SCENARIO_NAMES,
)
from usp.session import (
    AwaitInitialize,
    FrameReceived,
    HandedOff,
    Send,
    ServerEnv,
    server_step,
)
from usp.wire import Connect, Initialize, StreamRequest, encode_frame

GOLDEN_DIR = Path(__file__).parent / "golden"

SERVER_CLOSE_CAUSES = {
    "not_hosted",
    "no_shared_protocol",
    "auth_failed",
    "protocol_violation",
    "malformed",
    "timeout",
    "remote_error",
}


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


# --- scenarios ---


def test_canonical_set_is_the_seven_flows():
    assert set(SCENARIO_NAMES) == {path.stem for path in GOLDEN_DIR.glob("*.json")}


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_golden_file(name):
    scenario = canonical_scenarios()[name]
    golden = load_golden(name)
    assert [[list(e) for e in t] for t in scenario.expected_traces] == golden["traces"]
    assert list(scenario.expected_outcomes) == golden["outcomes"]
    assert scenario.expected_handoffs == golden["handoffs"]

    result = run_scenario(scenario)  # raises ScenarioMismatch on divergence
    assert result.trace_pairs() == [[tuple(e) for e in t] for t in golden["traces"]]
    assert list(result.outcomes) == golden["outcomes"]
    assert result.handoffs == golden["handoffs"]


def test_scenario_runs_are_deterministic():
    scenario = canonical_scenarios()["authenticated-direct"]
    first = run_scenario(scenario, seed=5)
    second = run_scenario(scenario, seed=5)
    assert first.trace_pairs() == second.trace_pairs()
    assert (first.outcomes, first.handoffs) == (second.outcomes, second.handoffs)


def test_scenario_mismatch_detected():
    scenario = canonical_scenarios()["unauthenticated-direct"]
    tampered = replace(scenario, expected_handoffs=3)
    with pytest.raises(ScenarioMismatch) as exc:
        run_scenario(tampered)
    assert "handoffs" in str(exc.value)


def test_scenario_trace_mismatch_names_first_divergence():
    scenario = canonical_scenarios()["unauthenticated-direct"]
    tampered = replace(
        scenario,
        expected_traces=((("c2s", "initialize"), ("s2c", "error")),),
        expected_outcomes=("not_hosted",),
        expected_handoffs=0,
    )
    with pytest.raises(ScenarioMismatch, match="session 0 entry 1"):
        run_scenario(tampered)


def test_refused_acquire_step_is_judged_as_a_mismatch():
    # The server records the refused acquire; it is not an error of the run.
    scenario = canonical_scenarios()["token-passing"]
    wrong_key = bytes.fromhex(harness.WRONG_KEY_HEX)
    refused = harness._acquire(["vault"], wrong_key)
    tampered = replace(scenario, client=(refused, scenario.client[1]))
    with pytest.raises(ScenarioMismatch) as exc:
        run_scenario(tampered)
    assert str(exc.value) == "token-passing: session 0: expected 5 messages, got 4"


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_fuzz_and_scenarios_leak_no_file_descriptors():
    gc.collect()
    before = len(list(Path("/proc/self/fd").iterdir()))
    fuzz_malformed(seed=1, n=500)
    for scenario in canonical_scenarios().values():
        run_scenario(scenario)
    gc.collect()
    assert len(list(Path("/proc/self/fd").iterdir())) == before


def test_scenarios_identical_over_tcp():
    for name, scenario in canonical_scenarios().items():
        memory = run_scenario(scenario, transport="memory")
        tcp = run_scenario(scenario, transport="tcp")
        assert memory.trace_pairs() == tcp.trace_pairs(), name
        assert memory.outcomes == tcp.outcomes, name


# --- fuzzing ---


def test_fuzz_small_run_is_clean_and_deterministic():
    first = fuzz_malformed(seed=3, n=500)
    second = fuzz_malformed(seed=3, n=500)
    assert first.to_dict() == second.to_dict()
    assert first.cases == 500
    assert first.handoffs == 0
    assert first.crashes == 0
    assert sum(first.responses.values()) == 500
    assert set(first.responses) == {"error-frame", "silent-close"}
    # Both response classes occur across the mutation mix.
    assert first.responses["error-frame"] > 0
    assert first.responses["silent-close"] > 0


def test_fuzz_different_seeds_differ():
    assert (
        fuzz_malformed(seed=1, n=200).responses != fuzz_malformed(seed=2, n=200).responses
    )


def test_fuzz_counts_handoffs_under_a_caller_config(monkeypatch):
    # A well-formed open initialize stands in for a case the gate lets through.
    opener = encode_frame(
        Initialize(authentication=("psk-cr",), streams=(StreamRequest("echo"),))
    )
    monkeypatch.setattr(harness, "_fuzz_payload", lambda rng, mutation_class: opener)
    assert fuzz_malformed(seed=1, n=5).handoffs == 5


def test_fuzz_counts_a_crash_and_closes_the_server_end(monkeypatch):
    def crash(*args):
        raise RuntimeError("driver bug")

    monkeypatch.setattr(agent, "_drive", crash)
    report = fuzz_malformed(seed=1, n=5)
    assert (report.crashes, report.handoffs) == (5, 0)
    assert report.responses == {"error-frame": 0, "silent-close": 5}


def test_fuzz_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        fuzz_malformed(seed=1, n=0)


# --- enumeration ---


def test_enumeration_depth_8_holds_gate_and_reaches_all_causes():
    report = enumerate_machine(8, expected_causes=SERVER_CLOSE_CAUSES)
    assert isinstance(report, EnumerationReport)
    assert set(report.close_causes) >= SERVER_CLOSE_CAUSES
    assert report.handoffs_observed > 0
    assert report.states_explored > 10


def test_enumeration_depth_1_reaches_only_initialize_transitions():
    report = enumerate_machine(1)
    # One event cannot get past the first exchange: handoff and the start
    # of authentication are reachable, the post-token phase is not.
    assert "HandedOff" in report.phases_reached
    assert "AuthInProgress" in report.phases_reached
    assert "AwaitReinitialize" not in report.phases_reached
    assert "auth_failed" not in report.close_causes


def test_enumeration_missing_cause_is_reported():
    with pytest.raises(CounterexampleFound) as exc:
        enumerate_machine(1, expected_causes={"auth_failed"})
    assert "auth_failed" in str(exc.value)


def test_enumeration_rejects_silly_depths():
    with pytest.raises(ValueError):
        enumerate_machine(0)
    with pytest.raises(ValueError):
        enumerate_machine(11)


class _SkipTokenCheckEnv(ServerEnv):
    """Deliberate mutant: any presented token is accepted unexamined."""

    def token_valid(self, token, application):
        if token is None:
            return None
        return IdentityContext(
            identity="whoever",
            application=application,
            method=AuthMethod.TOKEN,
            authenticated_at=self.clock(),
        )


class _NoAuthRequiredEnv(ServerEnv):
    """Deliberate mutant: the auth requirement is never enforced."""

    def requires_auth(self, name):
        return False


def _mutant_env(cls) -> ServerEnv:
    honest = default_enumeration_env()
    return cls(
        applications=honest.applications,
        supported_auth=honest.supported_auth,
        token_secret=honest.token_secret,
        clock=honest.clock,
        rng=honest.rng,
    )


@pytest.mark.parametrize("mutant", [_SkipTokenCheckEnv, _NoAuthRequiredEnv])
def test_enumeration_catches_gate_mutants(mutant):
    env = _mutant_env(mutant)
    with pytest.raises(CounterexampleFound) as exc:
        enumerate_machine(8, env=env)
    assert exc.value.path  # the offending event sequence is reported


def _hand_off_any_token(state, event, env):
    """Deliberate mutant: a hosted first stream with any token is handed off.

    It enters HandedOff without emitting anything but the connect frame,
    so only an oracle that reads the phase can see it.
    """
    if (
        isinstance(state, AwaitInitialize)
        and isinstance(event, FrameReceived)
        and isinstance(event.message, Initialize)
    ):
        first = event.message.streams[0]
        if env.application_hosted(first.application) and first.token is not None:
            ctx = IdentityContext("whoever", first.application, AuthMethod.TOKEN, env.clock())
            return HandedOff(ctx), [Send(Connect(first.application))]
    return server_step(state, event, env)


def test_enumeration_checks_the_phase_not_the_actions(monkeypatch):
    monkeypatch.setattr(harness, "server_step", _hand_off_any_token)
    with pytest.raises(CounterexampleFound, match="'whoever' differs from token identity"):
        enumerate_machine(8)


def test_alphabet_covers_every_message_class():
    env = default_enumeration_env()
    alphabet = build_event_alphabet(env.token_secret, env.clock())
    labels = {type(e).__name__ for e in alphabet}
    assert labels == {
        "FrameReceived",
        "FrameMalformed",
        "AuthStepResult",
        "HandshakeTimeout",
    }


def test_virtual_clock():
    clock = VirtualClock(100.0)
    assert clock() == 100.0
    clock.advance(5)
    assert clock() == 105.0
