"""CLI tests: exit codes and end-to-end command behavior."""

import json
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

from usp.cli import main

ALICE_KEY_HEX = "00112233445566778899aabbccddeeff"
WRONG_KEY_HEX = "00112233445566778899aabbccddee00"


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


@pytest.fixture
def server_files(tmp_path):
    (tmp_path / "psks.json").write_text(json.dumps({"alice": ALICE_KEY_HEX}))
    config = {
        "applications": [
            {"application": "echo"},
            {"application": "vault", "requires_auth": True},
        ],
        "supported_auth": ["psk-cr"],
        "psk_store": "psks.json",
        "token_secret_hex": "aa" * 32,
    }
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps(config))
    key_path = tmp_path / "alice.key"
    key_path.write_text(ALICE_KEY_HEX)
    wrong_key_path = tmp_path / "wrong.key"
    wrong_key_path.write_text(WRONG_KEY_HEX)
    return config_path, key_path, wrong_key_path


@pytest.fixture
def serve_process(server_files):
    """A `usp serve` child process on a free port, as (process, port)."""
    config_path = server_files[0]
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "usp.cli", "serve", "--config", str(config_path),
         "--bind", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Wait for the startup banner.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if "serving" in line:
            break
        if proc.poll() is not None:
            raise AssertionError(f"serve exited early: {proc.stderr.read()}")
    yield proc, port
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    proc.stderr.close()


@pytest.fixture
def running_server(server_files, serve_process):
    _, key_path, wrong_key_path = server_files
    return serve_process[1], key_path, wrong_key_path


def run_cli(*args, stdin: bytes = b"") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "usp.cli", *args],
        input=stdin,
        capture_output=True,
        timeout=30,
    )


def test_connect_echoes_stdio(running_server):
    port, _, _ = running_server
    result = run_cli("connect", f"usp://127.0.0.1:{port}/echo", stdin=b"hello over usp\n")
    assert result.returncode == 0
    assert result.stdout == b"hello over usp\n"
    ctx = json.loads(result.stderr.splitlines()[0])
    assert ctx["identity"] == "anonymous"
    assert ctx["method"] == "none_required"


def test_session_log_lines(serve_process):
    proc, port = serve_process
    result = run_cli("connect", f"usp://127.0.0.1:{port}/echo", stdin=b"logged")
    assert result.returncode == 0
    # The server writes the record once the client has hung up.
    ready, _, _ = select.select([proc.stdout], [], [], 10)
    assert ready, "no session record on stdout"
    entry = json.loads(proc.stdout.readline())
    assert entry["outcome"] == "handed_off"
    assert entry["application"] == "echo"
    assert entry["identity"] == "anonymous"
    assert entry["trace"][0] == {"dir": "c2s", "msg": "initialize"}


def test_connect_authenticated(running_server):
    port, key_path, _ = running_server
    result = run_cli(
        "connect",
        f"usp://127.0.0.1:{port}/vault",
        "--identity",
        "alice",
        "--key-file",
        str(key_path),
        stdin=b"secret ping",
    )
    assert result.returncode == 0
    assert result.stdout == b"secret ping"
    ctx = json.loads(result.stderr.splitlines()[0])
    assert ctx["identity"] == "alice"
    assert ctx["method"] == "protocol"


def test_connect_wrong_key_exits_1(running_server):
    port, _, wrong_key_path = running_server
    result = run_cli(
        "connect",
        f"usp://127.0.0.1:{port}/vault",
        "--identity",
        "alice",
        "--key-file",
        str(wrong_key_path),
    )
    assert result.returncode == 1
    assert b"connect failed" in result.stderr


def test_connect_unhosted_exits_1(running_server):
    port, _, _ = running_server
    result = run_cli("connect", f"usp://127.0.0.1:{port}/ghost")
    assert result.returncode == 1


def test_token_then_two_step_connect(running_server):
    port, key_path, _ = running_server
    result = run_cli(
        "token",
        f"127.0.0.1:{port}",
        "--app",
        "vault",
        "--identity",
        "alice",
        "--key-file",
        str(key_path),
    )
    assert result.returncode == 0
    application, token = result.stdout.decode().strip().split("\t")
    assert application == "vault"

    connected = run_cli(
        "connect", f"usp://127.0.0.1:{port}/vault", "--token", token, stdin=b"by token"
    )
    assert connected.returncode == 0
    assert connected.stdout == b"by token"
    ctx = json.loads(connected.stderr.splitlines()[0])
    assert ctx["method"] == "token"
    assert ctx["identity"] == "alice"


def test_token_bad_credentials_exits_1(running_server):
    port, _, wrong_key_path = running_server
    result = run_cli(
        "token",
        f"127.0.0.1:{port}",
        "--app",
        "vault",
        "--identity",
        "alice",
        "--key-file",
        str(wrong_key_path),
    )
    assert result.returncode == 1
    assert result.stdout == b""


def test_serve_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli("serve", "--config", str(bad))
    assert result.returncode == 2
    assert b"config error" in result.stderr


@pytest.mark.parametrize(
    "config",
    [
        {"applications": [{"application": 5}]},
        {"applications": [{"application": "echo"}], "supported_auth": ["x"]},
        {"applications": [{"application": "echo"}], "token_ttl": 2**63},
    ],
    ids=["application-not-a-string", "protocol-not-implemented", "token-ttl-too-large"],
)
def test_serve_config_error_exits_2_without_a_traceback(tmp_path, config):
    config_path = tmp_path / "server.json"
    config_path.write_text(json.dumps(config))
    result = run_cli("serve", "--config", str(config_path), "--bind", "127.0.0.1:0")
    assert result.returncode == 2
    assert result.stderr.startswith(b"config error: ")
    assert b"Traceback" not in result.stderr


def test_serve_port_in_use_exits_2(server_files):
    config_path, _, _ = server_files
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen()
    port = sock.getsockname()[1]
    try:
        result = run_cli("serve", "--config", str(config_path), "--bind", f"127.0.0.1:{port}")
        assert result.returncode == 2
        assert b"bind error" in result.stderr
    finally:
        sock.close()


def test_serve_bad_port_exits_2(server_files, capsys):
    config_path, _, _ = server_files
    assert main(["serve", "--config", str(config_path), "--bind", "127.0.0.1:99999"]) == 2
    assert capsys.readouterr().err.startswith("bind error: ")


def test_connect_bad_target_exits_2():
    assert main(["connect", "http://nope/x"]) == 2


def test_scenario_all_prints_seven_pass_lines(capsys):
    assert main(["scenario", "all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)


def test_scenario_single(capsys):
    assert main(["scenario", "token-passing"]) == 0
    assert capsys.readouterr().out.strip() == "PASS token-passing"


def test_scenario_mismatch_prints_fail_and_exits_1(capsys, monkeypatch):
    from dataclasses import replace

    from usp import harness

    real = harness.canonical_scenarios()
    tampered = replace(real["unauthenticated-direct"], expected_handoffs=3)
    monkeypatch.setattr(harness, "canonical_scenarios", lambda: {**real, tampered.name: tampered})
    assert main(["scenario", "unauthenticated-direct"]) == 1
    assert capsys.readouterr().out.strip() == (
        "FAIL unauthenticated-direct: handoffs: expected 3, got 1"
    )


def test_scenario_unknown_exits_2(capsys):
    assert main(["scenario", "nonesuch"]) == 2


def test_fuzz_command(capsys):
    assert main(["fuzz", "--n", "250", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cases"] == 250
    assert report["handoffs"] == 0
    assert report["crashes"] == 0


def test_fuzz_rejects_bad_n(capsys):
    assert main(["fuzz", "--n", "0"]) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["warble"])
    assert exc.value.code == 2


def test_agents_do_not_import_the_test_tooling():
    probe = (
        "import sys, usp, usp.cli\n"
        "assert 'usp.harness' not in sys.modules, 'harness imported eagerly'\n"
        "assert usp.fuzz_malformed.__module__ == 'usp.harness'\n"
        "from usp import *\n"
        "assert run_scenario is usp.harness.run_scenario\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=30)
    assert proc.returncode == 0, proc.stderr.decode()
