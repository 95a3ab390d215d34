"""Operator entry points: serve, connect, token, scenario, fuzz.

Exit codes: 0 success, 1 protocol or authentication failure, 2 usage or
configuration error. Every command is a thin wrapper over the agent and
harness modules; no protocol logic lives here.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

from .agent import (
    DEFAULT_PORT,
    MalformedTarget,
    acquire_token,
    connect,
    load_server_config,
    parse_target,
    serve,
)
from .auth import Credentials
from .errors import UspError
from .transport import BindError, ConnectionLost, StreamHandle, tcp_listen

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="usp", description="Universal Session Protocol agent")
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a server agent")
    p_serve.add_argument("--config", required=True, help="JSON server config file")
    p_serve.add_argument("--bind", default=f"127.0.0.1:{DEFAULT_PORT}", help="host:port to listen on")

    p_connect = sub.add_parser("connect", help="connect and bridge stdio to the stream")
    p_connect.add_argument("target", help="usp://host[:port]/application")
    _add_auth_flags(p_connect)
    p_connect.add_argument("--token", help="pre-acquired bearer token")

    p_token = sub.add_parser("token", help="authenticate and print bearer tokens")
    p_token.add_argument("target", help="host[:port]")
    p_token.add_argument("--app", action="append", required=True, help="application name (repeatable)")
    _add_auth_flags(p_token)

    p_scenario = sub.add_parser("scenario", help="run canonical handshake scenarios")
    p_scenario.add_argument("name", nargs="?", default="all", help="scenario name or 'all'")
    p_scenario.add_argument("--transport", choices=("memory", "tcp"), default="memory")
    p_scenario.add_argument("--seed", type=int, default=0)

    p_fuzz = sub.add_parser("fuzz", help="throw malformed input at a server")
    p_fuzz.add_argument("--n", type=int, default=10000, help="number of cases")
    p_fuzz.add_argument("--seed", type=int, default=1)

    return parser


def _add_auth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--auth", default="psk-cr", help="authentication protocol to offer")
    parser.add_argument("--identity", help="identity for the auth protocol")
    parser.add_argument("--key-file", help="file containing the hex-encoded key")


def _credentials_from(args) -> Credentials | None:
    if not args.identity:
        return None
    if not args.key_file:
        print("--identity requires --key-file", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        key = bytes.fromhex(Path(args.key_file).read_text(encoding="utf-8").strip())
    except (OSError, ValueError) as exc:
        print(f"cannot read key file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return Credentials(identity=args.identity, key=key)


def _print_record(record) -> None:
    """Write one session record to stdout as a JSON line."""
    sys.stdout.write(json.dumps(record.to_dict()) + "\n")
    sys.stdout.flush()


def _cmd_serve(args) -> int:
    try:
        config = load_server_config(args.config)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    host, _, port = args.bind.rpartition(":")
    try:
        listener = tcp_listen(host or "127.0.0.1", int(port))
    except (BindError, ValueError) as exc:
        print(f"bind error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handle = serve(listener, config, observer=_print_record)
    except ValueError as exc:  # a supported_auth protocol with no implementation
        listener.close()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    apps = ", ".join(r.application for r in config.registrations)
    print(f"serving [{apps}] on {args.bind}", file=sys.stderr)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        handle.shutdown()
    return EXIT_OK


def _bridge_stdio(stream: StreamHandle) -> None:
    def stdin_pump() -> None:
        try:
            while True:
                data = sys.stdin.buffer.read1(4096)
                if not data:
                    stream.shutdown_write()
                    return
                stream.write(data)
        except (ConnectionLost, OSError):
            return

    pump = threading.Thread(target=stdin_pump, daemon=True)
    pump.start()
    while True:
        try:
            data = stream.read(4096)
        except ConnectionLost:
            return
        if not data:
            return
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _cmd_connect(args) -> int:
    try:
        host, port, application = parse_target(args.target)
    except MalformedTarget as exc:
        print(f"bad target: {exc}", file=sys.stderr)
        return EXIT_USAGE
    credentials = _credentials_from(args)
    try:
        stream, ctx = connect(
            (host, port),
            application,
            offered=(args.auth,),
            credentials=credentials,
            token=args.token,
        )
    except UspError as exc:
        print(f"connect failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(json.dumps(ctx.to_dict()), file=sys.stderr)
    try:
        _bridge_stdio(stream)
    finally:
        stream.close()
    return EXIT_OK


def _cmd_token(args) -> int:
    host, _, port = args.target.rpartition(":")
    if not host:
        host, port = args.target, str(DEFAULT_PORT)
    credentials = _credentials_from(args)
    try:
        tokens = acquire_token(
            (host, int(port)),
            args.app,
            offered=(args.auth,),
            credentials=credentials,
        )
    except ValueError as exc:
        print(f"bad target: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UspError as exc:
        print(f"token acquisition failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for application, token in tokens:
        print(f"{application}\t{token}")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    from .harness import ScenarioMismatch, canonical_scenarios, run_scenario

    scenarios = canonical_scenarios()
    if args.name == "all":
        selected = list(scenarios.values())
    elif args.name in scenarios:
        selected = [scenarios[args.name]]
    else:
        print(f"unknown scenario: {args.name}", file=sys.stderr)
        print(f"known: {', '.join(scenarios)} (or 'all')", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for scenario in selected:
        try:
            run_scenario(scenario, transport=args.transport, seed=args.seed)
        except ScenarioMismatch as exc:
            failures += 1
            print(f"FAIL {exc}")
        else:
            print(f"PASS {scenario.name}")
    return EXIT_FAILURE if failures else EXIT_OK


def _cmd_fuzz(args) -> int:
    from .harness import fuzz_malformed

    if args.n <= 0:
        print("--n must be positive", file=sys.stderr)
        return EXIT_USAGE
    report = fuzz_malformed(seed=args.seed, n=args.n)
    print(json.dumps(report.to_dict()))
    return EXIT_OK if report.handoffs == 0 and report.crashes == 0 else EXIT_FAILURE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    commands = {
        "serve": _cmd_serve,
        "connect": _cmd_connect,
        "token": _cmd_token,
        "scenario": _cmd_scenario,
        "fuzz": _cmd_fuzz,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
