"""Universal Session Protocol reference implementation.

A session layer that authenticates a connection and binds an identity to
it before a single byte reaches the hosted application.
"""

from .agent import (
    ApplicationRegistration,
    AuthFailed,
    Credentials,
    DEFAULT_PORT,
    NoSharedProtocol,
    RemoteError,
    ServerConfig,
    acquire_token,
    connect,
    echo_handler,
    parse_target,
    serve,
)
from .auth import (
    AuthMethod,
    IdentityContext,
    issue_token,
    negotiate,
    psk_protocol,
    validate_token,
)
from .errors import UspError
from .session import client_step, server_step
from .transport import memory_pair, tcp_dial, tcp_listen
from .wire import MAX_FRAME_BYTES, decode_frame, encode_frame

__version__ = "0.1.0"

# Test tooling, loaded on first use so that agents do not import it.
_HARNESS_NAMES = frozenset(
    {"canonical_scenarios", "enumerate_machine", "fuzz_malformed", "run_scenario"}
)


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ApplicationRegistration",
    "AuthFailed",
    "AuthMethod",
    "Credentials",
    "DEFAULT_PORT",
    "IdentityContext",
    "MAX_FRAME_BYTES",
    "NoSharedProtocol",
    "RemoteError",
    "ServerConfig",
    "UspError",
    "acquire_token",
    "canonical_scenarios",
    "client_step",
    "connect",
    "decode_frame",
    "echo_handler",
    "encode_frame",
    "enumerate_machine",
    "fuzz_malformed",
    "issue_token",
    "memory_pair",
    "negotiate",
    "parse_target",
    "psk_protocol",
    "run_scenario",
    "serve",
    "server_step",
    "tcp_dial",
    "tcp_listen",
    "validate_token",
    "__version__",
]
