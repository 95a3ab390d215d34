"""USP server process for the benchmark.

Serves an open ``echo`` application and a ``vault`` application that
requires psk-cr authentication (identity ``alice``) over a TCP listener
on 127.0.0.1, configured only through usp's public API. The secrets are
fixed, so the server's behaviour depends only on the traffic it gets.

Control runs over stdin/stdout, one JSON object per line:

- on start it prints ``{"port": <port>}`` once it accepts connections;
- ``mark`` records the CPU clock and answers ``{"marked": true}``;
- ``stop <n>`` waits until ``n`` sessions have a record, reads the CPU
  clock, shuts the server down and prints the report, then exits.

Run by run.py; ``--trace 1`` records spans (see tracing.py) and adds
them to the report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import usp  # noqa: E402
from usp.session import non_authdata_count  # noqa: E402

from tracing import Tracer, patch_layers  # noqa: E402

ALICE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
TOKEN_SECRET = b"perfbench-token-secret-32-bytes!"
RECORDS_WAIT_S = 20.0


class CountingHandler:
    """The registered application handler: usp's echo, counted."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, stream, ctx) -> None:
        with self._lock:
            self.calls += 1
        usp.echo_handler(stream, ctx)


def record_key(record) -> str:
    """The facts of a session record the load generator predicts."""
    has_error = any(entry.name == "error" for entry in record.trace)
    return "|".join(str(x) for x in (
        record.outcome, record.method, record.identity,
        non_authdata_count(record.trace), has_error,
    ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=-1, help="pin to this CPU")
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    tracer = Tracer() if args.trace else None
    handler = CountingHandler()
    registered = tracer.wrap("handler", handler) if tracer else handler
    if tracer:
        patch_layers(tracer, "server")
    config = usp.ServerConfig(
        registrations=(
            usp.ApplicationRegistration("echo", requires_auth=False, handler=registered),
            usp.ApplicationRegistration("vault", requires_auth=True, handler=registered),
        ),
        token_secret=TOKEN_SECRET,
        psk_secrets={"alice": ALICE_KEY},
    )
    server = usp.serve(usp.tcp_listen("127.0.0.1", 0), config)
    print(json.dumps({"port": server.port}), flush=True)

    cpu_mark = time.process_time()
    for line in sys.stdin:
        command = line.split()
        if command == ["mark"]:
            cpu_mark = time.process_time()
            print(json.dumps({"marked": True}), flush=True)
        elif command and command[0] == "stop":
            expected = int(command[1])
            deadline = time.monotonic() + RECORDS_WAIT_S
            while len(server.records()) < expected and time.monotonic() < deadline:
                time.sleep(0.005)
            cpu_ms = (time.process_time() - cpu_mark) * 1e3
            server.shutdown()
            break
    else:
        server.shutdown()
        return 1
    if tracer:
        tracer.unpatch()
    records = server.records()
    report = {
        "cpu_ms": cpu_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "handler_calls": handler.calls,
        "records": len(records),
        "outcomes": Counter(record_key(r) for r in records),
        "spans": tracer.spans() if tracer else [],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
