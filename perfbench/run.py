"""USP handshake benchmark over TCP loopback.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload open_serial --seed 1 --seconds 10 --trace 0

The load generator is this process. It starts a usp server in a child
process (server.py) so that the two do not share one interpreter lock,
and drives it through usp's public ``connect`` and ``acquire_token``. All
traffic crosses the loopback interface.

A run is a sequence of rounds, repeated until ``--seconds`` have passed.
Each round starts a fresh server, completes a first handshake (the
set-up time), warms up, then times a fixed number of sessions in a
closed loop and stops the server. The fixed count per server keeps what
the server retains per session (records, thread objects) independent of
its speed, so its peak memory is comparable between commits. Every
metric is computed per round and reported as the median over rounds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace
1`` alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones, plus the traced and untraced session rates.

Every operation's result is checked: echoed bytes, the identity and
method of each IdentityContext, the rejection of a wrong key, and, at
shutdown, the server's own records and handler count against what the
generator expected. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ALICE_KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
WRONG_KEY = bytes.fromhex("ffeeddccbbaa99887766554433221100")
SERVER_TIMEOUT_S = 30.0

# What the server's record of each kind of session must say:
# outcome | method | identity | non-authdata messages | error frame sent.
EXPECTED_RECORD = {
    "open": "handed_off|none_required|anonymous|2|False",
    "acquire": "connection_lost|None|None|3|False",
    "psk": "handed_off|protocol|alice|5|False",
    "token": "handed_off|token|alice|2|False",
    "wrong_key": "auth_failed|None|None|2|False",
}
HANDED_OFF = ("open", "psk", "token")

AUTH_CYCLE = ["acquire"] + ["psk"] * 2 + ["token"] * 6 + ["wrong_key"]


@dataclass(frozen=True)
class Workload:
    auth: bool  # the auth_mix cycle instead of open connects
    clients: int
    sessions: int  # timed sessions per round (per server process)
    warmup: int
    payload_bytes: int
    echoes: int
    why: str

    def kinds(self, n: int, rng: random.Random) -> list[str]:
        if not self.auth:
            return ["open"] * n
        kinds: list[str] = []
        while len(kinds) < n:
            cycle = list(AUTH_CYCLE)
            rng.shuffle(cycle)
            kinds.extend(cycle)
        return kinds[:n]


WORKLOADS = {
    "open_serial": Workload(
        auth=False, clients=1, sessions=2000, warmup=20, payload_bytes=64, echoes=1,
        why="smallest handshake; agent and transport per-connection cost is nearly all of it"),
    "auth_mix": Workload(
        auth=True, clients=1, sessions=1500, warmup=10, payload_bytes=1, echoes=1,
        why="psk rounds, token issue and validate, token-bearing frames and a silent rejection"),
    "open_concurrent": Workload(
        auth=False, clients=2, sessions=1200, warmup=20, payload_bytes=4096, echoes=16,
        why="handed-off streams move 4 KiB echoes while new handshakes run"),
}


# --- machine facts ---


def read_text(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def port_range_size(text: str) -> int | None:
    try:
        low, high = (int(x) for x in text.split())
    except ValueError:
        return None
    return high - low + 1


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "usp").glob("*.py")))


# --- one operation ---


def read_exact(stream, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            break
        buf.extend(chunk)
    return bytes(buf)


def operate(usp, kind: str, endpoint, payload: bytes, echoes: int, tokens: list[str]):
    """Run one session of ``kind``; return (ok, handshake end time, app bytes)."""
    alice = usp.Credentials("alice", ALICE_KEY)
    if kind == "acquire":
        got = usp.acquire_token(endpoint, ["vault"], credentials=alice)
        handshake_end = time.perf_counter()
        ok = len(got) == 1 and got[0][0] == "vault" and bool(got[0][1])
        if ok:
            tokens[0] = got[0][1]
        return ok, handshake_end, 0
    if kind == "wrong_key":
        try:
            stream, _ = usp.connect(endpoint, "vault",
                                    credentials=usp.Credentials("alice", WRONG_KEY))
        except usp.AuthFailed:
            return True, time.perf_counter(), 0
        stream.close()
        return False, time.perf_counter(), 0
    if kind == "open":
        stream, ctx = usp.connect(endpoint, "echo")
        expected = ("anonymous", "echo", usp.AuthMethod.NONE_REQUIRED)
    elif kind == "psk":
        stream, ctx = usp.connect(endpoint, "vault", credentials=alice)
        expected = ("alice", "vault", usp.AuthMethod.PROTOCOL)
    else:
        stream, ctx = usp.connect(endpoint, "vault", offered=(), token=tokens[0])
        expected = ("alice", "vault", usp.AuthMethod.TOKEN)
    handshake_end = time.perf_counter()
    try:
        ok = (ctx.identity, ctx.application, ctx.method) == expected
        for _ in range(echoes):
            stream.write(payload)
            ok = read_exact(stream, len(payload)) == payload and ok
    finally:
        stream.close()
    return ok, handshake_end, echoes * len(payload)


@dataclass
class Sample:
    kind: str
    ok: bool
    start: float
    handshake_end: float
    end: float
    app_bytes: int


def client_loop(usp, kinds, endpoint, workload, rng, tokens, first_sid, out):
    payloads = [rng.randbytes(workload.payload_bytes) for _ in range(16)]
    thread = threading.current_thread()
    for i, kind in enumerate(kinds):
        payload = payloads[rng.randrange(len(payloads))]
        thread.bench_sid = first_sid + i
        start = time.perf_counter()
        try:
            ok, handshake_end, app_bytes = operate(
                usp, kind, endpoint, payload, workload.echoes, tokens)
        except (usp.UspError, OSError) as exc:
            print(f"# {kind} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok, handshake_end, app_bytes = False, math.nan, 0
        out.append(Sample(kind, ok, start, handshake_end, time.perf_counter(), app_bytes))


# --- one round: one server process ---


@dataclass
class Round:
    setup_s: float
    seconds: float
    client_cpu_ms: float
    samples: list[Sample]
    attempted: int
    failed: int
    report: dict
    layers: dict = field(default_factory=dict)


class ServerProcess:
    """The server child; killed and reaped on every exit path."""

    def __init__(self, trace: bool, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace", str(int(trace)),
             "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait(SERVER_TIMEOUT_S)}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def run_round(usp, workload: Workload, rng: random.Random, trace: bool, cpus) -> Round:
    from tracing import Tracer, layer_metrics, patch_layers

    tracer = Tracer() if trace else None
    if tracer:
        patch_layers(tracer, "client")
    launched = time.perf_counter()
    server = ServerProcess(trace, cpus[1])
    try:
        endpoint = ("127.0.0.1", server.reply()["port"])
        tokens = [""]
        first = "acquire" if workload.auth else "open"
        warm: list[Sample] = []
        client_loop(usp, [first], endpoint, workload, rng, tokens, 0, warm)
        setup_s = time.perf_counter() - launched
        client_loop(usp, workload.kinds(workload.warmup, rng), endpoint, workload, rng,
                    tokens, 1, warm)
        server.command("mark")

        per_client = workload.sessions // workload.clients
        plans = [workload.kinds(per_client, rng) for _ in range(workload.clients)]
        outs: list[list[Sample]] = [[] for _ in plans]
        rngs = [random.Random(rng.random()) for _ in plans]
        threads = [
            threading.Thread(target=client_loop, args=(
                usp, plan, endpoint, workload, rngs[i], list(tokens),
                1 + workload.warmup + i * per_client, outs[i]))
            for i, plan in enumerate(plans)
        ]
        cpu0, t0 = time.process_time(), time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t1, cpu1 = time.perf_counter(), time.process_time()
        samples = [s for out in outs for s in out]
        every = warm + samples
        report = server.command(f"stop {len(every)}")
        server.proc.wait(SERVER_TIMEOUT_S)
    finally:
        server.close()
        if tracer:
            tracer.unpatch()

    failed = sum(not s.ok for s in every)
    expected = Counter(EXPECTED_RECORD[s.kind] for s in every)
    seen = Counter(report["outcomes"])
    mismatch = sum(((expected - seen) + (seen - expected)).values())
    handler_expected = sum(s.kind in HANDED_OFF for s in every)
    if mismatch or report["handler_calls"] != handler_expected:
        print(f"# server records differ: expected {dict(expected)}, got {dict(seen)}; "
              f"handler calls {report['handler_calls']} of {handler_expected}",
              file=sys.stderr)
        failed += max(mismatch, abs(report["handler_calls"] - handler_expected), 1)
    result = Round(setup_s=setup_s, seconds=t1 - t0, client_cpu_ms=(cpu1 - cpu0) * 1e3,
                   samples=samples, attempted=len(every), failed=failed, report=report)
    if tracer:
        result.layers = layer_metrics(tracer.spans(), report["spans"],
                                      sessions=len(every), records=report["records"])
    report["spans"] = []
    return result


# --- metrics ---


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; NaN when every operation failed."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str, str]]:
    """name -> (median over rounds, unit, sample note)."""

    def med(f):
        return statistics.median(f(r) for r in rounds)

    def latency(p: float, end: str):
        def per_round(r: Round) -> float:
            return percentile([(getattr(s, end) - s.start) * 1e3 for s in r.samples if s.ok], p)
        return per_round

    ok = sum(s.ok for r in rounds for s in r.samples)
    samples = f"(n={ok} in {len(rounds)} rounds)"
    per_session = lambda total: lambda r: total(r) / len(r.samples)  # noqa: E731
    return {
        "sessions_per_s": (med(lambda r: len(r.samples) / r.seconds), "1/s", ""),
        "handshake_p50_ms": (med(latency(0.50, "handshake_end")), "ms", samples),
        "handshake_p99_ms": (med(latency(0.99, "handshake_end")), "ms", samples),
        "session_p50_ms": (med(latency(0.50, "end")), "ms", samples),
        "session_p99_ms": (med(latency(0.99, "end")), "ms", samples),
        "app_mb_per_s": (med(lambda r: sum(s.app_bytes for s in r.samples) / r.seconds / 1e6),
                         "MB/s", ""),
        "server_cpu_ms_per_session": (med(per_session(lambda r: r.report["cpu_ms"])), "ms", ""),
        "client_cpu_ms_per_session": (med(per_session(lambda r: r.client_cpu_ms)), "ms", ""),
        "server_peak_rss_mb": (med(lambda r: r.report["peak_rss_mb"]), "MB", ""),
        "setup_s": (med(lambda r: r.setup_s), "s", f"(n={len(rounds)})"),
    }


def load_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sessions", type=int, default=0,
                        help="timed sessions per round (default: the workload's own)")
    args = parser.parse_args(argv)

    if not (SRC / "usp" / "__init__.py").is_file():
        print(f"error: no usp source at {SRC / 'usp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import usp

    workload = WORKLOADS[args.workload]
    if args.sessions > 0:
        workload = Workload(**{**workload.__dict__, "sessions": args.sessions,
                               "warmup": min(workload.warmup, args.sessions)})
    ports_text = read_text("/proc/sys/net/ipv4/ip_local_port_range")
    ports = port_range_size(ports_text)
    per_server = workload.sessions + workload.warmup + 1
    if ports is not None and per_server > ports:
        print(f"error: {per_server} connections per server exceed the "
              f"{ports} ephemeral ports", file=sys.stderr)
        return 2
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) >= 2:
        cpus = (allowed[0], allowed[1])
        os.sched_setaffinity(0, {cpus[0]})
    else:
        cpus = (-1, -1)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"transport=loopback ip_local_port_range={ports_text.replace(chr(9), '-')} "
          f"tcp_tw_reuse={read_text('/proc/sys/net/ipv4/tcp_tw_reuse')} "
          f"pinned_cpus={'client:%d,server:%d' % cpus if cpus[0] >= 0 else 'no'}")
    print(f"# src_usp_lines={src_lines()} (information, not a metric)")
    print(f"# workload clients={workload.clients} sessions_per_round={workload.sessions} "
          f"why: {workload.why}")

    rng = random.Random(args.seed)
    started = time.perf_counter()
    rounds: list[Round] = []
    traced: list[Round] = []
    try:
        while True:
            trace = bool(args.trace) and len(rounds) > len(traced)
            began = time.perf_counter()
            (traced if trace else rounds).append(run_round(usp, workload, rng, trace, cpus))
            # Start no round that would end after --seconds, once each kind ran.
            now = time.perf_counter()
            if rounds and (traced or not args.trace) and (
                    now - started + (now - began) > args.seconds):
                break
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    every = rounds + traced
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    print(f"# rounds untraced={len(rounds)} traced={len(traced)} attempted={attempted} "
          f"failed={failed}")
    print(f"{'failed_ratio':34} {failed / attempted:12.6f} ratio (n={attempted})")

    e2e = end_to_end(rounds)
    if args.trace:
        untraced_rate = e2e["sessions_per_s"][0]
        traced_rate = end_to_end(traced)["sessions_per_s"][0]
        metrics = {name: statistics.median(r.layers[name] for r in traced)
                   for name in traced[0].layers}
        metrics["trace.sessions_per_s"] = traced_rate
        metrics["trace.untraced_sessions_per_s"] = untraced_rate
        metrics["trace.overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100
        units = load_units("per_layer")
        out = {}
        for name, unit in units.items():
            print(f"{name:34} {metrics[name]:12.4f} {unit}")
            out[name] = {"value": metrics[name], "unit": unit}
    else:
        units = load_units("end_to_end")
        out = {}
        for name, unit in units.items():
            value, own_unit, samples = e2e[name]
            if own_unit != unit:
                raise ValueError(f"{name}: unit {own_unit} here, {unit} in BENCHMARK.json")
            print(f"{name:34} {value:12.4f} {unit} {samples}")
            out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
