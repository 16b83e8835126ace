"""The serve path: a fresh ``repro serve`` daemon under closed-loop load.

The daemon runs in its own process over the memo the study path
warmed, so each key's first request reads the disk memo and later ones
hit the daemon's response memo.  ``WORKERS`` connections each send a
seeded draw of requests and wait for every reply before sending the
next (closed loop: the callers are CLI clients that wait).
"""

from __future__ import annotations

import collections
import math
import os
import random
import selectors
import signal
import socket
import subprocess
import time
from pathlib import Path

from common import WORKERS, Checks, child_env, median, percentile, repro_cli

APPLICATIONS = ("apache", "gnome", "mysql")
#: Replay technique subsets: each technique alone, and all five.
TECHNIQUE_SETS = (
    "process-pairs",
    "checkpoint-rollback",
    "progressive-retry",
    "restart-fresh",
    "software-rejuvenation",
    "process-pairs,checkpoint-rollback,progressive-retry,restart-fresh,software-rejuvenation",
)
#: Request kinds each workload's clients ask for.  The ``study`` workload
#: serves what the study computes, its experiment nodes; ``serve`` adds
#: per-application mining and the replay technique subsets.  Each client
#: draws uniformly over the request keys of its kinds.
KEY_SETS = {"study": ("study",), "serve": ("study", "mine", "replay")}
#: Seconds of load between live requests: one ``metrics`` and one
#: ``status`` request each time, on the default refresh of the program's
#: own ``repro study watch`` status line.
LIVE_INTERVAL_S = 1.0
LIVE_REQUESTS = (("metrics", {}), ("status", {}))
#: Requests each connection has encoded before a window starts, per
#: second of the window: about 5x the rate one connection reached on the
#: code this was written against, so a faster daemon does not run the
#: prepared requests dry.
PREPARED_PER_SECOND = 10_000
SOCKET_NAME = "serve.sock"
#: The daemon and, during a window, the clients share one CPU.  Across
#: two CPUs each request waits on the hypervisor's cross-CPU wake-ups.
#: On the 2-vCPU KVM guest this was tuned on, that made the p99 of
#: back-to-back windows range from 1.9 ms to 9 ms; on one CPU it stayed
#: within 10%.
SERVE_CPU = {min(os.sched_getaffinity(0))}


def experiment_nodes() -> list[str]:
    from repro.studygraph.registry import default_registry

    return [node.name for node in default_registry().experiments()]


def request_keys(nodes: list[str], kinds: tuple[str, ...]) -> list[tuple[str, dict]]:
    """Every ``(kind, params)`` request the clients may draw."""
    keys: list[tuple[str, dict]] = []
    if "study" in kinds:
        keys += [("study", {"node": node}) for node in nodes]
    if "mine" in kinds:
        keys += [("mine", {"application": app}) for app in APPLICATIONS]
    if "replay" in kinds:
        keys += [("replay", {"techniques": techniques}) for techniques in TECHNIQUE_SETS]
    return keys


def draw_requests(seed: int, connection: int, keys: list[tuple[str, dict]]):
    """Endless seeded uniform draw of ``(kind, params)`` for one connection."""
    rng = random.Random(f"serve:{seed}:{connection}")
    while True:
        yield rng.choice(keys)


def batch_digests(memo: Path, node_digests: dict[str, str],
                  kinds: tuple[str, ...]) -> dict[str, str]:
    """Expected digest per memoized request key, from batch runs.

    Study and mine requests map onto nodes the study path already ran.
    Replay subsets are ``E1`` with a ``techniques`` override; when the
    workload asks for them they run here, batch and serially, into the
    memo the daemon will read.
    """
    from repro.corpus.loader import full_study
    from repro.harness.telemetry import Telemetry
    from repro.pipeline.cache import ParseMineCache
    from repro.serve.service import request_key
    from repro.studygraph.context import StudyContext
    from repro.studygraph.registry import default_registry
    from repro.studygraph.scheduler import run_study

    expected = {
        request_key("study", {"node": name}): digest for name, digest in node_digests.items()
    }
    for app in APPLICATIONS:
        expected[request_key("mine", {"application": app})] = node_digests[f"mine.{app}"]
    if "replay" not in kinds:
        return expected
    context = StudyContext(
        study=full_study(), workers=1, cache=ParseMineCache(memo), telemetry=Telemetry()
    )
    for techniques in TECHNIQUE_SETS:
        registry = default_registry().with_overrides({"E1": {"techniques": techniques}})
        result = run_study(context, nodes=["E1"], registry=registry)
        expected[request_key("replay", {"techniques": techniques})] = result.runs["E1"].digest
    return expected


class Daemon:
    """One ``repro serve start --foreground`` process in ``work``."""

    def __init__(self, work: Path, memo: Path) -> None:
        self.socket = work / SOCKET_NAME
        self.log = open(work / "serve.log", "wb")
        self.proc = subprocess.Popen(
            repro_cli(
                "serve", "start", "--foreground", "--socket", SOCKET_NAME,
                "--cache-dir", str(memo), "--workers", "1",
            ),
            cwd=work, env=child_env(work), stdout=self.log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVE_CPU),
        )
        try:
            from repro.serve.client import wait_for_server

            if not wait_for_server(self.socket, timeout=60.0):
                raise RuntimeError("serve daemon did not answer within 60s")
        except BaseException:
            self.kill()
            raise

    def stop(self) -> float:
        """Graceful SIGTERM drain; returns seconds until the process exited."""
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        return time.perf_counter() - started

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class LiveTimer:
    """Queues ``LIVE_REQUESTS`` every ``interval`` seconds of load time.

    Load time runs on across windows, so the live requests keep their
    rate however a run splits its load.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.next_due = interval
        self.queued: list[tuple[str, dict]] = []

    def take(self, load_time: float) -> tuple[str, dict] | None:
        while load_time >= self.next_due:
            self.queued += LIVE_REQUESTS
            self.next_due += self.interval
        return self.queued.pop(0) if self.queued else None


class RequestStream:
    """One connection's seeded requests, encoded ahead of the load.

    Encoding between windows keeps it out of the client's work while a
    window runs; a stream that runs dry encodes on demand.
    """

    def __init__(self, seed: int, connection: int, keys: list[tuple[str, dict]]) -> None:
        self.client = f"bench-{connection}"
        self.draws = draw_requests(seed, connection, keys)
        self.sequence = 0
        self.ready: collections.deque[tuple[str, dict, bytes]] = collections.deque()

    def encode(self, kind: str, params: dict) -> tuple[str, dict, bytes]:
        from repro.serve.protocol import Request, encode_line

        self.sequence += 1
        request = Request(kind=kind, params=params, client=self.client, id=f"c{self.sequence}")
        return kind, params, encode_line(request)

    def prepare(self, count: int) -> None:
        while len(self.ready) < count:
            self.ready.append(self.encode(*next(self.draws)))

    def take(self) -> tuple[str, dict, bytes]:
        return self.ready.popleft() if self.ready else self.encode(*next(self.draws))


class _Connection:
    """One closed-loop client connection: at most one request in flight."""

    def __init__(self, path: Path, stream: RequestStream) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(str(path))
        self.stream = stream
        self.buffer = bytearray()
        self.pending: tuple[str, dict, float] | None = None

    def send(self, kind: str, params: dict, line: bytes) -> None:
        self.pending = (kind, params, time.perf_counter())
        self.sock.sendall(line)

    def read_reply(self) -> bytes | None:
        """The reply line once it is complete, else None."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError(f"{self.stream.client}: daemon closed the connection")
        self.buffer += chunk
        end = self.buffer.find(b"\n")
        if end < 0:
            return None
        line = bytes(self.buffer[: end + 1])
        del self.buffer[: end + 1]
        return line


def _closed_loop(path: Path, streams: list[RequestStream], seconds: float, timer: LiveTimer,
                 load_time: float) -> tuple[list, float]:
    """Drive every connection from one thread until ``seconds`` have passed.

    One thread and a selector, not a thread per connection, so the
    clients never wait on each other for the interpreter lock.  Latency
    runs from sending a request to reading the last byte of its reply.
    The loop only sends prepared lines and keeps each raw reply line;
    decoding and checking the replies is left until after the window.
    ``load_time`` is the load already applied by earlier windows, for
    ``timer``.

    Returns ``(kind, params, latency seconds, reply line)`` per request,
    and the window's seconds.
    """
    replies: list[tuple[str, dict, float, bytes]] = []
    connections = [_Connection(path, stream) for stream in streams]
    selector = selectors.DefaultSelector()

    def send_next(connection: _Connection, now: float) -> None:
        live = timer.take(load_time + now - started)
        stream = connection.stream
        connection.send(*(stream.encode(*live) if live else stream.take()))

    try:
        for connection in connections:
            selector.register(connection.sock, selectors.EVENT_READ, connection)
        started = time.perf_counter()
        deadline = started + seconds
        for connection in connections:
            send_next(connection, started)
        in_flight = len(connections)
        while in_flight:
            events = selector.select(timeout=60.0)
            if not events:
                raise TimeoutError("no reply from the serve daemon within 60s")
            for key, _ in events:
                connection = key.data
                line = connection.read_reply()
                if line is None:
                    continue
                received = time.perf_counter()
                kind, params, sent = connection.pending
                replies.append((kind, params, received - sent, line))
                connection.pending = None
                if received < deadline:
                    send_next(connection, received)
                else:
                    in_flight -= 1
        elapsed = time.perf_counter() - started
    finally:
        selector.close()
        for connection in connections:
            connection.sock.close()
    return replies, elapsed


def check_replies(replies: list, expected: dict[str, str], verified: set[str]) -> list[str]:
    """Decode and check reply lines; returns one message per bad reply.

    Every reply must be ``ok``, and every memoized reply must carry its
    batch digest.  The first reply of each request key, tracked in
    ``verified``, must also hash to that digest: the payload the client
    received is hashed here, not only the digest field the daemon sent.
    """
    from repro.serve.protocol import decode_response
    from repro.serve.service import request_key
    from repro.studygraph.artifact import artifact_digest

    bad: list[str] = []
    for kind, params, _, line in replies:
        response = decode_response(line)
        if not response.ok:
            bad.append(f"{kind} {params}: {response.status} {response.error}")
            continue
        key = request_key(kind, params)
        want = expected.get(key)
        if want is None:
            continue
        if response.payload.get("digest") != want:
            bad.append(f"{kind} {params}: served digest differs from batch")
        elif key not in verified:
            verified.add(key)
            if artifact_digest(response.payload.get("payload")) != want:
                bad.append(f"{kind} {params}: served payload does not hash to the batch digest")
    return bad


def _merged_percentile(samples, name: str, fraction: float) -> float:
    """Percentile over every ``kind`` of one exposed histogram, in ms."""
    from repro.obs.hist import bucket_percentile, exposition_buckets

    kinds = {labels["kind"] for sample, labels, _ in samples
             if sample == f"{name}_bucket" and "kind" in labels}
    series = [exposition_buckets(samples, name, {"kind": kind}) for kind in kinds]
    merged = []
    for bound in sorted({bound for points in series for bound, _ in points}):
        total = 0
        for points in series:
            below = [count for le, count in points if le <= bound]
            total += below[-1] if below else 0
        merged.append((bound, total))
    return bucket_percentile(merged, fraction) * 1000.0


def _protocol_us(client, requests: list[tuple[str, dict]]) -> float:
    """Client-side encode + decode cost per request, in microseconds.

    Replays ``requests`` for their replies, then times encoding each
    request line and decoding its reply line, away from the socket.
    """
    from repro.serve.protocol import Request, decode_response, encode_line

    lines = [encode_line(client.request(kind, params)) for kind, params in requests]
    started = time.perf_counter()
    for (kind, params), line in zip(requests, lines):
        encode_line(Request(kind=kind, params=params, client="bench", id="c1"))
        decode_response(line)
    return (time.perf_counter() - started) / max(1, len(lines)) * 1e6


class ServeLoad:
    """A fresh daemon and its closed-loop clients, measured in windows.

    The daemon stays up between windows, so a caller can spread the
    windows over a run.  Each connection's seeded request stream and the
    live-request timer run on across windows; only the first window
    meets an empty response memo.
    """

    def __init__(self, work: Path, memo: Path, node_digests: dict[str, str], seed: int,
                 workload: str) -> None:
        kinds = KEY_SETS[workload]
        self.keys = request_keys(experiment_nodes(), kinds)
        self.seed = seed
        self.expected = batch_digests(memo, node_digests, kinds)
        self.streams = [RequestStream(seed, index, self.keys) for index in range(WORKERS)]
        self.timer = LiveTimer(LIVE_INTERVAL_S)
        self.latencies: list[tuple[str, float]] = []
        self.bad: list[str] = []
        self.verified: set[str] = set()
        self.elapsed = 0.0
        self.client_cpu_s = 0.0
        self.daemon: Daemon | None = Daemon(work, memo)

    def window(self, seconds: float) -> None:
        """``seconds`` of load, then the check of its replies."""
        for stream in self.streams:
            stream.prepare(math.ceil(seconds * PREPARED_PER_SECOND))
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, SERVE_CPU)
        cpu_started = time.process_time()
        try:
            replies, elapsed = _closed_loop(
                self.daemon.socket, self.streams, seconds, self.timer, self.elapsed
            )
        finally:
            self.client_cpu_s += time.process_time() - cpu_started
            os.sched_setaffinity(0, allowed)
        self.latencies += [(kind, latency) for kind, _, latency, _ in replies]
        self.bad += check_replies(replies, self.expected, self.verified)
        self.elapsed += elapsed

    def close(self) -> float:
        """Stop the daemon if it still runs; returns its shutdown seconds."""
        daemon, self.daemon = self.daemon, None
        return daemon.stop() if daemon is not None else 0.0

    def finish(self, checks: Checks, layers: bool = False) -> dict:
        """Scrape the daemon, stop it, reconcile its counts; return the metrics."""
        from repro.obs.hist import exposition_value, parse_exposition
        from repro.serve.client import ServeClient

        with ServeClient(self.daemon.socket, client="bench-scrape") as client:
            scrape_started = time.perf_counter()
            scrape = client.request("metrics")
            scrape_ms = (time.perf_counter() - scrape_started) * 1000.0
            if layers:
                sample = draw_requests(self.seed, 0, self.keys)
                protocol_us = _protocol_us(client, [next(sample) for _ in range(2000)])
        shutdown_s = self.close()

        latencies, bad = self.latencies, self.bad
        checks.expect(not bad, f"serve: {len(bad)} bad replies, first: {bad[:1]}")
        sent = len(latencies)
        samples = parse_exposition(scrape.payload.get("text", "")) if scrape.ok else []
        # The readiness probe's pings are the only requests the clients did not send.
        served_total = (exposition_value(samples, "repro_requests_total") or 0.0) - (
            exposition_value(samples, "repro_requests_total", {"kind": "ping"}) or 0.0
        )
        checks.expect(
            int(served_total) == sent,
            f"daemon counted {served_total:.0f} requests, clients sent {sent}",
        )

        # Exact nearest-rank percentiles: a histogram bucket bound would
        # hide any change smaller than the bucket's width.
        ordered = sorted(lat for _, lat in latencies)
        out = {
            "serve_rps": (sent - len(bad)) / self.elapsed,
            "serve_p50_ms": percentile(ordered, 0.50) * 1000.0,
            "serve_p99_ms": percentile(ordered, 0.99) * 1000.0,
            "attempted": sent,
            "failed": len(bad),
            "client_cpu_share": self.client_cpu_s / self.elapsed,
        }
        if layers:
            memoizable = sum(1 for kind, _ in latencies if kind in ("study", "mine", "replay"))
            memo_hits = exposition_value(samples, "repro_memo_hits_total") or 0.0
            metrics_ms = [lat * 1000.0 for kind, lat in latencies if kind == "metrics"]
            latency = "repro_request_latency_seconds"
            out["layers"] = {
                "serve.memo_hit_ratio": memo_hits / memoizable if memoizable else 0.0,
                "serve.server_p50_ms": _merged_percentile(samples, latency, 0.50),
                "serve.server_p99_ms": _merged_percentile(samples, latency, 0.99),
                "serve.queue_wait_p99_ms": _merged_percentile(
                    samples, "repro_request_queue_seconds", 0.99
                ),
                "serve.protocol_us": protocol_us,
                "serve.response_bytes": (
                    exposition_value(samples, "repro_response_bytes_total") or 0.0
                ) / max(1, sent),
                "serve.metrics_scrape_ms": median(metrics_ms) if metrics_ms else scrape_ms,
                "serve.shutdown_s": shutdown_s,
            }
        return out
