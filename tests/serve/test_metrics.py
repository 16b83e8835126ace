"""The ``metrics`` request kind: exposition shape, exact reconciliation
with a closed-loop loadgen run, and the CLI scrape path."""

import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro import cli
from repro.envmodel.loadgen import LoadResult, run_closed_loop
from repro.obs import MetricsRegistry
from repro.obs.hist import (
    Histogram,
    bucket_percentile,
    exposition_buckets,
    exposition_value,
    parse_exposition,
)
from repro.serve import AdmissionController, StudyServer, StudyService
from repro.serve.protocol import STATUS_REJECTED_BUSY, Request


def scrape(service):
    response = service.handle(Request(kind="metrics"))
    assert response.ok
    assert response.payload["content_type"].startswith("text/plain")
    return response.payload["text"]


class TestRequestStats:
    """Request counters and latency histograms live in the registry."""

    def test_one_observation_per_request(self):
        service = StudyService()
        assert service.handle(Request(kind="ping")).ok
        service.admission.begin_drain()
        assert not service.handle(Request(kind="ping")).ok
        metrics = service.metrics
        assert metrics.counter("repro_requests_total") == 2
        assert metrics.counter("repro_requests_total", kind="ping", status="ok") == 1
        assert metrics.timer("repro_request_latency_seconds", kind="ping").count == 2
        assert metrics.timer("repro_request_latency_seconds", kind="study").count == 0

    def test_exposition_deterministic(self):
        registry = MetricsRegistry()
        registry.count("repro_response_bytes_total", 10, kind="ping")
        registry.observe("repro_request_latency_seconds", 0.001, kind="ping")
        registry.observe("repro_request_latency_seconds", 0.1, kind="study")
        assert registry.exposition() == registry.exposition()

    def test_exposition_parses_strictly(self):
        registry = MetricsRegistry()
        registry.gauge("repro_uptime_seconds", 1.5)
        registry.count("x_total", 2)
        registry.observe("repro_request_latency_seconds", 0.002, kind="ping")
        samples = parse_exposition(registry.exposition())
        assert exposition_value(samples, "repro_uptime_seconds") == 1.5
        assert exposition_value(samples, "x_total") == 2.0
        assert exposition_value(
            samples, "repro_request_latency_seconds_count", {"kind": "ping"}
        ) == 1


class TestMetricsKind:
    def test_scrape_parses_and_counts_prior_requests(self):
        service = StudyService()
        for _ in range(3):
            assert service.handle(Request(kind="ping")).ok
        samples = parse_exposition(scrape(service))
        assert exposition_value(
            samples, "repro_requests_total", {"kind": "ping", "status": "ok"}
        ) == 3
        assert exposition_value(samples, "repro_uptime_seconds") >= 0

    def test_inflight_scrape_excluded_then_counted(self):
        service = StudyService()
        service.handle(Request(kind="ping"))
        first = parse_exposition(scrape(service))
        assert exposition_value(
            first, "repro_requests_total", {"kind": "metrics", "status": "ok"}
        ) is None
        second = parse_exposition(scrape(service))
        assert exposition_value(
            second, "repro_requests_total", {"kind": "metrics", "status": "ok"}
        ) == 1

    def test_metrics_not_memoized(self):
        service = StudyService()
        service.handle(Request(kind="ping"))
        before = scrape(service)
        after = scrape(service)
        assert before != after  # counters moved: it was recomputed


class TestLoadgenReconciliation:
    def test_counters_reconcile_exactly_with_closed_loop_run(self):
        """The acceptance criterion: requests sent == histogram count,
        client-observed rejections == the rejected-busy counter."""
        service = StudyService(admission=AdmissionController(max_pending=2))

        def slow_ping(request):
            time.sleep(0.002)
            return {"pong": True}

        service.register_handler("ping", slow_ping)
        rejected_client_side = [0]

        def send(index):
            response = service.handle(Request(kind="ping", client=f"c{index % 4}"))
            if response.status == STATUS_REJECTED_BUSY:
                rejected_client_side[0] += 1
            elif not response.ok:
                raise RuntimeError(response.error)

        result = run_closed_loop(send, requests=60, concurrency=6)
        assert result.requests_issued == 60

        samples = parse_exposition(scrape(service))
        histogram_count = exposition_value(
            samples, "repro_request_latency_seconds_count", {"kind": "ping"}
        )
        assert histogram_count == 60
        assert exposition_value(samples, "repro_requests_total", {"kind": "ping"}) == 60
        rejected_counter = exposition_value(samples, "repro_rejected_busy_total")
        assert rejected_counter == rejected_client_side[0]
        ok = exposition_value(
            samples, "repro_requests_total", {"kind": "ping", "status": "ok"}
        ) or 0
        assert ok + rejected_client_side[0] == 60

    def test_client_and_server_percentiles_share_buckets(self):
        """Same latencies, one through LoadResult and one through the
        metrics registry: identical percentile answers, through text."""
        latencies = [0.0004, 0.0011, 0.0012, 0.0030, 0.0200, 0.0900, 1.2]
        client = LoadResult(requests_issued=len(latencies), latencies=list(latencies))
        registry = MetricsRegistry()
        for value in latencies:
            registry.observe("repro_request_latency_seconds", value, kind="ping")
        buckets = exposition_buckets(
            parse_exposition(registry.exposition()),
            "repro_request_latency_seconds",
            {"kind": "ping"},
        )
        for fraction in (0.5, 0.95, 0.99):
            assert bucket_percentile(buckets, fraction) == client.latency_percentile(
                fraction
            )
        assert client.latency_histogram().counts == Histogram.from_values(
            latencies
        ).counts


@pytest.fixture
def sock_dir():
    path = Path(tempfile.mkdtemp(dir="/tmp", prefix="repro-serve-metrics-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def server(sock_dir):
    service = StudyService(admission=AdmissionController(max_pending=8))
    server = StudyServer(service, sock_dir / "s.sock")
    server.start()
    yield server
    server.shutdown()


class TestMetricsCli:
    def test_status_metrics_prints_exposition(self, server, capsys):
        assert cli.main(
            ["serve", "request", "ping", "--socket", str(server.socket_path)]
        ) == 0
        capsys.readouterr()
        rc = cli.main(
            ["serve", "status", "--metrics", "--socket", str(server.socket_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        samples = parse_exposition(out)  # must parse strictly
        assert exposition_value(
            samples, "repro_requests_total", {"kind": "ping", "status": "ok"}
        ) == 1

    def test_status_metrics_fails_loudly_when_daemon_dead(self, sock_dir, capsys):
        rc = cli.main(
            ["serve", "status", "--metrics", "--socket", str(sock_dir / "nope.sock")]
        )
        assert rc == 1
        assert "metrics scrape failed" in capsys.readouterr().err

    def test_request_kind_metrics(self, server, capsys):
        rc = cli.main(
            ["serve", "request", "metrics", "--socket", str(server.socket_path)]
        )
        assert rc == 0
        parse_exposition(capsys.readouterr().out)
