"""The transport-free service core: digest equality with the batch
path, memoization, admission semantics, and concurrent mixed traffic."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED_BUSY,
    STATUS_SHUTTING_DOWN,
    Request,
)
from repro.serve.service import StudyService, request_key


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def service():
    """One warm cacheless service shared by the read-only tests."""
    service = StudyService(workers=1)
    service.warm()
    return service


def batch_node(name, overrides=None):
    """The batch path the CLIs use: fresh context, same study graph."""
    from repro.studygraph.context import StudyContext
    from repro.studygraph.registry import default_registry
    from repro.studygraph.scheduler import run_study

    registry = default_registry()
    if overrides:
        registry = registry.with_overrides(overrides)
    context = StudyContext.default(cache_dir=None)
    result = run_study(context, nodes=[name], outputs=[name], registry=registry)
    return result.runs[name].digest, result.outputs[name]


class TestDigestEquality:
    def test_study_matches_batch(self, service):
        response = service.handle(Request(kind="study", params={"node": "T1"}))
        assert response.ok
        digest, payload = batch_node("T1")
        assert response.payload["digest"] == digest
        assert response.payload["text"] == payload["text"]

    def test_mine_matches_batch(self, service):
        response = service.handle(
            Request(kind="mine", params={"application": "apache"})
        )
        assert response.ok
        digest, _ = batch_node("mine.apache")
        assert response.payload["digest"] == digest

    def test_replay_matches_batch(self, service):
        techniques = "restart-fresh,checkpoint-rollback"
        response = service.handle(
            Request(kind="replay", params={"techniques": techniques})
        )
        assert response.ok
        digest, _ = batch_node("E1", {"E1": {"techniques": techniques}})
        assert response.payload["digest"] == digest

    def test_study_with_overrides(self, service):
        overrides = {"E1": {"techniques": "restart-fresh"}}
        response = service.handle(
            Request(kind="study", params={"node": "E1", "overrides": overrides})
        )
        assert response.ok
        digest, _ = batch_node("E1", overrides)
        assert response.payload["digest"] == digest


class TestGridFamilies:
    def test_warm_summary_counts_grid_families(self, service):
        summary = service.warm()
        assert summary["grids"] == 5
        assert summary["grid_points"] == 105

    def test_grid_point_request_matches_batch_and_memoizes(self, service):
        params = {"node": "sweep.recovery-model[model=restart-fresh]"}
        first = service.handle(Request(kind="study", params=params))
        assert first.ok
        digest, payload = batch_node(params["node"])
        assert first.payload["digest"] == digest
        assert first.payload["text"] == payload["text"]
        before = service.metrics.counter("repro_memo_hits_total")
        second = service.handle(Request(kind="study", params=params))
        assert second.payload == first.payload
        assert service.metrics.counter("repro_memo_hits_total") == before + 1


class TestMemoization:
    def test_repeat_request_is_a_memo_hit(self, service):
        params = {"node": "catalog"}
        first = service.handle(Request(kind="study", params=params))
        before = service.metrics.counter("repro_memo_hits_total")
        second = service.handle(Request(kind="study", params=params))
        assert second.payload == first.payload
        assert service.metrics.counter("repro_memo_hits_total") == before + 1

    def test_key_is_order_insensitive(self):
        assert request_key("study", {"a": 1, "b": 2}) == request_key(
            "study", {"b": 2, "a": 1}
        )

    def test_status_is_never_memoized(self, service):
        first = service.handle(Request(kind="status"))
        second = service.handle(Request(kind="status"))
        assert first.ok and second.ok
        counted = second.payload["requests"]["requests"]
        assert counted > first.payload["requests"]["requests"]


class TestErrors:
    def test_handler_error_is_a_response(self, service):
        response = service.handle(Request(kind="study", params={}))
        assert response.status == STATUS_ERROR
        assert "node" in response.error
        # The daemon survives and keeps serving.
        assert service.handle(Request(kind="ping")).ok

    def test_unknown_node(self, service):
        response = service.handle(
            Request(kind="study", params={"node": "no-such-node"})
        )
        assert response.status == STATUS_ERROR
        assert "no-such-node" in response.error

    def test_bad_application(self, service):
        response = service.handle(
            Request(kind="mine", params={"application": "httpd"})
        )
        assert response.status == STATUS_ERROR

    def test_bad_technique(self, service):
        response = service.handle(
            Request(kind="replay", params={"techniques": "magic"})
        )
        assert response.status == STATUS_ERROR

    def test_missing_trace_file(self, service, tmp_path):
        response = service.handle(
            Request(kind="trace-summary", params={"path": str(tmp_path / "no.jsonl")})
        )
        assert response.status == STATUS_ERROR


class TestTraceSummary:
    def test_summarizes_a_recorded_trace(self, tmp_path):
        path = tmp_path / "run.trace"
        with obs.tracing(path):
            with obs.span("root"):
                with obs.span("node:inner"):
                    pass
        service = StudyService()
        response = service.handle(
            Request(kind="trace-summary", params={"path": str(path)})
        )
        assert response.ok
        assert response.payload["spans"] == 2
        assert response.payload["root"] == "root"


class TestAdmissionIntegration:
    def test_quota_exhaustion_rejects_busy(self):
        clock = FakeClock()
        service = StudyService(
            admission=AdmissionController(
                max_pending=100, quota_capacity=2, clock=clock
            )
        )
        assert service.handle(Request(kind="ping", client="g")).ok
        assert service.handle(Request(kind="ping", client="g")).ok
        rejected = service.handle(Request(kind="ping", client="g"))
        assert rejected.status == STATUS_REJECTED_BUSY
        assert rejected.error == "quota-exhausted"
        # Another client is untouched.
        assert service.handle(Request(kind="ping", client="other")).ok

    def test_backpressure_when_full(self):
        service = StudyService(admission=AdmissionController(max_pending=2))
        gate = threading.Event()
        entered = threading.Barrier(3)

        def slow(request):
            entered.wait(timeout=5)
            gate.wait(timeout=5)
            return {"slow": True}

        service.register_handler("ping", slow)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(service.handle, Request(kind="ping"))
                for _ in range(2)
            ]
            entered.wait(timeout=5)  # both requests hold a slot
            rejected = service.handle(Request(kind="status"))
            assert rejected.status == STATUS_REJECTED_BUSY
            assert rejected.error == "queue-full"
            gate.set()
            assert all(f.result(timeout=5).ok for f in futures)
        # Slots were released: the service admits again.
        service.register_handler("ping", lambda request: {"pong": True})
        assert service.handle(Request(kind="ping")).ok

    def test_drain_answers_shutting_down(self):
        service = StudyService()
        assert service.handle(Request(kind="ping")).ok
        service.begin_drain()
        response = service.handle(Request(kind="ping"))
        assert response.status == STATUS_SHUTTING_DOWN
        assert response.error == "draining"

    def test_error_releases_slot(self):
        service = StudyService(admission=AdmissionController(max_pending=1))
        service.register_handler("ping", lambda request: 1 / 0)
        assert service.handle(Request(kind="ping")).status == STATUS_ERROR
        assert service.admission.pending == 0


class TestConcurrentTraffic:
    def test_mixed_requests_match_serial_baseline(self, service):
        requests = [
            Request(kind="study", params={"node": "T1"}),
            Request(kind="study", params={"node": "catalog"}),
            Request(kind="mine", params={"application": "apache"}),
            Request(kind="replay", params={"techniques": "restart-fresh"}),
        ] * 4
        baseline = {}
        for request in requests:
            key = request_key(request.kind, request.params)
            if key not in baseline:
                response = service.handle(request)
                assert response.ok
                baseline[key] = response.payload["digest"]
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(service.handle, requests))
        assert all(response.ok for response in responses)
        for request, response in zip(requests, responses):
            key = request_key(request.kind, request.params)
            assert response.payload["digest"] == baseline[key]

    def test_concurrent_cold_start_builds_once(self):
        service = StudyService()
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(
                pool.map(
                    service.handle,
                    [Request(kind="study", params={"node": "catalog"})] * 8,
                )
            )
        assert all(response.ok for response in responses)
        digests = {response.payload["digest"] for response in responses}
        assert len(digests) == 1


class TestStatusAndMonitor:
    def test_status_reports_health_and_counters(self, tmp_path):
        monitor = obs.RunMonitor(tmp_path / "live.json", label="serve")
        monitor.run_started(total=0, workers=1, pending=[])
        service = StudyService(monitor=monitor)
        service.handle(Request(kind="ping"))
        response = service.handle(Request(kind="status"))
        assert response.ok
        payload = response.payload
        assert payload["healthz"]["healthy"] is True
        assert payload["requests"]["ok"] >= 1
        assert payload["admission"]["max_pending"] >= 1
        assert payload["warm"]["faults"] > 0

    def test_monitor_heartbeats_per_request(self, tmp_path):
        monitor = obs.RunMonitor(
            tmp_path / "live.json", label="serve", interval=0.0
        )
        monitor.run_started(total=0, workers=1, pending=[])
        service = StudyService(monitor=monitor)
        service.handle(Request(kind="ping"))
        snapshot = obs.read_snapshot(tmp_path / "live.json")
        assert snapshot["done"] == 1
        assert snapshot["info"]["queue_depth"] == 0
