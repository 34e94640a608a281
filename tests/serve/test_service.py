"""End-to-end tests of the campaign service daemon over real HTTP.

A :class:`ServiceDaemon` binds an ephemeral port on a background event
loop; a blocking :class:`ServiceClient` drives it exactly the way
``repro submit``/``repro status`` do.  The contracts under test are the
service-mode acceptance criteria: a submitted campaign's counts are
bit-identical to the in-process CLI path, a repeat submit is served
from the shared result store without executing a trial, and protocol
errors surface as typed HTTP statuses (400/404/429), never hangs.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.fi import FaultInjector
from repro.ir.printer import print_module
from repro.sched import ModuleSpec, run_store_campaign
from repro.serve import ServiceClient, ServiceDaemon, ServiceError
from tests.conftest import build_straightline_module, cached_module

BENCH = "pathfinder"
RUNS = 60
SEED = 93


class DaemonHarness:
    """One daemon on a background event loop + a client bound to it."""

    def __init__(self, **daemon_kwargs):
        daemon_kwargs.setdefault("host", "127.0.0.1")
        daemon_kwargs.setdefault("port", 0)
        daemon_kwargs.setdefault("log", io.StringIO())
        self.daemon = ServiceDaemon(**daemon_kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def _run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.daemon.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(
            target=_run, name="serve-test", daemon=True
        )
        self.thread.start()
        assert started.wait(timeout=30.0), "daemon failed to start"
        self.client = ServiceClient(
            self.daemon.host, self.daemon.port, timeout=120.0
        )

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.daemon.stop(), self.loop
        ).result(timeout=10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


@pytest.fixture(scope="module")
def harness():
    h = DaemonHarness()
    yield h
    h.close()


@pytest.fixture(scope="module")
def client(harness) -> ServiceClient:
    return harness.client


#: Requests whose HTTP framing is broken, each answered with a 400.
MALFORMED_REQUESTS = {
    "non-numeric-length":
        b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
    "negative-length":
        b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
    "body-shorter-than-length":
        b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
    "garbage-request-line": b"GARBAGE\r\n\r\n",
}


def raw_exchange(daemon: ServiceDaemon, request: bytes) -> tuple[int, dict]:
    """Send raw bytes, close the write side, parse the whole response."""
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=30.0) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _sep, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def post_request(route: str, payload: dict) -> bytes:
    """Raw bytes of a well-framed JSON POST to ``/v1<route>``."""
    body = json.dumps(payload).encode()
    return (b"POST /v1" + route.encode() + b" HTTP/1.1\r\nContent-Type: "
            b"application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def campaign_payload(runs=RUNS, seed=SEED, **extra) -> dict:
    payload = {"benchmark": BENCH, "scale": "test",
               "runs": runs, "seed": seed}
    payload.update(extra)
    return payload


class TestProtocol:
    def test_health(self, client):
        body = client.health()
        assert body["status"] == "ok"
        assert body["protocol"] == 1

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/no-such-route")
        assert exc.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/campaigns")
        assert exc.value.status == 405

    def test_malformed_body_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit({"runs": 10})  # names no module
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit(campaign_payload(runs="many"))
        assert exc.value.status == 400

    @pytest.mark.parametrize("request_bytes", MALFORMED_REQUESTS.values(),
                             ids=MALFORMED_REQUESTS.keys())
    def test_malformed_framing_is_400(self, harness, client, request_bytes):
        status, body = raw_exchange(harness.daemon, request_bytes)
        assert status == 400
        assert body["error"]
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("tier", ["bogus", 3])
    def test_unknown_tier_is_400(self, harness, client, tier):
        """An unknown tier is refused at admission, not accepted as a
        job that fails."""
        failed = client.stats()["counters"]["failed"]
        request = post_request("/campaigns",
                               campaign_payload(interp_tier=tier))
        status, response = raw_exchange(harness.daemon, request)
        assert status == 400
        assert "unknown interpreter tier" in response["error"]
        assert client.health()["status"] == "ok"
        assert client.stats()["counters"]["failed"] == failed

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("job-999999")
        assert exc.value.status == 404


class TestCampaigns:
    def test_submit_matches_inprocess_cli_path(self, client):
        serial = FaultInjector(cached_module(BENCH)).campaign(
            RUNS, seed=SEED
        )
        job = client.submit(campaign_payload(), wait=True)
        assert job["status"] == "done"
        assert job["result"]["counts"] == serial.counts

    def test_repeat_submit_served_from_store(self, client):
        job = client.submit(campaign_payload(), wait=True)
        assert job["status"] == "done"
        assert job["cached"]  # store hit at admission: no queue slot
        assert job["result"]["from_cache"]

    def test_cli_computed_campaign_serves_submits(self, client):
        # The reverse direction: repro inject writes the store entry,
        # the daemon replays it.
        spec_runs, spec_seed = 44, 94
        computed = run_store_campaign(
            spec_runs, seed=spec_seed,
            spec=ModuleSpec.from_benchmark(BENCH, "test"),
        )
        assert not computed.from_cache
        job = client.submit(
            campaign_payload(runs=spec_runs, seed=spec_seed), wait=True
        )
        assert job["cached"]
        assert job["result"]["counts"] == computed.counts

    def test_ir_text_module_roundtrips(self, client):
        module = build_straightline_module()
        serial = FaultInjector(module).campaign(30, seed=5)
        job = client.submit(
            {"ir_text": print_module(module), "runs": 30, "seed": 5},
            wait=True,
        )
        assert job["status"] == "done"
        assert job["result"]["counts"] == serial.counts

    def test_job_endpoint_returns_submitted_job(self, client):
        job = client.submit(campaign_payload(), wait=True)
        fetched = client.job(job["job_id"])
        assert fetched["status"] == "done"
        assert fetched["result"]["counts"] == job["result"]["counts"]
        listing = client.jobs()
        assert any(j["job_id"] == job["job_id"]
                   for j in listing["jobs"])

    def test_stats_exposes_scheduler_and_store(self, client):
        stats = client.stats()
        assert stats["counters"]["submitted"] >= 1
        assert stats["counters"]["cache_hits"] >= 1
        assert "counters" in stats["store"]
        assert "partial_shards_written" in stats["store"]["counters"]


class TestAnalyze:
    def test_model_prediction_over_http(self, client):
        body = client.analyze(
            {"benchmark": BENCH, "scale": "test",
             "model": "trident", "samples": 200}
        )
        assert 0.0 <= body["overall_sdc"] <= 1.0
        assert 0.0 <= body["overall_crash"] <= 1.0
        assert len(body["fingerprint"]) == 64

    def test_unknown_model_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.analyze({"benchmark": BENCH, "model": "oracle"})
        assert exc.value.status == 400

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_is_400(self, harness, client, samples):
        request = post_request("/analyze", {"benchmark": BENCH,
                                            "scale": "test",
                                            "samples": samples})
        status, response = raw_exchange(harness.daemon, request)
        assert status == 400
        assert "samples" in response["error"]
        assert client.health()["status"] == "ok"


class TestBackpressure:
    def test_full_queue_answers_429(self):
        harness = DaemonHarness(max_pending=1)
        try:
            # Pause the dispatcher so admitted jobs stay queued, filling
            # the single slot deterministically.
            harness.daemon.scheduler.pause(timeout=5.0)
            first = harness.client.submit(campaign_payload(seed=95))
            assert first["status"] == "queued"
            with pytest.raises(ServiceError) as exc:
                harness.client.submit(campaign_payload(seed=96))
            assert exc.value.status == 429
        finally:
            harness.close()
