"""Tests for the estimation service (HTTP API + client).

The load-bearing assertion: a result served over HTTP is **bit-for-bit**
equal to the in-process ``estimate()`` / ``estimate_batch()`` result —
the JSON transport is lossless. The CI ``service-smoke`` job re-asserts
this against a real ``repro serve`` process.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socketserver
import sys
import threading
import time

import pytest
import store_rows

from repro import (
    EstimateSpec,
    LogicalCounts,
    ProgramRef,
    ResultStore,
    estimate,
    estimate_batch,
    qubit_params,
)
from repro.estimator.batch import EstimateRequest
from repro.registry import Registry
from repro.service import (
    _PARKED_HANDLERS,
    EstimationService,
    ServiceClient,
    ServiceError,
    _Server,
    make_server,
)

COUNTS = LogicalCounts(num_qubits=50, t_count=100_000, measurement_count=1_000)

CUSTOM_QUBIT = {
    "name": "service_test_qubit",
    "instruction_set": "gate_based",
    "one_qubit_measurement_time_ns": 80.0,
    "one_qubit_measurement_error_rate": 5e-4,
    "one_qubit_gate_time_ns": 40.0,
    "one_qubit_gate_error_rate": 5e-4,
    "two_qubit_gate_time_ns": 40.0,
    "two_qubit_gate_error_rate": 5e-4,
    "t_gate_time_ns": 40.0,
    "t_gate_error_rate": 5e-4,
}


@pytest.fixture()
def service(tmp_path):
    registry = Registry()
    registry.load_scenario({"qubitParams": [CUSTOM_QUBIT]})
    return EstimationService(registry=registry, store=ResultStore(tmp_path))


@pytest.fixture()
def client(service):
    with service_server(service) as served:
        yield served


@contextlib.contextmanager
def service_server(service=None, **server_kwargs):
    """A live server (on a free port) wrapped in a ServiceClient."""
    service = (
        service
        if service is not None
        else EstimationService(registry=Registry(), store=None)
    )
    server = make_server("127.0.0.1", 0, service=service, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield ServiceClient(f"http://127.0.0.1:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestSubmit:
    def test_single_spec_matches_in_process_bit_for_bit(self, client):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3", label="one")
        record = client.submit(spec)
        assert record["ok"] is True
        assert record["label"] == "one"
        # The service addresses results by the *resolved* hash (profile
        # names inlined via its registry), not the client's syntactic one.
        assert record["specHash"] == spec.content_hash(Registry())
        expected = estimate(COUNTS, qubit_params("qubit_gate_ns_e3"))
        # Bit-for-bit: the HTTP JSON equals the local report dict exactly.
        assert record["result"] == json.loads(json.dumps(expected.to_dict()))
        assert record["result"] == expected.to_dict()

    def test_batch_matches_estimate_batch(self, client):
        specs = [
            EstimateSpec(program=COUNTS, qubit=profile, budget=1e-4, label=profile)
            for profile in ("qubit_gate_ns_e3", "qubit_maj_ns_e4")
        ]
        records = client.submit_batch(specs)
        assert [r["label"] for r in records] == [s.label for s in specs]
        outcomes = estimate_batch(
            [
                EstimateRequest(
                    program=COUNTS, qubit=qubit_params(profile), budget=1e-4
                )
                for profile in ("qubit_gate_ns_e3", "qubit_maj_ns_e4")
            ]
        )
        for record, outcome in zip(records, outcomes):
            assert record["ok"]
            assert record["result"] == outcome.unwrap().to_dict()

    def test_program_ref_spec(self, client):
        spec = EstimateSpec(
            program=ProgramRef(kind="multiplier", algorithm="windowed", bits=64),
            qubit="qubit_maj_ns_e4",
            budget=1e-4,
        )
        record = client.submit(spec)
        assert record["ok"], record["error"]
        assert record["result"]["physicalCounts"]["physicalQubits"] > 0

    def test_second_submission_served_from_store(self, client):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e4")
        first = client.submit(spec)
        second = client.submit(spec)
        assert first["fromStore"] is False
        assert second["fromStore"] is True
        assert second["result"] == first["result"]

    def test_scenario_qubit_flows_through_service(self, client):
        spec = EstimateSpec(program=COUNTS, qubit="service_test_qubit")
        record = client.submit(spec)
        assert record["ok"], record["error"]
        assert (
            record["result"]["physicalQubitParameters"]["name"]
            == "service_test_qubit"
        )

    def test_infeasible_spec_reports_error_record(self, client):
        from repro import Constraints

        spec = EstimateSpec(
            program=COUNTS,
            qubit="qubit_gate_ns_e3",
            constraints=Constraints(max_physical_qubits=10),
        )
        record = client.submit(spec)
        assert record["ok"] is False
        assert "exceed" in record["error"]

    def test_bad_spec_in_batch_fails_per_record(self, client):
        good = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        records = client.submit_batch(
            [good, {"program": {"counts": COUNTS.to_dict()}}]  # missing qubit
        )
        assert records[0]["ok"] is True
        assert records[1]["ok"] is False
        assert "qubit" in records[1]["error"]

    def test_unknown_profile_fails_per_record(self, client):
        record = client.submit(EstimateSpec(program=COUNTS, qubit="bogus"))
        assert record["ok"] is False
        assert "bogus" in record["error"]

    def test_partial_budget_fails_per_record_not_batch(self, client):
        # Regression: a budget object missing a field used to raise
        # KeyError past the per-spec handler and 500 the whole batch.
        good = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        records = client.submit_batch(
            [
                good,
                {
                    "program": {"counts": COUNTS.to_dict()},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                    "budget": {"logical": 1e-4, "tStates": 1e-4},
                },
            ]
        )
        assert records[0]["ok"] is True
        assert records[1]["ok"] is False
        assert "rotations" in records[1]["error"]

    def test_raising_custom_formula_fails_only_its_own_record(self, service):
        # The scheme's cycle time is negative at distance 11, the distance
        # a 1e-2 budget reaches: evaluating it raises FormulaEvalError.
        from repro.qec import QECScheme

        raising = QECScheme(
            name="raising_cycle",
            crossing_prefactor=0.03,
            error_correction_threshold=0.01,
            logical_cycle_time="codeDistance - 12",
            physical_qubits_per_logical_qubit="2 * codeDistance^2",
        )
        counts = LogicalCounts(num_qubits=50, measurement_count=1_000)
        good = EstimateSpec(program=counts, qubit="qubit_gate_ns_e3", budget=1e-2)
        bad = dict(good.to_dict(), scheme={"params": raising.to_dict()})
        records = service.submit({"specs": [good.to_dict(), bad]})["results"]
        assert records[0]["ok"] is True
        assert records[1] == {
            "specHash": records[1]["specHash"],
            "label": None,
            "ok": False,
            "fromStore": False,
            "result": None,
            "error": "formula 'codeDistance - 12' evaluated to non-positive value -1.0",
        }
        # The good spec is answered and stored as on its own; the raising
        # one is never stored.
        alone = EstimationService(registry=Registry(), store=None)
        assert json.dumps(records[0]) == json.dumps(alone.submit(good.to_dict()))
        assert service.result_document(records[0]["specHash"]) is not None
        assert service.result_document(records[1]["specHash"]) is None
        again = service.submit({"specs": [good.to_dict(), bad]})["results"]
        assert again == [dict(records[0], fromStore=True), records[1]]


class TestResultsEndpoint:
    def test_get_by_hash_round_trips(self, client):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", budget=1e-4)
        record = client.submit(spec)
        document = client.result(record["specHash"])
        assert document is not None
        assert document["result"] == record["result"]
        assert document["spec"] == spec.to_dict()

    def test_unknown_hash_is_none(self, client):
        assert client.result("ab" + "0" * 62) is None

    def test_infeasible_spec_serves_its_error_document(self, client):
        spec = {
            "program": {"counts": COUNTS.to_dict()},
            "qubit": {"profile": "qubit_gate_ns_e3"},
            "constraints": {"maxPhysicalQubits": 100},
        }
        record = client.submit(spec)
        assert record["ok"] is False and record["fromStore"] is False
        document = client.result(record["specHash"])
        assert document["result"] is None
        assert document["error"] == record["error"]
        assert document["spec"] == EstimateSpec.from_dict(spec).to_dict()
        # The stored error answers the resubmission.
        again = client.submit(spec)
        assert again == dict(record, fromStore=True)

    def test_store_hit_response_bytes_equal_the_miss(self, service):
        spec = EstimateSpec(program=COUNTS, qubit="qubit_maj_ns_e4", budget=1e-4)
        miss = service.submit(spec.to_dict())
        hit = service.submit(spec.to_dict())
        # A new service over the same directory reads the document from
        # disk instead of the first service's memory cache.
        fresh = EstimationService(
            registry=service.registry, store=ResultStore(service.store.root)
        )
        try:
            disk_hit = fresh.submit(spec.to_dict())
        finally:
            fresh.close()
        assert not miss["fromStore"] and hit["fromStore"] and disk_hit["fromStore"]
        expected = json.dumps(dict(miss, fromStore=True))
        assert json.dumps(hit) == expected
        assert json.dumps(disk_hit) == expected
        assert json.dumps(miss["result"]) == json.dumps(
            estimate(COUNTS, qubit_params("qubit_maj_ns_e4"), budget=1e-4).to_dict()
        )


class TestIntrospection:
    def test_registry_endpoint_includes_scenario_entries(self, client):
        description = client.registry()
        assert "service_test_qubit" in description["qubitParams"]
        assert "surface_code" in description["qecSchemes"]

    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["store"] is not None

    def test_keep_alive_requests_do_not_stall(self, client):
        # Each response leaves in two writes (headers, body); with Nagle's
        # algorithm on, every keep-alive response waited ~40 ms for the
        # client's delayed ACK.
        import http.client
        from urllib.parse import urlsplit

        url = urlsplit(client.base_url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"


@contextlib.contextmanager
def running(server):
    """Serve ``server`` on a daemon thread; yields its port, then closes it."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class _ThreadPerConnection(_Server):
    """The stdlib front: one new thread per accepted connection."""

    process_request = socketserver.ThreadingMixIn.process_request


def raw_exchange(port, method, path, body=None):
    """One request on a fresh connection: status, headers but Date, body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        headers = [(k, v) for k, v in response.getheaders() if k != "Date"]
        return response.status, response.reason, headers, response.read()
    finally:
        connection.close()


@contextlib.contextmanager
def thread_starts():
    """Every thread started inside the block, in order."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", counting_start)
        yield started


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class TestHandlerThreads:
    """The server parks its handler threads and reuses them."""

    def test_sequential_fresh_connections_reuse_a_thread(self, service):
        server = make_server("127.0.0.1", 0, service=service)
        with running(server) as port:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with thread_starts() as started:
                for _ in range(200):
                    assert client.health()["status"] == "ok"
        assert len(started) <= 2, f"200 requests started {len(started)} threads"

    def test_held_keep_alive_connections_never_starve_a_new_one(self, service):
        server = make_server("127.0.0.1", 0, service=service)
        held = []
        with running(server) as port:
            try:
                for _ in range(_PARKED_HANDLERS + 2):
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=10
                    )
                    connection.request("GET", "/v1/healthz")
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 200
                    held.append(connection)
                # Every earlier thread waits on its open connection.
                client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10)
                assert client.health()["status"] == "ok"
            finally:
                for connection in held:
                    connection.close()
            # Freed threads park up to the cap; the rest exit.
            wait_until(lambda: len(server._parked) == _PARKED_HANDLERS)
            assert len(server._parked) == _PARKED_HANDLERS

    def test_no_handler_thread_outlives_server_close(self, service):
        server = make_server("127.0.0.1", 0, service=service)
        with running(server) as port:
            connections = [
                http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                for _ in range(3)
            ]
            for connection in connections:
                connection.request("GET", "/v1/healthz")
            for connection in connections:
                connection.getresponse().read()
                connection.close()
            wait_until(lambda: len(server._parked) == 3)
            handlers = [thread for thread, _ in server._parked]
            assert all(thread.is_alive() for thread in handlers)
        assert not any(thread.is_alive() for thread in handlers)
        assert server._parked == []

    def test_concurrent_clients_leave_every_idle_thread_parked(self, service):
        # More clients than cores, with the thread switch interval
        # shortened: a lost park or a double hand-off would leave a
        # thread alive outside the parked list, or a request unanswered.
        server = make_server("127.0.0.1", 0, service=service)
        errors = []

        def client_loop(port):
            try:
                client = ServiceClient(f"http://127.0.0.1:{port}", retries=0)
                for _ in range(25):
                    assert client.health()["status"] == "ok"
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        with running(server) as port:
            clients = [
                threading.Thread(target=client_loop, args=(port,))
                for _ in range(8)
            ]
            sys.setswitchinterval(1e-6)
            try:
                with thread_starts() as started:
                    for thread in clients:
                        thread.start()
                    for thread in clients:
                        thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in clients)
            assert errors == []
            handlers = [t for t in started if t not in clients]

            def parked():
                return {thread for thread, _ in server._parked}

            wait_until(
                lambda: {t for t in handlers if t.is_alive()} == parked()
            )
            assert 0 < len(parked()) <= _PARKED_HANDLERS
        assert not any(thread.is_alive() for thread in handlers)

    def test_responses_match_the_thread_per_connection_front(self, tmp_path):
        spec = json.dumps(
            EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3").to_dict()
        ).encode()
        exchanges = [
            # First, while no request latency is recorded: later scrapes
            # differ by the timings in their histograms.
            ("GET", "/v1/metrics", None),
            ("POST", "/v1/estimate", spec),  # miss
            ("POST", "/v1/estimate", spec),  # hit
            ("POST", "/v1/estimate", b"{not json"),
            ("GET", "/v1/results/" + "ab" * 32, None),
            ("GET", "/v1/bogus", None),
        ]
        answers = []
        for name, server_class in (
            ("reused", _Server),
            ("per-connection", _ThreadPerConnection),
        ):
            service = EstimationService(
                registry=Registry(), store=ResultStore(tmp_path / name)
            )
            server = server_class(("127.0.0.1", 0), service)
            with running(server) as port:
                answers.append(
                    [raw_exchange(port, *exchange) for exchange in exchanges]
                )
            service.close()
        reused, per_connection = answers
        assert [a[0] for a in reused] == [200, 200, 200, 400, 404, 404]
        assert json.loads(reused[2][3])["fromStore"] is True
        assert reused == per_connection


class TestProtocolErrors:
    def test_bad_json_body_is_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            f"{client.base_url}/v1/estimate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_empty_specs_list_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/estimate", {"specs": []})
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/bogus")
        assert excinfo.value.status == 404

    def test_oversized_body_is_413_and_closes_connection(self, client):
        # Regression: an early rejection leaves the (unread) body on the
        # socket; on keep-alive the server must close the connection so
        # the leftover bytes are never parsed as the next request.
        import http.client
        from repro.service import MAX_BODY_BYTES

        host = client.base_url.split("//")[1]
        connection = http.client.HTTPConnection(host, timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/estimate",
                body=b"x" * 16,
                headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            )
            response = connection.getresponse()
            assert response.status == 413
            assert response.headers.get("Connection") == "close"
        finally:
            connection.close()

    def test_body_limit_is_configurable(self):
        with service_server(max_body_bytes=64) as client:
            # Under the configured limit: handled normally (the invalid
            # envelope fails at parse time, not at the size gate).
            with pytest.raises(ServiceError) as excinfo:
                client._request("/v1/estimate", ["not-a-spec"])
            assert excinfo.value.status == 400
            # Over it: 413 before the body is even read.
            oversized = {"label": "x" * 200}
            with pytest.raises(ServiceError) as excinfo:
                client._request("/v1/estimate", oversized)
            assert excinfo.value.status == 413
            assert "exceeds" in str(excinfo.value)

    def test_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2, backoff=0.001)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestClientRetries:
    """ServiceClient retry policy: transient failures only, bounded, jittered.

    Attempts are counted by stubbing ``_open`` (the single-HTTP-attempt
    seam); no server is needed.
    """

    @staticmethod
    def _client(**kwargs):
        kwargs.setdefault("backoff", 0.001)  # keep the suite fast
        return ServiceClient("http://stub.invalid", **kwargs)

    @staticmethod
    def _http_error(code: int):
        import io
        import urllib.error

        return urllib.error.HTTPError(
            "http://stub.invalid/v1/estimate",
            code,
            "boom",
            hdrs=None,
            fp=io.BytesIO(json.dumps({"error": f"status {code}"}).encode()),
        )

    def _stub(self, client, failures):
        """Make ``_open`` raise each exception in ``failures`` in turn,
        then succeed; returns the attempt log."""
        attempts = []

        def fake_open(request):
            attempts.append(request.full_url)
            if len(attempts) <= len(failures):
                raise failures[len(attempts) - 1]
            return {"ok": True}

        client._open = fake_open
        return attempts

    def test_connection_errors_are_retried_until_success(self):
        import urllib.error

        client = self._client(retries=3)
        attempts = self._stub(client, [urllib.error.URLError("refused")] * 2)
        assert client._request("/v1/healthz") == {"ok": True}
        assert len(attempts) == 3

    def test_5xx_is_retried_until_success(self):
        client = self._client(retries=2)
        attempts = self._stub(client, [self._http_error(503)])
        assert client._request("/v1/healthz") == {"ok": True}
        assert len(attempts) == 2

    def test_4xx_is_never_retried(self):
        client = self._client(retries=5)
        attempts = self._stub(client, [self._http_error(404) for _ in range(6)])
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/healthz")
        assert excinfo.value.status == 404
        assert len(attempts) == 1

    def test_exhausted_retries_raise_the_last_error(self):
        client = self._client(retries=2)
        attempts = self._stub(client, [self._http_error(500) for _ in range(3)])
        with pytest.raises(ServiceError) as excinfo:
            client._request("/v1/healthz")
        assert excinfo.value.status == 500
        assert "status 500" in str(excinfo.value)
        assert len(attempts) == 3  # 1 + retries

    def test_retries_zero_opts_out(self):
        import urllib.error

        client = self._client(retries=0)
        attempts = self._stub(client, [urllib.error.URLError("refused")])
        with pytest.raises(ServiceError, match="cannot reach"):
            client._request("/v1/healthz")
        assert len(attempts) == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("http://stub.invalid", retries=-1)

    def test_backoff_grows_exponentially_with_jitter_and_cap(self):
        client = self._client(backoff=0.1, max_backoff=0.4)
        for attempt, ceiling in ((0, 0.1), (1, 0.2), (2, 0.4), (5, 0.4)):
            delays = {client._retry_delay(attempt) for _ in range(50)}
            assert all(ceiling / 2 <= delay < ceiling for delay in delays)
            assert len(delays) > 1  # jittered, not constant


class TestServiceWithoutStore:
    def test_submit_recomputes_and_results_miss(self):
        service = EstimationService(registry=Registry(), store=None)
        spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
        record = service.submit(spec.to_dict())
        assert record["ok"] and record["fromStore"] is False
        again = service.submit(spec.to_dict())
        assert again["fromStore"] is False
        assert service.result_document(record["specHash"]) is None


class TestConcurrentSubmissions:
    """N threads POSTing overlapping specs/batches over one shared store.

    Every concurrent response must be bit-for-bit equal to what a serial
    service computes for the same spec, and the shared store directory
    must hold only whole, digest-valid documents — no torn files.
    """

    PROFILES = ("qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_maj_ns_e4")
    BUDGETS = (1e-4, 1e-3)

    def _specs(self):
        return [
            EstimateSpec(
                program=COUNTS,
                qubit=profile,
                budget=budget,
                label=f"{profile}/{budget}",
            )
            for profile in self.PROFILES
            for budget in self.BUDGETS
        ]

    def test_concurrent_matches_serial_and_no_torn_files(self, tmp_path):
        specs = self._specs()

        # Serial baseline: a fresh service + store, one request at a time.
        serial = EstimationService(
            registry=Registry(), store=ResultStore(tmp_path / "serial")
        )
        baseline = {
            record["label"]: record
            for record in serial.submit({"specs": [s.to_dict() for s in specs]})[
                "results"
            ]
        }
        serial.close()

        # Concurrent: 8 threads POST overlapping batches over HTTP
        # against one service sharing one store.
        shared_store = ResultStore(tmp_path / "shared")
        service = EstimationService(registry=Registry(), store=shared_store)
        server = make_server("127.0.0.1", 0, service=service)
        server_thread = threading.Thread(target=server.serve_forever, daemon=True)
        server_thread.start()
        client_url = f"http://127.0.0.1:{server.server_address[1]}"

        # Overlapping batches: each thread submits a rotation of the same
        # specs, so every spec is computed by several threads at once.
        batches = [
            specs[offset % len(specs) :] + specs[: offset % len(specs)]
            for offset in range(8)
        ]
        responses: list[list[dict] | Exception] = [None] * len(batches)

        def worker(index: int) -> None:
            try:
                client = ServiceClient(client_url)
                responses[index] = client.submit_batch(batches[index])
            except Exception as exc:  # surfaced by the assertions below
                responses[index] = exc

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(batches))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        try:
            for batch, records in zip(batches, responses):
                assert not isinstance(records, Exception), records
                for spec, record in zip(batch, records):
                    expected = baseline[spec.label]
                    assert record["ok"], record["error"]
                    assert record["specHash"] == expected["specHash"]
                    assert record["result"] == expected["result"]

            # No torn rows: every stored document parses and passes the
            # integrity check.
            rows = store_rows.documents(shared_store)
            assert len(rows) == len(specs)
            for (namespace, key), (_, body) in rows.items():
                assert namespace == "results"
                json.loads(body)  # whole JSON
                assert shared_store.get_raw(key) is not None, key
        finally:
            server.shutdown()
            server.server_close()
            server_thread.join(timeout=5)
            service.close()


SWEEP_DOC = {
    "base": {"program": {"counts": None}},  # counts filled in below
    "axes": [
        {"field": "budget", "values": [1e-4, 1e-3]},
        {"field": "qubit", "values": ["qubit_gate_ns_e3", "qubit_maj_ns_e4"]},
    ],
    "frontier": {"objective": "qubits-runtime", "groupBy": ["qubit"]},
}
SWEEP_DOC["base"]["program"]["counts"] = COUNTS.to_dict()


class TestSweepJobs:
    def test_job_lifecycle_over_http(self, client):
        record = client.submit_sweep(SWEEP_DOC)
        assert record["status"] in ("queued", "running", "done")
        assert record["total"] == 4
        job_id = record["jobId"]

        document = client.wait_for_job(job_id, timeout=120)
        assert document["sweepHash"] == job_id
        assert document["counts"] == {"total": 4, "ok": 4, "failed": 0}
        assert len(document["frontiers"]) == 2

        status = client.job(job_id)
        assert status["status"] == "done"
        assert status["completed"] == status["total"] == 4
        assert status["resultUrl"] == f"/v1/sweeps/{job_id}/result"

    def test_resubmission_joins_the_finished_job(self, client):
        first = client.submit_sweep(SWEEP_DOC)
        client.wait_for_job(first["jobId"], timeout=120)
        again = client.submit_sweep(SWEEP_DOC)
        assert again["jobId"] == first["jobId"]
        assert again["status"] == "done"
        assert again["completed"] == again["total"]

    def test_unknown_job_is_404(self, client):
        assert client.job("ab" * 32) is None
        assert client.sweep_result("ab" * 32) is None

    def test_result_while_running_is_409(self, service, client):
        from repro.service import SweepJob

        job_id = "ef" * 32
        with service._jobs_lock:
            service._jobs[job_id] = SweepJob(job_id=job_id, status="running", total=4)
        with pytest.raises(ServiceError) as excinfo:
            client.sweep_result(job_id)
        assert excinfo.value.status == 409

    def test_malformed_sweep_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_sweep({"axes": []})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_sweep({"axes": [{"field": "budget", "values": [1]}], "bogus": 1})
        assert excinfo.value.status == 400

    def test_restarted_server_reserves_finished_sweeps(self, tmp_path):
        """Job state survives via the store across service processes."""
        store_root = tmp_path / "store"
        first = EstimationService(registry=Registry(), store=ResultStore(store_root))
        record = first.submit_job("sweep", SWEEP_DOC)
        job_id = record["jobId"]
        deadline = time.monotonic() + 120
        while first.job_record(job_id)["status"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "sweep job did not finish"
            time.sleep(0.02)
        document, status = first.job_result_document("sweep", job_id)
        assert status == "done"
        first.close()

        # A brand-new service over the same store re-serves the sweep —
        # both the result document and an immediately-done resubmission.
        second = EstimationService(registry=Registry(), store=ResultStore(store_root))
        try:
            redocument, restatus = second.job_result_document("sweep", job_id)
            assert restatus == "done"
            assert redocument == document
            assert second.job_record(job_id)["status"] == "done"
            assert second.job_record(job_id)["fromStore"] == 4  # the row's points
            resubmitted = second.submit_job("sweep", SWEEP_DOC)
            assert resubmitted["jobId"] == job_id
            assert resubmitted["status"] == "done"
        finally:
            second.close()

    def test_job_polls_count_the_journal_at_most_once_per_ttl(
        self, tmp_path, monkeypatch
    ):
        # queueDepth in every job record comes from the TTL-cached
        # metrics gauge, so a poller does not query the journal again.
        from repro.estimator.queue import SweepQueue

        poller = threading.current_thread()
        counts = []
        depth = SweepQueue.depth

        def counted_depth(queue):
            if threading.current_thread() is poller:
                counts.append(1)
            return depth(queue)

        service = EstimationService(
            registry=Registry(), store=ResultStore(tmp_path), metrics_ttl=3600.0
        )
        try:
            job_id = service.submit_job("sweep", SWEEP_DOC)["jobId"]
            monkeypatch.setattr(SweepQueue, "depth", counted_depth)
            for _ in range(50):
                record = service.job_record(job_id)
                assert isinstance(record["cacheStats"]["queueDepth"], int)
            assert len(counts) <= 1
        finally:
            service.close(wait=True)

    def test_storeless_service_keeps_results_in_memory(self):
        service = EstimationService(registry=Registry(), store=None)
        try:
            record = service.submit_job("sweep", SWEEP_DOC)
            job_id = record["jobId"]
            deadline = time.monotonic() + 120
            while service.job_record(job_id)["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            document, status = service.job_result_document("sweep", job_id)
            assert status == "done"
            assert document["counts"]["ok"] == 4
        finally:
            service.close()

    def test_failed_job_is_retried_on_resubmission(self, monkeypatch, tmp_path):
        # A transient worker failure must not poison the job id forever.
        import repro.service as service_module

        real_run_sweep = service_module.run_sweep
        calls = {"count": 0}

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("transient worker failure")
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(service_module, "run_sweep", flaky)
        service = EstimationService(
            registry=Registry(), store=ResultStore(tmp_path)
        )
        try:
            record = service.submit_job("sweep", SWEEP_DOC)
            job_id = record["jobId"]
            deadline = time.monotonic() + 60
            while service.job_record(job_id)["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            failed = service.job_record(job_id)
            assert failed["status"] == "failed"
            assert "transient worker failure" in failed["error"]

            retried = service.submit_job("sweep", SWEEP_DOC)
            assert retried["jobId"] == job_id
            assert retried["status"] in ("queued", "running")
            while service.job_record(job_id)["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert service.job_record(job_id)["status"] == "done"
        finally:
            service.close()

    def test_persisted_results_are_not_pinned_in_memory(self, tmp_path):
        # With a store attached, a finished job releases its in-memory
        # result document; reads fall back to the stored copy.
        service = EstimationService(
            registry=Registry(), store=ResultStore(tmp_path)
        )
        try:
            record = service.submit_job("sweep", SWEEP_DOC)
            job_id = record["jobId"]
            deadline = time.monotonic() + 120
            while service.job_record(job_id)["status"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            with service._jobs_lock:
                assert service._jobs[job_id].result_doc is None
            document, status = service.job_result_document("sweep", job_id)
            assert status == "done" and document["counts"]["ok"] == 4
        finally:
            service.close()

    def test_vanished_sweep_document_requeues_on_resubmission(self, tmp_path):
        # A done job whose stored document was corrupted or deleted must
        # heal by recomputation, not answer 409/"done" forever.
        store = ResultStore(tmp_path)
        service = EstimationService(registry=Registry(), store=store)
        try:
            record = service.submit_job("sweep", SWEEP_DOC)
            job_id = record["jobId"]
            deadline = time.monotonic() + 120
            while service.job_record(job_id)["status"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            store_rows.delete(store, job_id, "sweeps")

            retried = service.submit_job("sweep", SWEEP_DOC)
            assert retried["jobId"] == job_id
            assert retried["status"] in ("queued", "running")
            while service.job_record(job_id)["status"] != "done":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            document, status = service.job_result_document("sweep", job_id)
            assert status == "done" and document["counts"]["ok"] == 4
        finally:
            service.close()

    def test_close_aborts_jobs_at_the_next_chunk_boundary(self, tmp_path):
        # A closing service must not keep grinding through a long sweep;
        # the aborted job reports a failed status, and its persisted
        # chunks resume after a restart.
        service = EstimationService(registry=Registry(), store=ResultStore(tmp_path))
        try:
            service._stopping.set()
            record = service.submit_job("sweep", SWEEP_DOC)
            job_id = record["jobId"]
            deadline = time.monotonic() + 60
            while service.job_record(job_id)["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            status = service.job_record(job_id)
            assert status["status"] == "failed"
            assert "shutting down" in status["error"]
        finally:
            service.close()

    def test_failed_estimation_points_do_not_fail_the_job(self, client):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["axes"][1]["values"] = ["qubit_gate_ns_e3", "no_such_profile"]
        record = client.submit_sweep(doc)
        document = client.wait_for_job(record["jobId"], timeout=120)
        assert document["counts"] == {"total": 4, "ok": 2, "failed": 2}
        errors = [p["error"] for p in document["points"] if not p["ok"]]
        assert all("no_such_profile" in e for e in errors)


OPTIMIZE_DOC = {
    "base": {
        "program": {"counts": None},  # counts filled in below
        "qubit": {"profile": "qubit_gate_ns_e3"},
        "constraints": {"maxTFactories": 1},
    },
    "axes": [
        {"field": "budget", "geom": {"start": 1e-9, "factor": 1.7, "count": 24}}
    ],
    "objective": "min-qubits",
    "constraints": {"maxPhysicalQubits": 2_000_000},
}
OPTIMIZE_DOC["base"]["program"]["counts"] = COUNTS.to_dict()


class TestOptimizeJobs:
    def test_job_lifecycle_over_http(self, client):
        record = client.submit_optimize(OPTIMIZE_DOC)
        assert record["kind"] == "optimize"
        assert record["total"] == 24
        job_id = record["jobId"]

        document = client.wait_for_job(job_id, timeout=120)
        assert document["optimizeHash"] == job_id
        assert document["answer"]["objective"] == "min-qubits"
        assert document["answer"]["points"]
        assert document["counts"]["probes"] < 24, "the search must be adaptive"

        status = client.job(job_id)
        assert status["status"] == "done"
        assert status["kind"] == "optimize"
        assert status["evaluations"] <= document["counts"]["probes"]
        assert status["resultUrl"] == f"/v1/optimize/{job_id}/result"

    def test_resubmission_joins_and_reserves_the_answer(self, client):
        first = client.submit_optimize(OPTIMIZE_DOC)
        document = client.wait_for_job(first["jobId"], timeout=120)
        again = client.submit_optimize(OPTIMIZE_DOC)
        assert again["jobId"] == first["jobId"]
        assert again["status"] == "done"
        assert client.optimize_result(first["jobId"]) == document

    def test_unknown_job_is_404(self, client):
        assert client.optimize_result("ab" * 32) is None

    def test_result_while_running_is_409(self, service, client):
        from repro.service import SweepJob

        job_id = "0d" * 32
        with service._jobs_lock:
            service._jobs[job_id] = SweepJob(
                job_id=job_id, status="running", total=24, kind="optimize"
            )
        with pytest.raises(ServiceError) as excinfo:
            client.optimize_result(job_id)
        assert excinfo.value.status == 409

    def test_malformed_optimize_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit_optimize({"axes": []})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_optimize({**OPTIMIZE_DOC, "bogus": 1})
        assert excinfo.value.status == 400

    def test_restarted_server_reserves_finished_optimize(self, tmp_path):
        """The probe trace survives via the store across processes."""
        store_root = tmp_path / "store"
        first = EstimationService(registry=Registry(), store=ResultStore(store_root))
        record = first.submit_job("optimize", OPTIMIZE_DOC)
        job_id = record["jobId"]
        deadline = time.monotonic() + 120
        while first.job_record(job_id)["status"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "optimize job did not finish"
            time.sleep(0.02)
        document, status = first.job_result_document("optimize", job_id)
        assert status == "done"
        first.close()

        second = EstimationService(registry=Registry(), store=ResultStore(store_root))
        try:
            redocument, restatus = second.job_result_document("optimize", job_id)
            assert restatus == "done"
            assert redocument == document
            assert second.job_record(job_id)["status"] == "done"
            resubmitted = second.submit_job("optimize", OPTIMIZE_DOC)
            assert resubmitted["jobId"] == job_id
            assert resubmitted["status"] == "done"
            assert resubmitted["evaluations"] == 0, "answered from the store"
        finally:
            second.close()

    def test_observability_counters(self, service, client):
        # Before any job: the full cacheStats block is on /v1/healthz.
        health = client.health()
        stats = health["cacheStats"]
        for key in ("kernel", "optimize", "queueDepth", "storeMemory"):
            assert key in stats, key
        assert stats["optimize"] == {"probes": 0, "evaluations": 0}
        assert stats["queueDepth"] == 0
        assert set(stats["storeMemory"]) == {"capacity", "results", "counts"}

        record = client.submit_optimize(OPTIMIZE_DOC)
        client.wait_for_job(record["jobId"], timeout=120)
        after = client.health()["cacheStats"]["optimize"]
        assert after["probes"] > 0
        assert 0 < after["evaluations"] <= after["probes"]
        # The job status document carries the same counters.
        job_stats = client.job(record["jobId"])["cacheStats"]
        assert job_stats["optimize"] == after

    def test_storeless_optimize_probes_wait_for_the_engine_lock(self):
        # Optimize probes run on the service's shared engine and cache,
        # so they take its lock like every submission and sweep chunk:
        # while another evaluation holds it, the job evaluates nothing.
        from repro.estimator.optimize import OptimizeSpec, run_optimize

        service = EstimationService(registry=Registry(), store=None)
        try:
            with service._engine.lock:
                job_id = service.submit_job("optimize", OPTIMIZE_DOC)["jobId"]
                held_until = time.monotonic() + 2.0
                while time.monotonic() < held_until:
                    record = service.job_record(job_id)
                    assert record["status"] in ("queued", "running"), record
                    time.sleep(0.05)
                assert service._engine.stats()["runs"] == 0
                assert service.cache_stats()["optimize"] == {
                    "probes": 0,
                    "evaluations": 0,
                }
            deadline = time.monotonic() + 120
            while service.job_record(job_id)["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline, "optimize job did not finish"
                time.sleep(0.02)
            record = service.job_record(job_id)
            assert record["status"] == "done", record.get("error")
            assert record["evaluations"] > 0
            document, _ = service.job_result_document("optimize", job_id)
            expected = run_optimize(
                OptimizeSpec.from_dict(OPTIMIZE_DOC), registry=Registry()
            )
            assert document == expected.to_dict()
        finally:
            service.close()

    def test_storeless_resubmission_is_done_without_recomputing(self):
        # Without a store the answer lives only in the finished job; a
        # resubmission must trust it like a sweep's, not re-run the search.
        service = EstimationService(registry=Registry(), store=None)
        try:
            with service_server(service) as client:
                first = client.submit_optimize(OPTIMIZE_DOC)
                document = client.wait_for_job(first["jobId"], timeout=120)
                done = client.job(first["jobId"])
                again = client.submit_optimize(OPTIMIZE_DOC)
                assert again["jobId"] == first["jobId"]
                assert again["status"] == "done"
                assert again["evaluations"] == done["evaluations"] > 0
                assert client.optimize_result(first["jobId"]) == document
                after = client.health()["cacheStats"]["optimize"]
                assert after == done["cacheStats"]["optimize"]
        finally:
            service.close()


@pytest.mark.parametrize("with_store", [False, True], ids=["storeless", "store"])
@pytest.mark.parametrize("kind", ["sweep", "optimize"])
def test_result_route_serves_only_its_own_kind(tmp_path, kind, with_store):
    # A finished job's id on the other kind's result route names no job
    # of that kind: 404, never the other kind's document or a 409.
    service = EstimationService(
        registry=Registry(), store=ResultStore(tmp_path) if with_store else None
    )
    try:
        with service_server(service) as client:
            if kind == "sweep":
                job_id = client.submit_sweep(SWEEP_DOC)["jobId"]
                other_result = client.optimize_result
            else:
                job_id = client.submit_optimize(OPTIMIZE_DOC)["jobId"]
                other_result = client.sweep_result
            client.wait_for_job(job_id, timeout=120)
            assert other_result(job_id) is None
    finally:
        service.close()
