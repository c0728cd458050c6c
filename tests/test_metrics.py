"""Tests for the metrics registry and the ``/v1/metrics`` endpoint.

The load-bearing assertions: concurrent handler threads never produce a
torn scrape (every exposition parses, histograms stay internally
consistent), final counters equal the serial tally, and a scrape does
zero per-request directory walks (TTL-cached gauges).
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time
import urllib.request

import pytest

from repro import EstimateSpec, LogicalCounts, ResultStore
from repro.estimator.engine import ExecutionPolicy
from repro.jsonlog import StructuredLogger
from repro.metrics import MetricsRegistry, normalize_route
from repro.registry import Registry
from repro.service import EstimationService, ServiceClient, make_server

COUNTS = LogicalCounts(num_qubits=40, t_count=50_000, measurement_count=500)

#: One Prometheus exposition sample line: name, optional {labels}, value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (-?[0-9.eE+-]+|NaN|\+Inf|-Inf)$"
)


def assert_valid_exposition(text: str) -> None:
    """Every line is a comment or a well-formed sample; no torn output."""
    assert text.endswith("\n")
    typed: set[str] = set()
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            if line.startswith("# TYPE "):
                name = line.split()[2]
                assert name not in typed, f"duplicate TYPE for {name}"
                typed.add(name)
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"


@contextlib.contextmanager
def live_service(tmp_path, **service_kwargs):
    service = EstimationService(
        registry=Registry(), store=ResultStore(tmp_path), **service_kwargs
    )
    server = make_server("127.0.0.1", 0, service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        yield service, f"http://127.0.0.1:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)


def scrape(base_url: str, suffix: str = "") -> tuple[str, str]:
    """(body, content-type) of one GET /v1/metrics."""
    with urllib.request.urlopen(f"{base_url}/v1/metrics{suffix}") as response:
        return response.read().decode(), response.headers.get("Content-Type", "")


class TestNormalizeRoute:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("/v1/estimate", "/v1/estimate"),
            ("/v1/estimate/", "/v1/estimate"),
            ("/v1/metrics?format=json", "/v1/metrics"),
            ("/v1/results/" + "a" * 64, "/v1/results/{hash}"),
            ("/v1/jobs/" + "b" * 64, "/v1/jobs/{id}"),
            ("/v1/sweeps/" + "c" * 64 + "/result", "/v1/sweeps/{id}/result"),
            (
                "/v1/optimize/" + "d" * 64 + "/result",
                "/v1/optimize/{id}/result",
            ),
            ("/", "other"),
            ("/admin", "other"),
            ("/v1/whatever/" + "e" * 200, "other"),
        ],
    )
    def test_bounded_cardinality(self, path, expected):
        assert normalize_route(path) == expected


class TestRegistry:
    def test_counter_accumulates_per_labelset(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", {"route": "/a"})
        registry.inc("hits_total", {"route": "/a"}, amount=2)
        registry.inc("hits_total", {"route": "/b"})
        assert registry.counter_value("hits_total", {"route": "/a"}) == 3
        assert registry.counter_value("hits_total", {"route": "/b"}) == 1
        assert registry.counter_value("hits_total", {"route": "/c"}) == 0

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 3.0):
            registry.observe("lat", value, buckets=(1.0, 2.0))
        text = registry.render_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 5" in text

    def test_provider_ttl_caches_expensive_sources(self):
        calls = {"n": 0}

        def expensive():
            calls["n"] += 1
            return [("g", None, 7.0)]

        registry = MetricsRegistry()
        registry.register_provider(expensive, ttl=3600.0)
        registry.render_prometheus()
        registry.render_prometheus()
        registry.render_json()
        assert calls["n"] == 1  # refreshed once, then served from cache

    def test_zero_ttl_provider_refreshes_every_scrape(self):
        calls = {"n": 0}

        def cheap():
            calls["n"] += 1
            return [("g", None, float(calls["n"]))]

        registry = MetricsRegistry()
        registry.register_provider(cheap, ttl=0.0)
        registry.render_prometheus()
        text = registry.render_prometheus()
        assert calls["n"] == 2
        assert "g 2" in text

    def test_broken_provider_keeps_last_samples(self):
        state = {"fail": False}

        def flaky():
            if state["fail"]:
                raise RuntimeError("disk on fire")
            return [("g", None, 42.0)]

        registry = MetricsRegistry()
        registry.register_provider(flaky, ttl=0.0)
        assert "g 42" in registry.render_prometheus()
        state["fail"] = True
        assert "g 42" in registry.render_prometheus()  # stale beats absent

    def test_provider_refresh_does_not_block_counters(self):
        # A provider walking the disk runs outside the registry lock: a
        # handler's inc() returns while the walk is stuck, and the scrape
        # that ran the walk then serves the new samples.
        entered = threading.Event()
        release = threading.Event()
        calls = {"n": 0}

        def slow():
            calls["n"] += 1
            if calls["n"] > 1:
                entered.set()
                assert release.wait(10), "test never released the provider"
            return [("walked", None, float(calls["n"]))]

        registry = MetricsRegistry()
        registry.register_provider(slow, ttl=0.0)
        assert "walked 1" in registry.render_prometheus()
        scraped: list[str] = []
        scraper = threading.Thread(
            target=lambda: scraped.append(registry.render_prometheus())
        )
        scraper.start()
        try:
            assert entered.wait(10), "provider refresh never started"
            incremented = threading.Event()
            counter = threading.Thread(
                target=lambda: (registry.inc("hits"), incremented.set())
            )
            counter.start()
            assert incremented.wait(2), "inc() waited on a provider refresh"
            counter.join()
            assert registry.counter_value("hits") == 1
        finally:
            release.set()
            scraper.join(10)
        assert "walked 2" in scraped[0]
        assert "hits 1" in scraped[0]

    def test_concurrent_scrapes_share_one_ttl_refresh(self):
        calls = {"n": 0}
        started = threading.Event()
        release = threading.Event()

        def expensive():
            calls["n"] += 1
            started.set()
            release.wait(10)
            return [("g", None, 1.0)]

        registry = MetricsRegistry()
        registry.register_provider(expensive, ttl=3600.0)
        scrapers = [
            threading.Thread(target=registry.render_prometheus) for _ in range(3)
        ]
        for thread in scrapers:
            thread.start()
        assert started.wait(10)
        time.sleep(0.05)  # let the other scrapers queue on the provider
        release.set()
        for thread in scrapers:
            thread.join(10)
        assert calls["n"] == 1

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("c_total", {"path": 'a"b\\c\nd'})
        text = registry.render_prometheus()
        assert '{path="a\\"b\\\\c\\nd"}' in text

    def test_help_and_type_rendered(self):
        registry = MetricsRegistry()
        registry.describe("c_total", "counter", "Things counted.")
        registry.inc("c_total")
        text = registry.render_prometheus()
        assert "# HELP c_total Things counted." in text
        assert "# TYPE c_total counter" in text

    def test_render_json_shape(self):
        registry = MetricsRegistry()
        registry.inc("c_total", {"k": "v"})
        registry.observe("h", 0.5)
        document = registry.render_json()
        assert document["counters"] == [
            {"name": "c_total", "labels": {"k": "v"}, "value": 1.0, "help": ""}
        ]
        histogram = document["histograms"][0]
        assert histogram["name"] == "h"
        assert histogram["count"] == 1
        assert histogram["sum"] == 0.5


class TestMetricsEndpoint:
    def test_prometheus_by_default_json_on_request(self, tmp_path):
        with live_service(tmp_path) as (service, base_url):
            client = ServiceClient(base_url)
            spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
            assert client.submit(spec)["ok"] is True

            text, content_type = scrape(base_url)
            assert content_type.startswith("text/plain")
            assert_valid_exposition(text)
            assert (
                'repro_requests_total{method="POST",route="/v1/estimate",'
                'status="200"} 1' in text
            )

            body, content_type = scrape(base_url, "?format=json")
            assert content_type.startswith("application/json")
            document = json.loads(body)
            assert any(
                entry["name"] == "repro_requests_total"
                and entry["labels"].get("route") == "/v1/estimate"
                and entry["value"] == 1
                for entry in document["counters"]
            )

    def test_latency_histogram_and_store_gauges_present(self, tmp_path):
        with live_service(tmp_path) as (service, base_url):
            client = ServiceClient(base_url)
            client.submit(EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"))
            text, _ = scrape(base_url)
            assert "repro_request_seconds_bucket" in text
            assert 'repro_store_documents{namespace="results"} 1' in text
            assert "repro_queue_depth 0" in text
            assert "repro_kernel_points_total" in text
            assert 'repro_store_evicted_total{unit="documents"} 0' in text
            assert 'repro_jobs{kind="sweep",state="running"} 0' in text

    def test_warm_submission_shows_cache_hits(self, tmp_path):
        with live_service(tmp_path) as (service, base_url):
            client = ServiceClient(base_url)
            spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
            cold = client.submit(spec)
            assert cold["fromStore"] is False
            warm = client.submit(spec)
            assert warm["fromStore"] is True
            hits = service.metrics.snapshot()["gauges"][
                "repro_cache_events_total"
            ]
            assert any(
                dict(key).get("outcome") == "hits" and value > 0
                for key, value in hits.items()
            )

    def test_scrape_does_zero_directory_walks_within_ttl(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        walks = []
        walk = store.stats

        def counted_stats():
            walks.append(1)
            return walk()

        monkeypatch.setattr(store, "stats", counted_stats)
        service = EstimationService(
            registry=Registry(), store=store, metrics_ttl=3600.0
        )
        server = make_server("127.0.0.1", 0, service=service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            scrape(base_url)  # first scrape pays the one TTL walk
            assert len(walks) == 1
            for _ in range(5):
                text, _ = scrape(base_url)
                assert_valid_exposition(text)
            assert len(walks) == 1  # zero walks per scrape
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)

    def test_eviction_tallies_surface_in_metrics(self, tmp_path):
        with live_service(tmp_path) as (service, base_url):
            client = ServiceClient(base_url)
            client.submit(EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"))
            report = service.store.evict(max_bytes=0)
            assert report["evictedDocuments"] >= 1
            text, _ = scrape(base_url)
            assert (
                f'repro_store_evicted_total{{unit="documents"}} '
                f'{report["evictedDocuments"]}' in text
            )


class TestConcurrency:
    def test_counters_match_serial_tally_and_no_torn_scrapes(self, tmp_path):
        """N submitters race a scraper; the books must balance exactly."""
        num_threads = 6
        batches_per_thread = 4
        with live_service(tmp_path) as (service, base_url):
            client = ServiceClient(base_url)
            specs = [
                EstimateSpec(
                    program=COUNTS, qubit="qubit_gate_ns_e3", budget=budget
                )
                for budget in (1e-3, 1e-4)
            ]
            errors: list[BaseException] = []
            stop_scraping = threading.Event()
            scrapes: list[str] = []

            def submitter():
                try:
                    for _ in range(batches_per_thread):
                        records = client.submit_batch(specs)
                        assert all(record["ok"] for record in records)
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            def scraper():
                try:
                    while not stop_scraping.is_set():
                        text, _ = scrape(base_url)
                        scrapes.append(text)
                except BaseException as exc:
                    errors.append(exc)

            scrape_thread = threading.Thread(target=scraper)
            scrape_thread.start()
            threads = [
                threading.Thread(target=submitter) for _ in range(num_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stop_scraping.set()
            scrape_thread.join()
            assert errors == []

            # Every mid-flight scrape parsed cleanly: no torn output.
            assert scrapes  # the scraper overlapped the submissions
            for text in scrapes:
                assert_valid_exposition(text)

            # The final counter equals the serial tally exactly.
            expected = num_threads * batches_per_thread
            assert (
                service.metrics.counter_value(
                    "repro_requests_total",
                    {
                        "method": "POST",
                        "route": "/v1/estimate",
                        "status": "200",
                    },
                )
                == expected
            )
            snapshot = service.metrics.snapshot()
            histogram = snapshot["histograms"]["repro_request_seconds"]
            post_key = tuple(
                sorted({"method": "POST", "route": "/v1/estimate"}.items())
            )
            assert histogram[post_key]["count"] == expected
            # Histogram internal consistency: +Inf == count, buckets
            # monotone nondecreasing.
            counts = histogram[post_key]["counts"]
            assert counts == sorted(counts)
            assert counts[-1] <= histogram[post_key]["count"]


class TestStructuredLogging:
    def test_one_json_record_per_request(self, tmp_path):
        import io

        stream = io.StringIO()
        service = EstimationService(
            registry=Registry(),
            store=ResultStore(tmp_path),
            log=StructuredLogger(stream),
        )
        server = make_server("127.0.0.1", 0, service=service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base_url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            client = ServiceClient(base_url)
            client.submit(EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"))
            client.health()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)
        records = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        requests = [r for r in records if r["event"] == "request"]
        assert len(requests) == 2
        for record in requests:
            assert record["status"] == 200
            assert record["duration_s"] >= 0
            assert record["requestId"]
            assert "ts" in record
        routes = {record["route"] for record in requests}
        assert routes == {"/v1/estimate", "/v1/healthz"}

    @pytest.mark.parametrize(
        "kind, extra, done_fields",
        [
            ("sweep", {}, {"completed", "ok", "failed", "fromStore"}),
            (
                "optimize",
                {"objective": "min-qubits"},
                {"completed", "ok", "evaluations"},
            ),
        ],
        ids=["sweep", "optimize"],
    )
    def test_job_lifecycle_records_carry_the_job_id(
        self, tmp_path, kind, extra, done_fields
    ):
        import io

        stream = io.StringIO()
        service = EstimationService(
            registry=Registry(),
            store=ResultStore(tmp_path),
            log=StructuredLogger(stream),
            policy=ExecutionPolicy(),
        )
        try:
            record = service.submit_job(
                kind,
                {
                    "base": {
                        "program": {"counts": COUNTS.to_dict()},
                        "qubit": {"profile": "qubit_gate_ns_e3"},
                    },
                    "axes": [{"field": "budget", "values": [1e-3, 1e-4]}],
                    **extra,
                },
            )
            job_id = record["jobId"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = service.job_record(job_id)["status"]
                if status in ("done", "failed"):
                    break
                time.sleep(0.02)
            assert status == "done"
        finally:
            service.close(wait=True)
        events = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        by_event = {record["event"]: record for record in events}
        for name in ("job.queued", "job.running", "job.done"):
            assert name in by_event, sorted(by_event)
            assert by_event[name]["jobId"] == job_id
            assert by_event[name]["kind"] == kind
        done = by_event["job.done"]
        assert done["duration_s"] >= 0
        assert set(done) - {"event", "ts", "jobId", "kind", "duration_s"} == done_fields

    def test_disabled_logger_writes_nothing(self):
        import io

        stream = io.StringIO()
        logger = StructuredLogger(stream, enabled=False)
        logger.event("request", status=200)
        assert stream.getvalue() == ""

    @pytest.mark.parametrize("enabled", [False, True])
    def test_request_ids_are_minted_only_for_an_enabled_log(
        self, tmp_path, monkeypatch, enabled
    ):
        import io

        import repro.service as service_module

        minted: list[str] = []

        def counting_id() -> str:
            minted.append(f"id{len(minted)}")
            return minted[-1]

        monkeypatch.setattr(service_module, "new_request_id", counting_id)
        stream = io.StringIO()
        log = StructuredLogger(stream, enabled=enabled)
        with live_service(tmp_path, log=log) as (service, url):
            client = ServiceClient(url)
            client.health()
            client.submit(EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3"))
            # Metrics are recorded whether or not the log is on.
            requests = service.metrics.snapshot()["counters"]["repro_requests_total"]
            assert sum(requests.values()) == 2
        records = [json.loads(line) for line in stream.getvalue().splitlines()]
        request_ids = [r["requestId"] for r in records if r["event"] == "request"]
        if enabled:
            assert request_ids == minted == ["id0", "id1"]
        else:
            assert minted == [] and records == []

    def test_worker_loop_emits_chunk_records(self, tmp_path):
        import io

        from repro.estimator.queue import SweepQueue, run_worker
        from repro.estimator.sweep import SweepSpec

        stream = io.StringIO()
        store = ResultStore(tmp_path)
        spec = SweepSpec.from_dict(
            {
                "base": {
                    "program": {"counts": COUNTS.to_dict()},
                    "qubit": {"profile": "qubit_gate_ns_e3"},
                },
                "axes": [{"field": "budget", "values": [1e-3, 1e-4]}],
            }
        )
        queue = SweepQueue(store)
        job = queue.enqueue(spec, registry=Registry())
        report = run_worker(
            store, job_id=job.job_id, log=StructuredLogger(stream)
        )
        assert report.chunks_evaluated >= 1
        events = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        names = [record["event"] for record in events]
        assert names[0] == "worker.start"
        assert names[-1] == "worker.done"
        chunk_records = [r for r in events if r["event"] == "worker.chunk"]
        assert chunk_records
        assert all(r["jobId"] == job.job_id for r in chunk_records)


class TestPoolMetrics:
    def test_pool_gauge_family_present_with_engine(self, tmp_path):
        with live_service(
            tmp_path, policy=ExecutionPolicy(workers=2, executor="queue")
        ) as (service, base_url):
            body, _ = scrape(base_url)
            executor = service.cache_stats()["executor"]
        assert_valid_exposition(body)
        assert "# TYPE repro_pool_workers gauge" in body
        assert "# TYPE repro_pool_rebuilds_total counter" in body
        assert "# TYPE repro_pool_chunks_total counter" in body
        assert "# TYPE repro_pool_chunk_size gauge" in body
        assert "# TYPE repro_executor_fallbacks_total counter" in body
        assert 'repro_pool_chunks_total{kind="dispatched"}' in body
        assert 'repro_pool_chunks_total{kind="replayed"}' in body
        assert "repro_executor_fallbacks_total 0" in body
        # The idle engine has not spawned its pool yet: alive gauge is 0.
        assert "repro_pool_workers 0" in body
        assert "pool" not in executor
        assert executor["maxWorkers"] == 2
        assert executor["serialFallbacks"] == 0

    def test_pool_samples_zero_with_single_worker(self, tmp_path):
        # A one-worker engine runs serially and never spawns a pool.
        with live_service(
            tmp_path, policy=ExecutionPolicy(executor="queue")
        ) as (service, base_url):
            client = ServiceClient(base_url)
            spec = EstimateSpec(program=COUNTS, qubit="qubit_gate_ns_e3")
            assert client.submit(spec)["ok"]
            body, _ = scrape(base_url)
            executor = service.cache_stats()["executor"]
        assert_valid_exposition(body)
        assert "repro_pool_workers 0" in body
        assert 'repro_pool_chunks_total{kind="dispatched"} 0' in body
        assert 'repro_pool_chunks_total{kind="replayed"} 0' in body
        assert "repro_pool_chunk_size 0" in body
        assert executor["maxWorkers"] == 1
        assert executor["poolSpawns"] == 0
        assert executor["runs"] == 1

    def test_queue_executed_chunks_set_the_chunk_size_gauge(self, tmp_path):
        with live_service(
            tmp_path, policy=ExecutionPolicy(executor="queue")
        ) as (service, base_url):
            record = service.submit_job(
                "sweep",
                {
                    "base": {
                        "program": {"counts": COUNTS.to_dict()},
                        "qubit": {"profile": "qubit_gate_ns_e3"},
                    },
                    "axes": [
                        {
                            "field": "budget",
                            "geom": {"start": 1e-6, "factor": 2, "count": 12},
                        }
                    ],
                    "chunkSize": 4,
                },
            )
            assert record["total"] == 12
            document = ServiceClient(base_url).wait_for_job(record["jobId"], timeout=120)
            assert document["counts"]["total"] == 12
            body, _ = scrape(base_url)
        assert_valid_exposition(body)
        assert "repro_pool_chunk_size 4" in body
