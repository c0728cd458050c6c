"""Speed floor for the service's HTTP front: reused handler threads.

Warms a store with a seeded hit set of 64 ``rsa_2048`` specs (16
budgets on each of four profiles, as the service benchmark uses), then
serves it from two in-process servers over the same
:class:`~repro.service.EstimationService`:

* **reused** — the server ``repro serve`` runs, which hands each
  accepted connection to a parked handler thread;
* **per connection** — a reference subclass that restores
  ``socketserver.ThreadingMixIn.process_request``, the stdlib front that
  starts one thread per connection.

Each repeat sends the 1,000 hits to each server on a fresh connection
per request, as ``ServiceClient`` does, alternating servers, best of 5
median latencies. The process pins itself to one core, as the service
benchmark does, so the CPU a per-connection thread costs shows in each
latency instead of hiding on an idle second core. Every response body
must be identical across the two servers. Exits 1 unless the reused
front's hit p50 is at least ``FLOOR`` times lower (measured 1.43-1.52x,
0.45-0.46 ms against 0.65-0.70 ms, on a 2-vCPU VM under CPython 3.11).

Run with the repository's ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python benchmarks/service_front_floor.py

The file name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import json
import os
import random
import socket
import socketserver
import statistics
import sys
import tempfile
import threading
import time

from repro import ResultStore
from repro.service import EstimationService, _Server

FLOOR = 1.2
REPEATS = 5
HITS = 1000
PROFILES = ("qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_maj_ns_e4", "qubit_maj_ns_e6")


class _ThreadPerConnection(_Server):
    """The stdlib front: one new thread per accepted connection."""

    process_request = socketserver.ThreadingMixIn.process_request


def hit_set() -> list[bytes]:
    """16 seeded budgets in [3e-4, 1.5e-2] on each profile, as request bodies."""
    rng = random.Random(0)
    return [
        json.dumps(
            {
                "program": {"name": "rsa_2048"},
                "qubit": {"profile": profile},
                "budget": 10 ** rng.uniform(-3.52, -1.82),
            }
        ).encode()
        for _ in range(16)
        for profile in PROFILES
    ]


def request_bytes(body: bytes) -> bytes:
    """A whole ``POST /v1/estimate`` that asks the server to close after it."""
    head = (
        "POST /v1/estimate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def hit(port: int, request: bytes) -> tuple[float, bytes]:
    """One request on a fresh connection: seconds to the last byte, body.

    A raw socket keeps the client's own share of each round trip small,
    so the ratio shows the server's per-connection cost.
    """
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    seconds = time.perf_counter() - start
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200 "):
        raise RuntimeError(f"unexpected response: {head[:200]!r}")
    return seconds, body


def main() -> int:
    # Clients and servers share one core, as on a loaded host: a thread
    # started per connection then costs its CPU in every latency.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bodies = hit_set()
    requests = [request_bytes(body) for body in bodies]
    with tempfile.TemporaryDirectory() as root:
        service = EstimationService(store=ResultStore(root))
        warmed = service.submit({"specs": [json.loads(b) for b in bodies]})
        if not all(r["ok"] for r in warmed["results"]):
            print("the hit set has an infeasible spec")
            return 1
        servers = [
            _Server(("127.0.0.1", 0), service),
            _ThreadPerConnection(("127.0.0.1", 0), service),
        ]
        threads = [
            threading.Thread(target=server.serve_forever, daemon=True)
            for server in servers
        ]
        for thread in threads:
            thread.start()
        try:
            best = [float("inf")] * len(servers)
            answers: list[list[bytes]] = [[] for _ in servers]
            for _ in range(REPEATS):
                for index, server in enumerate(servers):
                    port = server.server_address[1]
                    latencies, answers[index] = [], []
                    for n in range(HITS):
                        seconds, data = hit(port, requests[n % len(requests)])
                        latencies.append(seconds)
                        answers[index].append(data)
                    best[index] = min(best[index], statistics.median(latencies))
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            for thread in threads:
                thread.join(timeout=5)
            service.close()
    if answers[0] != answers[1]:
        print("the two fronts answered with different bytes")
        return 1
    if not all(json.loads(data)["fromStore"] for data in answers[0]):
        print("a hit missed the store")
        return 1
    reused_s, per_connection_s = best
    speedup = per_connection_s / reused_s
    print(
        f"{HITS} fresh-connection hits, best of {REPEATS} p50: per connection "
        f"{per_connection_s * 1e3:.3f} ms, reused threads "
        f"{reused_s * 1e3:.3f} ms: {speedup:.2f}x (floor {FLOOR:.2f}x)"
    )
    return 0 if speedup >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
