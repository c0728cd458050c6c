"""Structured JSON logging for the service and queue workers.

One JSON object per line on a stream, so ``repro serve`` / ``repro
work`` output can be shipped straight into any log pipeline and joined
on ids. Every record carries:

``ts``
    ISO-8601 UTC wall time.
``event``
    A dotted name: ``request`` for HTTP requests;
    ``job.queued`` / ``job.running`` / ``job.done`` / ``job.failed``
    for service job transitions; ``worker.start`` / ``worker.chunk`` /
    ``worker.done`` for queue-worker progress.

plus event fields — ``requestId``, ``route``, ``method``, ``status``,
``duration_s`` on requests; ``jobId``, ``kind``, and counters on job
and worker events. Request ids are minted per request; job ids are the
spec content hashes, so one job's records correlate across replicas
and workers sharing a store.

The logger is explicitly passed, never global: library code (and the
tests) default to :meth:`StructuredLogger.disabled`, only the CLI entry
points turn it on. Writes are serialized by a lock, one ``write()``
call per record, so concurrent handler threads never interleave lines.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from typing import Any, TextIO

__all__ = ["StructuredLogger", "new_request_id"]


def new_request_id() -> str:
    """A short unique id to correlate one request's records."""
    import uuid

    return uuid.uuid4().hex[:16]


class StructuredLogger:
    """Writes one JSON record per :meth:`event` call.

    ``stream`` defaults to ``sys.stderr`` (resolved at write time, so
    pytest's capture and test doubles work); pass any text stream to
    redirect. A disabled logger (:meth:`disabled`) makes every call a
    cheap no-op, which is the default wiring everywhere but the CLI.
    """

    def __init__(
        self, stream: TextIO | None = None, *, enabled: bool = True
    ) -> None:
        self._stream = stream
        self.enabled = enabled
        self._lock = threading.Lock()

    @classmethod
    def disabled(cls) -> "StructuredLogger":
        return cls(enabled=False)

    def event(self, event: str, **fields: Any) -> None:
        """Emit one record; non-JSON field values are stringified."""
        if not self.enabled:
            return
        from datetime import datetime, timezone

        record: dict[str, Any] = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "event": event,
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        line = json.dumps(record, default=str, separators=(",", ":"))
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            try:
                stream.write(line + "\n")
                stream.flush()
            except (OSError, ValueError, io.UnsupportedOperation):
                pass  # a dead log pipe must never take the service down
