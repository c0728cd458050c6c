"""Thread-safe metrics for the estimation service (``GET /v1/metrics``).

The service already counts everything an operator needs — engine memo
and kernel counters (:meth:`~repro.estimator.batch.EstimateCache.stats`),
store namespaces and cache hit rates
(:meth:`~repro.estimator.store.ResultStore.stats`), queue depth, jobs by
state — but scattered across objects and, for the store, behind a disk
walk. This module gathers them behind one :class:`MetricsRegistry` that
renders both Prometheus text exposition and JSON.

Design constraints, in order:

* **No races.** The HTTP server is a ``ThreadingHTTPServer``: every
  handler thread increments counters while another scrapes. All mutable
  state lives behind a single lock, and a scrape snapshots everything
  under that lock — readers can never observe a torn update (a counter
  bumped but its histogram not, half a provider's gauges).
* **No waits on a walk.** Providers run *outside* the registry lock:
  each has its own lock, so one thread refreshes it while concurrent
  scrapers wait for that refresh rather than repeat it, and the new
  samples are swapped in under the registry lock. A handler's ``inc``
  never waits for a provider's disk walk.
* **No walks per scrape.** Expensive gauges (anything touching disk)
  come from registered *providers* refreshed on a TTL: a scrape inside
  the TTL serves the cached samples and does zero filesystem work.
  Cheap in-memory providers use ``ttl=0`` and refresh every scrape.
* **Bounded cardinality.** Request labels use :func:`normalize_route`
  (``/v1/results/{hash}``, not one series per hash).

Counter and histogram updates are O(1) dict operations; the scrape path
(and :meth:`MetricsRegistry.gauge_value`) is the only place provider
callables run.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "normalize_route",
]

#: Histogram bucket upper bounds (seconds) for request latency. Spans
#: sub-millisecond cache hits to multi-second cold estimates; +Inf is
#: implicit per the Prometheus exposition format.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.25,
    1.0,
    2.5,
    10.0,
)

#: The service's fixed routes, kept verbatim as label values.
_EXACT_ROUTES = frozenset(
    {
        "/v1/estimate",
        "/v1/sweeps",
        "/v1/optimize",
        "/v1/registry",
        "/v1/healthz",
        "/v1/metrics",
    }
)

LabelKey = tuple[tuple[str, str], ...]
#: A provider yields (metric name, labels or None, numeric value).
Sample = tuple[str, "dict[str, str] | None", float]


def normalize_route(path: str) -> str:
    """Collapse a request path to a bounded-cardinality route label.

    Hash- and id-carrying paths map to templates
    (``/v1/results/{hash}``), unknown paths to ``"other"`` — a scanner
    probing random URLs must not mint one time series per probe.
    """
    path = path.split("?", 1)[0].split("#", 1)[0].rstrip("/") or "/"
    if path in _EXACT_ROUTES:
        return path
    if path.startswith("/v1/results/"):
        return "/v1/results/{hash}"
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    if path.startswith("/v1/sweeps/") and path.endswith("/result"):
        return "/v1/sweeps/{id}/result"
    if path.startswith("/v1/optimize/") and path.endswith("/result"):
        return "/v1/optimize/{id}/result"
    return "other"


def _label_key(labels: dict[str, str] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + body + "}"


class _Provider:
    """A gauge source refreshed at most once per ``ttl`` seconds.

    ``lock`` lets one thread at a time run ``fn``; ``samples`` and
    ``taken`` are written under the registry lock.
    """

    def __init__(self, fn: Callable[[], Iterable[Sample]], ttl: float) -> None:
        self.fn = fn
        self.ttl = ttl
        self.lock = threading.Lock()
        self.samples: list[tuple[str, LabelKey, float]] = []
        self.taken: float | None = None  # monotonic time of last refresh

    def refresh_due(self, now: float) -> bool:
        return self.taken is None or self.ttl <= 0 or now - self.taken >= self.ttl


class MetricsRegistry:
    """Counters, histograms, and TTL-cached gauges behind one lock.

    Handler threads call :meth:`inc` / :meth:`observe`; the scrape path
    calls :meth:`render_prometheus` or :meth:`render_json`, which build
    a consistent snapshot under the same lock. Metric metadata (type and
    help text) is declared once via :meth:`describe` so both renderings
    agree on it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[LabelKey, float]] = {}
        self._histograms: dict[str, dict[LabelKey, dict[str, Any]]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._providers: list[_Provider] = []
        self._meta: dict[str, tuple[str, str]] = {}  # name -> (type, help)

    # -- declaration -------------------------------------------------------

    def describe(self, name: str, kind: str, help_text: str) -> None:
        """Register a metric's Prometheus type and help line."""
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric type {kind!r}")
        with self._lock:
            self._meta[name] = (kind, help_text)

    def register_provider(
        self, fn: Callable[[], Iterable[Sample]], *, ttl: float = 0.0
    ) -> None:
        """Add a gauge source; ``ttl`` seconds between refreshes.

        ``fn`` returns ``(name, labels, value)`` samples and runs only
        on the scrape path — with ``ttl > 0`` at most once per TTL
        window, so expensive sources (disk walks) are never paid per
        scrape. ``ttl=0`` refreshes every scrape (for cheap in-memory
        counters). A provider that raises keeps serving its previous
        samples rather than failing the scrape.
        """
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        with self._lock:
            self._providers.append(_Provider(fn, ttl))

    # -- updates (hot path) ------------------------------------------------

    def inc(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        amount: float = 1.0,
    ) -> None:
        """Add ``amount`` to a counter series (creating it at 0)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + amount

    def observe(
        self,
        name: str,
        value: float,
        labels: dict[str, str] | None = None,
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        """Record one histogram observation.

        Bucket bounds are fixed at a histogram's first observation;
        later ``buckets`` arguments for the same name are ignored (a
        histogram's series must stay mutually consistent).
        """
        key = _label_key(labels)
        with self._lock:
            bounds = self._buckets.setdefault(name, tuple(buckets))
            series = self._histograms.setdefault(name, {})
            state = series.get(key)
            if state is None:
                state = {"counts": [0] * len(bounds), "sum": 0.0, "count": 0}
                series[key] = state
            for index, bound in enumerate(bounds):
                if value <= bound:
                    state["counts"][index] += 1
            state["sum"] += value
            state["count"] += 1

    # -- scrape path -------------------------------------------------------

    def _refresh(self, providers: list[_Provider], now: float) -> None:
        """Run every due provider outside the registry lock.

        A provider whose lock is held is being refreshed by another
        thread: waiting for it and re-checking the TTL means a walk is
        paid once, not once per concurrent scraper. A provider that
        raises keeps its previous samples — a broken provider must not
        take ``/v1/metrics`` down with it.
        """
        for provider in providers:
            if not provider.refresh_due(now):
                continue
            with provider.lock:
                with self._lock:
                    if not provider.refresh_due(now):
                        continue  # another thread refreshed it meanwhile
                try:
                    samples = [
                        (name, _label_key(labels), float(value))
                        for name, labels, value in provider.fn()
                    ]
                except Exception:
                    continue
                with self._lock:
                    provider.samples = samples
                    provider.taken = now

    def counter_value(
        self, name: str, labels: dict[str, str] | None = None
    ) -> float:
        """One counter series' current value (0 if never incremented)."""
        key = _label_key(labels)
        with self._lock:
            return self._counters.get(name, {}).get(key, 0.0)

    def gauge_value(
        self, name: str, labels: dict[str, str] | None = None
    ) -> float | None:
        """One provider gauge's value, or ``None`` if no provider yields it.

        Refreshes, when its TTL is due, only a provider that served
        ``name`` at its last refresh (or has never run), so a caller
        polling a TTL-cached gauge pays for it at most once per TTL,
        exactly as a scrape would.
        """
        key = _label_key(labels)
        with self._lock:
            serving = [
                provider
                for provider in self._providers
                if provider.taken is None
                or any(sample[0] == name for sample in provider.samples)
            ]
        self._refresh(serving, time.monotonic())
        with self._lock:
            for provider in serving:
                for sample_name, sample_key, value in provider.samples:
                    if sample_name == name and sample_key == key:
                        return value
        return None

    def snapshot(self) -> dict[str, Any]:
        """A consistent copy of every metric, provider gauges included.

        Due providers refresh first, outside the registry lock; the
        copies themselves are taken under it, so concurrent increments
        can never produce a torn scrape.
        """
        with self._lock:
            providers = list(self._providers)
        self._refresh(providers, time.monotonic())
        with self._lock:
            gauges: dict[str, dict[LabelKey, float]] = {}
            for provider in self._providers:
                for name, key, value in provider.samples:
                    gauges.setdefault(name, {})[key] = value
            return {
                "counters": {
                    name: dict(series) for name, series in self._counters.items()
                },
                "gauges": gauges,
                "histograms": {
                    name: {
                        key: {
                            "counts": list(state["counts"]),
                            "sum": state["sum"],
                            "count": state["count"],
                        }
                        for key, state in series.items()
                    }
                    for name, series in self._histograms.items()
                },
                "buckets": dict(self._buckets),
                "meta": dict(self._meta),
            }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        snap = self.snapshot()
        meta = snap["meta"]
        lines: list[str] = []

        def emit_header(name: str, default_kind: str) -> None:
            kind, help_text = meta.get(name, (default_kind, ""))
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(snap["counters"]):
            emit_header(name, "counter")
            for key in sorted(snap["counters"][name]):
                value = snap["counters"][name][key]
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(snap["gauges"]):
            emit_header(name, "gauge")
            for key in sorted(snap["gauges"][name]):
                value = snap["gauges"][name][key]
                lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
        for name in sorted(snap["histograms"]):
            emit_header(name, "histogram")
            bounds = snap["buckets"][name]
            for key in sorted(snap["histograms"][name]):
                state = snap["histograms"][name][key]
                # counts[] is already cumulative (observe() increments
                # every bucket the value fits), as the format requires.
                for bound, count in zip(bounds, state["counts"]):
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(key, (('le', _format_value(bound)),))}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_bucket{_render_labels(key, (('le', '+Inf'),))}"
                    f" {state['count']}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(key)} {_format_value(state['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(key)} {state['count']}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> dict[str, Any]:
        """The same snapshot as a JSON-friendly document."""
        snap = self.snapshot()
        meta = snap["meta"]

        def labels_dict(key: LabelKey) -> dict[str, str]:
            return {name: value for name, value in key}

        document: dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for name in sorted(snap["counters"]):
            for key in sorted(snap["counters"][name]):
                document["counters"].append(
                    {
                        "name": name,
                        "labels": labels_dict(key),
                        "value": snap["counters"][name][key],
                        "help": meta.get(name, ("counter", ""))[1],
                    }
                )
        for name in sorted(snap["gauges"]):
            for key in sorted(snap["gauges"][name]):
                document["gauges"].append(
                    {
                        "name": name,
                        "labels": labels_dict(key),
                        "value": snap["gauges"][name][key],
                        "help": meta.get(name, ("gauge", ""))[1],
                    }
                )
        for name in sorted(snap["histograms"]):
            bounds = snap["buckets"][name]
            for key in sorted(snap["histograms"][name]):
                state = snap["histograms"][name][key]
                document["histograms"].append(
                    {
                        "name": name,
                        "labels": labels_dict(key),
                        "buckets": {
                            _format_value(bound): count
                            for bound, count in zip(bounds, state["counts"])
                        },
                        "sum": state["sum"],
                        "count": state["count"],
                        "help": meta.get(name, ("histogram", ""))[1],
                    }
                )
        return document
