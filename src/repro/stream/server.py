"""Long-lived query server over a streaming engine's live state.

A stdlib :mod:`http.server` service (no new dependencies) answering the
paper's analyses from the engine's in-memory state while the follow loop
keeps ingesting:

* ``GET /healthz``            -- liveness + watermark
* ``GET /adoption?date=...``  -- retrospective per-CMP counts (default:
  the watermark date)
* ``GET /adoption/live``      -- watermark-finalized expiring-state counts
* ``GET /marketshare?date=...`` -- observed marketshare curve rows
* ``GET /marketshare/live``   -- the O(1) live curve
* ``GET /vantage``            -- per-vantage CMP occurrence table
* ``GET /stats``              -- engine progress + query latency
  percentiles (p50/p90/p99 per endpoint)
* ``GET /metrics``            -- the metrics registry in Prometheus text
  format 0.0.4 (on the null obs backend: the query-latency histogram)

Every query runs inside a ``stream.query`` obs span and is recorded
once, in the ``stream_query_seconds`` latency histogram labeled by
endpoint; ``/stats`` estimates its percentiles from the bucket counts,
so the server's memory stays flat however many requests it answers.
The handler threads only touch the engine through its lock-guarded
query methods, so serving is safe while
:meth:`StreamingStudyEngine.advance_day` runs. Latency measurement uses
the wall clock deliberately -- it meters the service, never a result
(hence the DET002 suppressions).
"""

from __future__ import annotations

import datetime as dt
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import Histogram, prometheus_text
from repro.stream.engine import StreamingStudyEngine

#: ``stream_query_seconds`` bucket bounds: 50 us to ~10 s in steps of
#: 25%, so a bucket-interpolated percentile is off by at most 25%.
QUERY_BUCKETS: Tuple[float, ...] = tuple(5e-5 * 1.25**k for k in range(56))


class _Handler(BaseHTTPRequestHandler):
    """Routes queries to the engine; one instance per request."""

    server: "QueryServer"  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: without it a keep-alive response's body write
    #: waits out the client's delayed ACK (~40 ms per query).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        endpoint = url.path.rstrip("/") or "/"
        started = time.perf_counter()  # repro-lint: disable=DET002
        engine = self.server.engine
        try:
            with engine.obs.span("stream.query", endpoint=endpoint) as span:
                status, payload = self._route(endpoint, parse_qs(url.query))
                span.set(status=status)
        except Exception as exc:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": str(exc)}
        elapsed = time.perf_counter() - started  # repro-lint: disable=DET002
        self.server.record_latency(endpoint, elapsed)
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log."""

    # ------------------------------------------------------------------
    def _route(
        self, endpoint: str, query: Dict[str, List[str]]
    ) -> Tuple[int, Union[dict, str]]:
        engine = self.server.engine
        if endpoint == "/healthz":
            watermark = engine.watermark
            return 200, {
                "status": "ok",
                "watermark": watermark.isoformat() if watermark else None,
            }
        if endpoint == "/stats":
            payload = engine.stats_payload()
            payload["queries"] = self.server.latency_snapshot()
            return 200, payload
        if endpoint == "/metrics":
            return 200, self.server.metrics_text()
        if endpoint == "/adoption":
            date, error = self._date_param(query)
            if error is not None:
                return error
            counts = engine.counts_on(date)
            return 200, {
                "date": date.isoformat(),
                "counts": dict(counts),
                "total": sum(counts.values()),
            }
        if endpoint == "/adoption/live":
            counts = engine.live_counts()
            watermark = engine.watermark
            return 200, {
                "watermark": watermark.isoformat() if watermark else None,
                "counts": dict(counts),
                "total": sum(counts.values()),
            }
        if endpoint == "/marketshare":
            date, error = self._date_param(query)
            if error is not None:
                return error
            return 200, _curve_payload(engine.marketshare_curve(date))
        if endpoint == "/marketshare/live":
            return 200, _curve_payload(engine.live_marketshare_curve())
        if endpoint == "/vantage":
            table = engine.vantage_table()
            return 200, {
                "rows": [
                    {
                        "config": name,
                        "counts": counts,
                        "total": total,
                        "coverage": round(coverage, 4),
                    }
                    for name, counts, total, coverage in table.rows()
                ],
            }
        return 404, {"error": f"unknown endpoint {endpoint!r}"}

    def _date_param(
        self, query: Dict[str, List[str]]
    ) -> Tuple[Optional[dt.date], Optional[Tuple[int, dict]]]:
        """``?date=`` parsed, defaulting to the watermark; the second
        element is a ready error response when the request is bad."""
        raw = query.get("date", [None])[0]
        if raw is None:
            watermark = self.server.engine.watermark
            if watermark is None:
                return None, (409, {"error": "no day ingested yet"})
            return watermark, None
        try:
            return dt.date.fromisoformat(raw), None
        except ValueError:
            return None, (400, {"error": f"bad date {raw!r}"})


def _curve_payload(curve) -> dict:
    return {
        "date": curve.date.isoformat(),
        "rows": [
            {
                "size": size,
                "total_share": round(total, 6),
                "shares": {k: round(v, 6) for k, v in per_cmp.items()},
            }
            for size, total, per_cmp in curve.rows()
        ],
    }


class QueryServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one engine.

    ``daemon_threads`` keeps handler threads from blocking shutdown;
    :meth:`serve_background` runs the accept loop on a daemon thread so
    the follow loop (or a test) keeps the main thread.
    """

    daemon_threads = True

    def __init__(
        self,
        engine: StreamingStudyEngine,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.engine = engine
        metrics = engine.obs.metrics
        # /stats reads its percentiles off this histogram, so it must
        # record even when the engine's obs is the null backend.
        self.h_query = (
            metrics.histogram(
                "stream_query_seconds", "query-server request latency",
                buckets=QUERY_BUCKETS,
            )
            if metrics.enabled
            else Histogram(
                "stream_query_seconds", "query-server request latency",
                buckets=QUERY_BUCKETS,
            )
        )
        #: Handler threads record concurrently; the histogram is not
        #: thread-safe on its own.
        self._latency_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None

    def record_latency(self, endpoint: str, seconds: float) -> None:
        """Record one answered request (handler threads call this)."""
        with self._latency_lock:
            self.h_query.observe(seconds, endpoint=endpoint)

    def latency_snapshot(self) -> Dict[str, dict]:
        """Per-endpoint request count and p50/p90/p99 in milliseconds."""
        bounds = self.h_query.buckets
        with self._latency_lock:
            return {
                labels["endpoint"]: {
                    "count": series.count,
                    "p50_ms": round(series.quantile(0.50, bounds) * 1e3, 3),
                    "p90_ms": round(series.quantile(0.90, bounds) * 1e3, 3),
                    "p99_ms": round(series.quantile(0.99, bounds) * 1e3, 3),
                }
                for labels, series in self.h_query.labeled_series()
            }

    def metrics_text(self) -> str:
        """The ``/metrics`` body: the engine's registry, or on the null
        obs backend the standalone ``stream_query_seconds`` histogram."""
        metrics = self.engine.obs.metrics
        with self.engine.lock, self._latency_lock:
            if metrics.enabled:
                return metrics.prometheus_text()
            return prometheus_text([self.h_query])

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> "QueryServer":
        """Start the accept loop on a daemon thread; returns self."""
        thread = threading.Thread(
            target=self.serve_forever, name="stream-query-server", daemon=True
        )
        self._thread = thread
        thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def serve_engine(
    engine: StreamingStudyEngine, host: str = "127.0.0.1", port: int = 0
) -> QueryServer:
    """A :class:`QueryServer` for *engine*, already serving in the
    background; ``port`` 0 picks a free port (tests, benchmarks)."""
    return QueryServer(engine, host, port).serve_background()
