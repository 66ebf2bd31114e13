"""The per-layer ledger: record a traced run, then read the layers back.

A traced operation runs with ``Study(obs=Observability(tracer=...))``
and a :class:`RecordingTracer`, so the program's own spans
(``platform.run``, ``platform.crawl``, ``executor.*``, ``toplist.*``,
``graph.build``, ``cache.lookup``, ``stream.*``) and the spans this
module adds around per-batch public calls (:func:`install`) land in one
tree. :func:`write_trace` exports that tree -- id, parent, name, start,
end, thread and attrs per span -- with a metrics snapshot as JSONL, and
:func:`layer_table` computes every per-layer number from that file
alone.

A layer's *self time* is its span's duration minus the time its child
spans cover. Self times partition the operation's wall time
(:data:`SELF_LAYERS`); whatever no layer claims is reported as
``bench.unattributed_s``. Per-row work (``CaptureQueue.submit_at``, the
per-event visit) has no span of its own and shows up as the self time of
its enclosing span. Two program spans carry a duration but no interval,
because they are summed or measured elsewhere:

* ``platform.crawl`` -- the serial crawl time of one ``platform.run``,
  summed over its days. The detect, append and spill-write spans of that
  run lie inside it, so ``crawler.platform.visit_s`` is its duration
  minus theirs, and the queue's self time is the run's self time minus
  the visit time;
* ``executor.shard`` -- one shard's busy time inside a worker process;
  it feeds the executor's busy, skew and overhead numbers and covers no
  parent time.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.ioutil import atomic_write
from repro.obs import Tracer

from benchmarks.study.harness import tree_mb

#: Span name -> the layer its self time is charged to.
SELF_LAYERS: Dict[str, str] = {
    "SocialShareStream.events_for_day": "crawler.seeds.s",
    "platform.run": "crawler.queue.s",
    "DetectionEngine.detect_batch": "detect.engine.s",
    "CaptureStore.append_batch": "crawler.columnar.append_s",
    "CaptureStore.merge": "crawler.columnar.merge_s",
    "spill.save_store": "crawler.spill.write_s",
    "spill.load_store": "crawler.spill.read_s",
    "executor.derive_shards": "crawler.executor.derive_s",
    "executor.crawl": "crawler.executor.wait_s",
    "executor.merge": "crawler.executor.merge_s",
    "Study.run_social_crawl": "crawler.platform.setup_s",
    "Study.toplist_domains": "toplist.tranco.s",
    "store_digest": "crawler.storage.digest_s",
    "ArtifactCache.save_payload": "cache.save_s",
    "ArtifactCache.save_capture_store": "cache.save_s",
    "cache.save_store": "cache.save_s",
    "ArtifactCache.load_payload": "cache.load_s",
    "ArtifactCache.load_capture_store": "cache.load_s",
    "cache.lookup": "cache.load_s",
    "cache.load_store": "cache.load_s",
    "Study.adoption_series": "core.adoption.s",
    "Study.marketshare_curve": "core.marketshare.s",
    "Study.vantage_table": "core.vantage.s",
    "toplist.probe": "crawler.toplist_crawl.probe_s",
    "toplist.config": "crawler.toplist_crawl.config_s",
    "toplist.run": "crawler.toplist_crawl.config_s",
    "generate_gvl_history": "tcf.gvlgen.s",
    "GvlAnalysis": "core.gvl_analysis.s",
    "graph.build": "graph.build_s",
    "Study.build_graph": "graph.load_s",
    "Study.streaming_engine": "stream.engine.setup_s",
    "StreamingStudyEngine.advance_day": "stream.engine.s",
    "stream.ingest_day": "stream.engine.s",
    "stream.checkpoint": "stream.engine.s",
    "serve": "stream.server.serve_s",
    "bench.op": "bench.unattributed_s",
}

#: The spans inside a serial ``platform.crawl`` that are not visits.
_CRAWL_INNER = frozenset(
    {"DetectionEngine.detect_batch", "CaptureStore.append_batch", "spill.save_store"}
)

#: Every number :func:`layer_table` reports; absent layers read 0.
LAYER_METRICS: Tuple[str, ...] = tuple(
    sorted(
        set(SELF_LAYERS.values())
        | {
            "bench.disk_mb",
            "bench.layer_coverage",
            "bench.trace_overhead_frac",
            "bench.traced_wall_s",
            "cache.hit_ratio",
            "cache.read_mb",
            "cache.write_mb",
            "crawler.executor.busy_s",
            "crawler.executor.overhead_s",
            "crawler.executor.payload_mb",
            "crawler.executor.skew",
            "crawler.executor.worker_rss_mb",
            "crawler.platform.crawl_s",
            "crawler.platform.fail_ratio",
            "crawler.platform.visit_s",
            "crawler.queue.accept_ratio",
            "crawler.spill.read_mb",
            "crawler.spill.segments",
            "crawler.spill.write_mb",
            "crawler.toplist_crawl.crawls",
            "faults.exhausted",
            "faults.injected",
            "faults.retries",
            "graph.elements",
            "stream.engine.checkpoint_s",
            "stream.engine.day_max_ms",
            "stream.engine.day_p50_ms",
            "stream.engine.events_per_s",
            "stream.engine.rows",
            "stream.mixed_ingest_slowdown",
            "stream.mixed_late_max_ms",
            "stream.mixed_query_p50_ms",
            "stream.server.handler_p50_ms",
            "stream.server.qps",
            "stream.server.query_p50_ms",
            "stream.server.query_p90_ms",
            "stream.server.transport_p50_ms",
            "web.worldgen.cache_hit_ratio",
        }
    )
)

_MB = 1024 * 1024


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class RecordingTracer(Tracer):
    """A :class:`~repro.obs.Tracer` that also keeps every span's start,
    end and thread (seconds since the tracer was created).

    Only the tracer's public methods are overridden. Span creation is
    serialized so the query server's handler threads cannot collide on
    span ids; the base tracer keeps one parent stack for all threads, so
    :func:`write_trace` recomputes parents from the recorded intervals
    of each thread.
    """

    def __init__(self) -> None:
        super().__init__()
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        #: span id -> [thread ident, start, end]; ``start`` is ``None``
        #: for spans recorded after the fact (``end`` = recording time).
        self.bounds: Dict[int, list] = {}

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def span(self, name: str, **attrs: object) -> "_BoundedSpan":
        with self._lock:
            context = super().span(name, **attrs)
        return _BoundedSpan(self, context)

    def record_span(self, name: str, seconds: float, **attrs: object):
        with self._lock:
            span = super().record_span(name, seconds, **attrs)
        self.bounds[span.span_id] = [threading.get_ident(), None, self.now()]
        return span


class _BoundedSpan:
    __slots__ = ("_tracer", "_context", "_bounds")

    def __init__(self, tracer: RecordingTracer, context) -> None:
        self._tracer = tracer
        self._context = context
        self._bounds: list = []

    def __enter__(self):
        span = self._context.__enter__()
        self._bounds = [threading.get_ident(), self._tracer.now(), None]
        self._tracer.bounds[span.span_id] = self._bounds
        return span

    def __exit__(self, *exc) -> bool:
        self._bounds[2] = self._tracer.now()
        return self._context.__exit__(*exc)


def _wrap(
    owner: object,
    attr: str,
    name: str,
    tracer: RecordingTracer,
    size: Optional[Callable[[tuple, object], float]] = None,
) -> None:
    """Replace ``owner.attr`` with a version that runs in a span *name*;
    *size* (args, result) -> MB moved becomes the span's ``mb`` attr."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if size is not None:
                span.set(mb=size(args, result))
        return result

    setattr(owner, attr, traced)


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / _MB
    except OSError:
        return 0.0


def _entry_dir(args: tuple) -> Path:
    cache, fingerprint = args[0], args[1]
    return Path(cache.root) / fingerprint.slot()


def install(tracer: RecordingTracer) -> None:
    """Wrap the per-batch public calls the program makes internally.

    Patches classes and modules in place for the rest of the process,
    so call it only in a process dedicated to one traced operation.
    ``save_store`` / ``load_store`` are wrapped at the name each caller
    looks up: ``repro.crawler.spill`` for spill segments and
    ``repro.cache`` for cache entries.
    """
    from repro import cache
    from repro.crawler import spill
    from repro.crawler.columnar import CaptureStore
    from repro.crawler.seeds import SocialShareStream
    from repro.detect.engine import DetectionEngine

    _wrap(SocialShareStream, "events_for_day",
          "SocialShareStream.events_for_day", tracer)
    _wrap(DetectionEngine, "detect_batch", "DetectionEngine.detect_batch", tracer)
    _wrap(CaptureStore, "append_batch", "CaptureStore.append_batch", tracer)
    _wrap(CaptureStore, "merge", "CaptureStore.merge", tracer)
    _wrap(spill, "save_store", "spill.save_store", tracer,
          size=lambda args, _result: _file_mb(args[1]))
    _wrap(spill, "load_store", "spill.load_store", tracer,
          size=lambda args, _result: _file_mb(args[0]))
    _wrap(cache, "save_store", "cache.save_store", tracer)
    _wrap(cache, "load_store", "cache.load_store", tracer)
    _wrap(cache.ArtifactCache, "save_payload", "ArtifactCache.save_payload",
          tracer, size=lambda args, _r: _file_mb(_entry_dir(args) / "artifact.json"))
    _wrap(cache.ArtifactCache, "save_capture_store",
          "ArtifactCache.save_capture_store", tracer,
          size=lambda args, _r: tree_mb(_entry_dir(args)))
    _wrap(cache.ArtifactCache, "load_payload", "ArtifactCache.load_payload",
          tracer, size=lambda args, result: 0.0 if result is None
          else _file_mb(_entry_dir(args) / "artifact.json"))
    _wrap(cache.ArtifactCache, "load_capture_store",
          "ArtifactCache.load_capture_store", tracer,
          size=lambda args, result: 0.0 if result is None
          else tree_mb(_entry_dir(args)))


def write_trace(path: Path, tracer: RecordingTracer, metrics) -> None:
    """Export the spans (reparented from their intervals) and a metrics
    snapshot to *path* as JSON Lines."""
    main = threading.main_thread().ident
    threads: Dict[Optional[int], int] = {main: 0}
    spans = []
    for record in tracer.export_records():
        if record["kind"] != "span":
            continue
        ident, start, end = tracer.bounds[record["id"]]
        spans.append(
            {
                "kind": "span",
                "id": record["id"],
                "name": record["name"],
                "thread": threads.setdefault(ident, len(threads)),
                "start": start,
                "end": end,
                "seconds": record["seconds"],
                "status": record["status"],
                "attrs": record["attrs"],
            }
        )
    reparent(spans)
    with atomic_write(path) as handle:
        for record in spans:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        for record in metrics.snapshot():
            handle.write(json.dumps(dict(record, kind="metric"), sort_keys=True) + "\n")


def _point(span: dict) -> float:
    return span["end"] if span["start"] is None else span["start"]


def reparent(spans: List[dict]) -> None:
    """Set each span's ``parent`` to the innermost interval span of the
    same thread that contains it (its start, or for a span recorded
    after the fact, the moment it was recorded)."""
    by_thread: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        by_thread[span["thread"]].append(span)
    for group in by_thread.values():
        group.sort(key=lambda s: (_point(s), -s["end"], s["id"]))
        stack: List[dict] = []
        for span in group:
            at = _point(span)
            while stack and not (
                stack[-1]["start"] <= at and span["end"] <= stack[-1]["end"]
            ):
                stack.pop()
            span["parent"] = stack[-1]["id"] if stack else None
            if span["start"] is not None:
                stack.append(span)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_trace(path: Path) -> Tuple[List[dict], List[dict], Dict[str, dict]]:
    """(spans, metric records, other records by kind) of a trace file."""
    spans, metrics, other = [], [], {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            kind = record["kind"]
            if kind == "span":
                spans.append(record)
            elif kind == "metric":
                metrics.append(record)
            else:
                other[kind] = record
    return spans, metrics, other


def _duration(span: dict) -> float:
    if span["start"] is None:
        return span["seconds"] or 0.0
    return span["end"] - span["start"]


def _metric_sum(metrics: List[dict], name: str, **labels: str) -> float:
    return sum(
        record["value"]
        for record in metrics
        if record["metric"] == name
        and all(record["labels"].get(k) == v for k, v in labels.items())
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_table(path: Path) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` number, computed from the trace file."""
    spans, metrics, other = read_trace(path)
    children: Dict[int, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    root = next(span for span in spans if span["name"] == "bench.op")
    op: List[dict] = []
    todo = [root]
    while todo:
        span = todo.pop()
        op.append(span)
        todo.extend(children[span["id"]])
    named: Dict[str, List[dict]] = defaultdict(list)
    for span in op:
        named[span["name"]].append(span)

    out: Dict[str, float] = dict.fromkeys(LAYER_METRICS, 0.0)
    for span in op:
        if span["start"] is None:
            continue
        covered = sum(
            _duration(child)
            for child in children[span["id"]]
            if child["start"] is not None
        )
        layer = SELF_LAYERS.get(span["name"], "bench.unattributed_s")
        out[layer] += _duration(span) - covered

    for crawl in named["platform.crawl"]:
        inner = sum(
            _duration(child)
            for child in children[crawl["parent"]]
            if child["name"] in _CRAWL_INNER
        )
        visit = _duration(crawl) - inner
        out["crawler.platform.crawl_s"] += _duration(crawl)
        out["crawler.platform.visit_s"] += visit
        out["crawler.queue.s"] -= visit

    for crawl in named["executor.crawl"]:
        busy = [
            _duration(child)
            for child in children[crawl["id"]]
            if child["name"] == "executor.shard"
        ]
        if not busy:
            continue
        siblings = children[crawl["parent"]]
        merge = sum(_duration(s) for s in siblings if s["name"] == "executor.merge")
        wall = merge + sum(
            _duration(s)
            for s in siblings
            if s["name"] in ("executor.derive_shards", "executor.crawl")
        )
        out["crawler.executor.busy_s"] += sum(busy)
        out["crawler.executor.skew"] = max(
            out["crawler.executor.skew"], max(busy) / statistics.mean(busy)
        )
        out["crawler.executor.overhead_s"] += wall - max(busy) - merge

    def total_mb(*names: str) -> float:
        return sum(s["attrs"].get("mb", 0.0) for n in names for s in named[n])

    out["crawler.spill.write_mb"] = total_mb("spill.save_store")
    out["crawler.spill.read_mb"] = total_mb("spill.load_store")
    out["crawler.spill.segments"] = float(len(named["spill.save_store"]))
    out["cache.write_mb"] = total_mb(
        "ArtifactCache.save_payload", "ArtifactCache.save_capture_store"
    )
    out["cache.read_mb"] = total_mb(
        "ArtifactCache.load_payload", "ArtifactCache.load_capture_store"
    )

    hits = _metric_sum(metrics, "cache_hits_total")
    out["cache.hit_ratio"] = _ratio(
        hits,
        hits
        + _metric_sum(metrics, "cache_misses_total")
        + _metric_sum(metrics, "cache_invalidations_total"),
    )
    submitted = _metric_sum(metrics, "queue_submissions_total")
    out["crawler.queue.accept_ratio"] = _ratio(
        _metric_sum(metrics, "queue_submissions_total", decision="accepted"),
        submitted,
    )
    crawls = _metric_sum(metrics, "platform_crawls_total")
    out["crawler.platform.fail_ratio"] = _ratio(
        crawls - _metric_sum(metrics, "platform_crawls_total", outcome="ok"),
        crawls,
    )
    out["crawler.toplist_crawl.crawls"] = _metric_sum(metrics, "toplist_crawls_total")
    # Every memo miss inserts one entry, later kept or evicted.
    world_hits = _metric_sum(metrics, "world_cache_hits")
    out["web.worldgen.cache_hit_ratio"] = _ratio(
        world_hits,
        world_hits
        + _metric_sum(metrics, "world_cache_entries")
        + _metric_sum(metrics, "world_cache_evictions"),
    )
    for run in named["platform.run"]:
        attrs = run["attrs"]
        out["faults.injected"] += attrs.get("faults_injected", 0)
        out["faults.retries"] += attrs.get("retries", 0)
        out["faults.exhausted"] += attrs.get("retries_exhausted", 0)

    days = [_duration(s) * 1e3 for s in named["StreamingStudyEngine.advance_day"]]
    if days:
        out["stream.engine.day_p50_ms"] = statistics.median(days)
        out["stream.engine.day_max_ms"] = max(days)
    out["stream.engine.checkpoint_s"] = sum(
        _duration(s) for s in named["stream.checkpoint"]
    )
    out["stream.engine.rows"] = _metric_sum(metrics, "stream_rows_total")
    for serve in named["serve"]:
        handled = [
            _duration(s) * 1e3
            for s in spans
            if s["name"] == "stream.query"
            and serve["start"] <= s["start"]
            and s["end"] <= serve["end"]
        ]
        if handled:
            out["stream.server.handler_p50_ms"] = statistics.median(handled)

    attrs = root["attrs"]
    wall = _duration(root)
    for key in (
        "bench.disk_mb",
        "crawler.executor.payload_mb",
        "crawler.executor.worker_rss_mb",
        "graph.elements",
        "stream.engine.events_per_s",
        "stream.server.qps",
        "stream.server.query_p50_ms",
        "stream.server.query_p90_ms",
    ):
        if attrs.get(key) is not None:
            out[key] = attrs[key]
    if out["stream.server.query_p50_ms"]:
        out["stream.server.transport_p50_ms"] = (
            out["stream.server.query_p50_ms"] - out["stream.server.handler_p50_ms"]
        )
    for mixed in (s for s in spans if s["name"] == "bench.mixed"):
        for key in (
            "stream.mixed_ingest_slowdown",
            "stream.mixed_query_p50_ms",
            "stream.mixed_late_max_ms",
        ):
            out[key] = mixed["attrs"].get(key) or 0.0
    out["bench.traced_wall_s"] = wall
    out["bench.layer_coverage"] = 1.0 - _ratio(out["bench.unattributed_s"], wall)
    untraced = other.get("untraced", {}).get("wall_s")
    if untraced:
        out["bench.trace_overhead_frac"] = wall / untraced - 1.0
    return out
